"""Command-line surface for the event-structure toolkit.

Subcommands cover the whole pipeline: schema validation, encoding
records to linearized sequences and parsing them back, constrained
decoding with a trained scorer, n-gram training with or without the
substructure curriculum, scoring predictions, synthetic data generation,
and decoder fuzzing.

Exit codes: 0 success, 2 usage, 3 I/O, 4 malformed data or sequences,
5 schema errors, 6 decoding failures: ``decode`` still writes every
prediction, an empty one per failed sentence, and sums the failures up
on one stderr line.  A file that is not UTF-8 exits 4 naming its file
and line.  Files are read and written through ``evseq.files``: an
output file is written whole or not at all, and ``--out -`` means
stdout.  A closed pipe, such as ``evseq encode ... | head -1``, ends
the command with exit 3 and adds no message.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys

from .codec import CodecError, delinearize, linearize, strip_sentinels
from .curriculum import (
    DEFAULT_WORDS,
    curriculum_train,
    dataset_stats,
    generate_synthetic,
)
from .dataio import Example, dataset_line, read_dataset, scored_pairs
from .decoder import DecodeConfig, DecodeError, TruncationError, decode_batch
from .evaluation import evaluate
from .files import DataError, read_lines, read_text, write_lines
from .grounding import ground_records
from .schema import SchemaError, load_schema
from .scorers import RandomScorer, decoding_vocab, load_scorer, save_scorer
from .span_index import DEFAULT_MAX_SPAN_LEN, TokenizedInput, find_occurrences
from .tokens import BOS, EOS

EXIT_OK = 0
EXIT_IO = 3
EXIT_FORMAT = 4
EXIT_SCHEMA = 5
EXIT_CONSTRAINT = 6


def _out(path: str | None) -> str | None:
    """The writer's target for an ``--out`` value: None, stdout, for '-'."""
    return None if path == "-" else path


def cmd_schema_validate(args) -> int:
    schema = load_schema(args.schema)
    n_roles = sum(len(schema.roles(t)) for t in schema.types)
    print(f"ok: {len(schema.types)} event types, {n_roles} roles")
    return EXIT_OK


def cmd_encode(args) -> int:
    schema = load_schema(args.schema)
    examples = read_dataset(args.records)
    lines = [" ".join(linearize(ex.records, schema)) for ex in examples]
    write_lines(_out(args.out), lines)
    return EXIT_OK


def cmd_parse(args) -> int:
    schema = load_schema(args.schema)
    raw_lines = [line.strip() for line in read_lines(args.seqs)]
    out = []
    for lineno, line in enumerate(raw_lines, start=1):
        if not line:
            continue
        tokens = tuple(line.split())
        offset = 0
        if len(tokens) >= 2 and tokens[0] == BOS and tokens[-1] == EOS:
            tokens = strip_sentinels(tokens)
            offset = 1
        try:
            records = delinearize(tokens, schema)
        except CodecError as err:
            position = "" if err.position is None else f", token {err.position + offset}"
            raise CodecError(f"line {lineno}{position}: {err}") from None
        example = Example(f"line-{lineno}", TokenizedInput.from_tokens(()), records)
        out.append(dataset_line(example))
    write_lines(_out(args.out), out)
    return EXIT_OK


def cmd_decode(args) -> int:
    schema = load_schema(args.schema)
    scorer = load_scorer(args.scorer)
    examples = read_dataset(args.inputs)
    config = DecodeConfig(
        mode="beam" if args.beam else "greedy",
        beam_width=args.beam or 1,
        max_length=args.max_len,
        constrained=not args.no_constraints,
    )
    outcomes = decode_batch(scorer, [ex.inp for ex in examples], schema, config, args.max_span_len)
    predictions = []
    failed = []
    unparseable = 0
    for ex, outcome in zip(examples, outcomes):
        records = ()
        if isinstance(outcome, DecodeError):
            failed.append(f"{ex.id}: {outcome}")
        else:
            try:
                records = delinearize(outcome.tokens, schema)
            except CodecError:
                if not args.no_constraints:
                    raise
                unparseable += 1
        predictions.append(Example(ex.id, ex.inp, ground_records(records, ex.inp)))
    if unparseable:
        print(
            f"warning: {unparseable} unconstrained output(s) did not parse; "
            "emitted empty record lists for them",
            file=sys.stderr,
        )
    write_lines(_out(args.out), map(dataset_line, predictions))
    if failed:
        more = f" (+{len(failed) - 3} more)" if len(failed) > 3 else ""
        summary = f"{len(failed)} of {len(examples)} item(s) failed, written with no events"
        raise DecodeError(f"{summary}: {'; '.join(failed[:3])}{more}")
    return EXIT_OK


def cmd_train(args) -> int:
    examples = read_dataset(args.corpus)
    result = curriculum_train(
        [ex.pair for ex in examples],
        n=args.n,
        alpha=args.alpha,
        copy_boost=args.copy_boost,
        sub_epochs=args.sub_epochs,
        full_epochs=args.full_epochs,
        heldout_fraction=args.heldout,
        seed=args.seed,
        mode=args.mode,
    )
    scorer = result.scorer_direct if args.direct else result.scorer_curriculum
    save_scorer(scorer, args.out)
    if args.direct:
        regime = "direct scorer (full targets x1)"
    else:
        regime = (f"curriculum scorer (substructures x{args.sub_epochs}, "
                  f"full targets x{args.full_epochs})")
    print(f"saved {regime} to {args.out}")
    print(result.format_text())
    return EXIT_OK


def cmd_eval(args) -> int:
    gold = read_dataset(args.gold)
    predicted = read_dataset(args.predictions)
    report = evaluate(scored_pairs(gold), scored_pairs(predicted))
    print(report.format_text())
    if args.json:
        write_lines(args.json, [json.dumps(report.as_dict(), ensure_ascii=False, indent=2)])
    return EXIT_OK


def cmd_synth(args) -> int:
    schema = load_schema(args.schema)
    if args.vocab_file:
        vocab = tuple(read_text(args.vocab_file).split())
    else:
        vocab = DEFAULT_WORDS
    examples = generate_synthetic(
        schema,
        vocab,
        seed=args.seed,
        n_sentences=args.n,
        max_events=args.max_events,
        max_args=args.max_args,
    )
    write_lines(_out(args.out), map(dataset_line, examples))
    stats = dataset_stats(examples)
    print(
        "generated {sentences} sentences, {events} events, {arguments} arguments".format(
            **stats
        ),
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_fuzz(args) -> int:
    schema = load_schema(args.schema)
    inputs, scorers = [], []
    for seed in range(args.seeds):
        rng = random.Random(seed)
        words = [rng.choice(DEFAULT_WORDS) for _ in range(rng.randint(3, 12))]
        inputs.append(TokenizedInput.from_tokens(words))
        scorers.append(RandomScorer(decoding_vocab(schema, inputs[-1]), seed=seed))
    config = DecodeConfig(max_length=args.max_len)
    outcomes = decode_batch(scorers, inputs, schema, config, args.max_span_len)
    violations = 0
    truncated = 0
    for seed, (inp, outcome) in enumerate(zip(inputs, outcomes)):
        if isinstance(outcome, TruncationError):
            truncated += 1
            continue
        if isinstance(outcome, DecodeError):
            raise outcome
        try:
            records = delinearize(outcome.tokens, schema)
        except CodecError as err:
            violations += 1
            print(f"seed {seed}: output does not parse: {err}", file=sys.stderr)
            continue
        for record in records:
            mentions = [record.trigger] + [a.mention for a in record.args]
            for mention in mentions:
                if not find_occurrences(inp.tokens, mention.tokens):
                    violations += 1
                    print(
                        f"seed {seed}: mention {mention.text!r} is not an input span",
                        file=sys.stderr,
                    )
    print(f"decodes: {args.seeds}, violations: {violations}, truncated: {truncated}")
    return EXIT_OK if violations == 0 else EXIT_CONSTRAINT


def _int_at_least(low: int):
    """An argparse type: an int no smaller than ``low`` (else exit 2)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" error
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evseq",
        description="Schema-constrained generation, parsing, grounding and "
        "scoring of event structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schema-validate", help="check a schema document")
    p.add_argument("schema")
    p.set_defaults(func=cmd_schema_validate)

    p = sub.add_parser("encode", help="linearize a records file")
    p.add_argument("records")
    p.add_argument("schema")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("parse", help="parse linearized sequences back to records")
    p.add_argument("seqs", help="one space-separated token sequence per line")
    p.add_argument("schema")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("decode", help="constrained decoding over a dataset")
    p.add_argument("inputs", help="dataset file; only sentences are used")
    p.add_argument("schema")
    p.add_argument("scorer", help="trained scorer artifact")
    p.add_argument(
        "--beam", type=_int_at_least(0), default=0, metavar="N", help="beam width (default: greedy)"
    )
    p.add_argument("--max-len", type=_int_at_least(4), default=128)
    p.add_argument("--max-span-len", type=_int_at_least(1), default=DEFAULT_MAX_SPAN_LEN)
    p.add_argument("--no-constraints", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("train", help="train an n-gram scorer on a dataset")
    p.add_argument("corpus")
    p.add_argument("--out", required=True, help="scorer artifact path")
    p.add_argument("--n", type=_int_at_least(1), default=3)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--copy-boost", type=float, default=4.0)
    p.add_argument("--direct", action="store_true")
    p.add_argument("--sub-epochs", type=_int_at_least(0), default=5)
    p.add_argument("--full-epochs", type=_int_at_least(0), default=30)
    p.add_argument("--heldout", type=float, default=0.2)
    p.add_argument("--mode", choices=("concatenated", "per_unit"), default="concatenated")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score predictions against gold")
    p.add_argument("gold")
    p.add_argument("predictions")
    p.add_argument("--json", default=None, help="also write a machine-readable report")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("schema")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=_int_at_least(0), default=100)
    p.add_argument("--max-events", type=_int_at_least(0), default=3)
    p.add_argument("--max-args", type=_int_at_least(0), default=3)
    p.add_argument("--vocab-file", default=None, help="whitespace-separated word list")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fuzz", help="decode under random scorers and count violations")
    p.add_argument("schema")
    p.add_argument("--seeds", type=_int_at_least(0), default=500, metavar="K")
    p.add_argument("--max-len", type=_int_at_least(4), default=2048)
    p.add_argument("--max-span-len", type=_int_at_least(1), default=DEFAULT_MAX_SPAN_LEN)
    p.set_defaults(func=cmd_fuzz)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "decode" and args.beam and args.no_constraints:
        parser.error("argument --beam: not allowed with --no-constraints (greedy only)")
    if args.command == "train":
        if args.sub_epochs == args.full_epochs == 0:
            parser.error("arguments --sub-epochs, --full-epochs: not both 0 (nothing to count)")
        # each range test below is also false for NaN
        if not 0.0 < args.heldout < 1.0:
            parser.error(f"argument --heldout: must be in (0, 1), got {args.heldout}")
        if not 0.0 < args.alpha < math.inf:
            parser.error(f"argument --alpha: must be finite and > 0, got {args.alpha}")
        if not 1.0 <= args.copy_boost < math.inf:
            parser.error(f"argument --copy-boost: must be finite and >= 1, got {args.copy_boost}")
    try:
        code = _run(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout is gone: nothing to tell it, and the flush
        # at exit must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO


def _run(args) -> int:
    """Run the command, turning its expected errors into exit codes."""
    try:
        return args.func(args)
    except BrokenPipeError:
        raise
    except SchemaError as err:
        print(f"schema error: {err}", file=sys.stderr)
        return EXIT_SCHEMA
    except (CodecError, DataError) as err:
        print(f"format error: {err}", file=sys.stderr)
        return EXIT_FORMAT
    except DecodeError as err:
        print(f"decode error: {err}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
