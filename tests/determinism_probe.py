"""Decode with ``RandomScorer`` and a trained ``NgramScorer``, greedy and
beam, and with ``UniformScorer`` at several beam widths, and print a
digest.

The digest covers every result's tokens, log-probabilities and
``total_logprob``, every truncation's message, and the error message of
the random decode under a scorer whose values turn NaN part way, which
names a legal token.  Under the uniform scorer every candidate of a
step ties, so each beam decode follows token order alone: widths 1 and 2
truncate, since "( (" sorts before "( )" and keeps opening events, and
widths 4 and 6 return "( )".  These decodes pin the truncation message
and the uniform log-probabilities; they cannot show the order in which
beam meets tied tokens, since any order of its cut gives these results.
``ClosingScorer`` can: it ties every label and every word, and only the
``)`` after a word tells the words apart, by a rank that is not their
sorted order.  So which tied words a beam keeps decides which finished
output wins, and a cut that depended on the order beam meets tied
tokens in (the input's order for words, a set's for labels) would
change the digest.
The probe needs only the standard library and evseq, so any supported
interpreter, under any ``PYTHONHASHSEED``, can run it:

    PYTHONPATH=src python3.13 tests/determinism_probe.py

Every interpreter and every hash seed must print the same digest.
"""

import hashlib
import math

from evseq import (
    CLOSE,
    EOS,
    OPEN,
    DecodeConfig,
    DecodeError,
    RandomScorer,
    TokenizedInput,
    TruncationError,
    UniformScorer,
    constrained_decode,
    decoding_vocab,
    parse_schema,
    split_label,
    train_ngram,
)

SCHEMA = parse_schema(
    "Transfer-Money: Giver, Recipient\nTransfer-Ownership: Buyer, Seller\n"
    "Attack: Attacker, Target\nDie:"
)
WORDS = ("Money", "Buyer", "paid", "sold", "the", "house", "to", "him", "attack", "died", ",")
CONFIGS = (
    DecodeConfig(max_length=48),
    DecodeConfig(mode="beam", beam_width=3, max_length=48),
)
# eight distinct words, not in sorted order
TIED_INPUT = ("the", "house", "Money", "paid", "to", "him", "attack", "died")
TIED_CONFIGS = tuple(
    DecodeConfig(mode="beam", beam_width=width, max_length=48) for width in (1, 2, 4, 6)
)


# the ")" after one of these words scores higher the later it comes here
CLOSING_RANK = ("died", "Money", "him", "the", "attack", "house", "paid", "to")


class ClosingScorer:
    """Fixed values for "(", EOS and ")" after "(" or ")"; 0.5 for every
    other token, so all labels and words tie; and for ")" after a word,
    a value set by that word's place in ``CLOSING_RANK``."""

    def __init__(self, vocab):
        self.tied = dict.fromkeys(sorted(vocab), 0.5)
        self.tied.update({OPEN: 0.9, EOS: 1.0})
        self.close = {OPEN: 0.001, CLOSE: 0.9}
        self.close.update((word, 0.1 * (i + 1)) for i, word in enumerate(CLOSING_RANK))

    def next_distribution(self, inp, prefix):
        return {**self.tied, CLOSE: self.close.get(prefix[-1], 0.5)}


class NaNFrom:
    """``base``'s distributions until the prefix holds ``at`` tokens, then
    NaN for every token."""

    def __init__(self, base, at: int):
        self.base, self.at = base, at

    def next_distribution(self, inp, prefix):
        dist = self.base.next_distribution(inp, prefix)
        return dist if len(prefix) < self.at else dict.fromkeys(dist, math.nan)


def ngram_targets(n_targets: int = 24) -> list[list[str]]:
    """Linearized bodies of one or two events, each with up to two
    arguments, their labels and words picked by index arithmetic."""
    targets = []
    for i in range(n_targets):
        body = [OPEN]
        for e in range(1 + i % 2):
            etype = SCHEMA.types[(i + e) % len(SCHEMA.types)]
            body += [OPEN, *split_label(etype), WORDS[(i * 5 + e) % len(WORDS)]]
            for r, role in enumerate(SCHEMA.roles(etype)[: (i + e) % 3]):
                body += [OPEN, *split_label(role), WORDS[(i * 3 + r * 7) % len(WORDS)], CLOSE]
            body.append(CLOSE)
        targets.append(body + [CLOSE])
    return targets


def hash_decodes(h, scorer, inp: TokenizedInput, configs=CONFIGS) -> None:
    """Hash ``scorer``'s decode of ``inp`` under each of ``configs``."""
    for config in configs:
        try:
            result = constrained_decode(scorer, inp, SCHEMA, config)
        except TruncationError as err:
            h.update(f"truncated: {err}\n".encode())
            continue
        h.update(("\x1f".join(result.tokens) + "\n").encode())
        h.update((" ".join(map(repr, result.logprobs)) + "\n").encode())
        h.update((repr(result.total_logprob) + "\n").encode())


def digest(n_inputs: int = 30) -> str:
    h = hashlib.sha256()
    empty = TokenizedInput.from_tokens(())
    ngram = train_ngram(
        [(empty, target) for target in ngram_targets()], extra_vocab=SCHEMA.label_tokens
    )
    for i in range(n_inputs):
        # inputs from arithmetic, not from random, whose algorithms may
        # change between interpreter versions
        tokens = [WORDS[(i * 7 + j * 3) % len(WORDS)] for j in range(1 + i % 8)]
        inp = TokenizedInput.from_tokens(tokens)
        scorer = RandomScorer(decoding_vocab(SCHEMA, inp), seed=i)
        for config in CONFIGS:
            try:
                constrained_decode(NaNFrom(scorer, 2 + i % 6), inp, SCHEMA, config)
                h.update(b"finished\n")
            except DecodeError as err:
                h.update((str(err) + "\n").encode())
        hash_decodes(h, scorer, inp)
        hash_decodes(h, ngram, inp)
    tied = TokenizedInput.from_tokens(TIED_INPUT)
    hash_decodes(h, UniformScorer(decoding_vocab(SCHEMA, tied)), tied, TIED_CONFIGS)
    closing = ClosingScorer(decoding_vocab(SCHEMA, tied))
    hash_decodes(h, closing, tied, CONFIGS[:1] + TIED_CONFIGS)
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
