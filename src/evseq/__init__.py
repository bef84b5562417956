"""Schema-constrained generation, parsing, grounding and scoring of
event structures.

The pipeline: ``linearize`` event records into parenthesized token
sequences, decode such sequences under grammar/schema/span constraints
with ``constrained_decode`` driven by any ``Scorer``, parse them back
with ``delinearize``, reattach source offsets with ``ground_records``,
and score predictions with ``evaluate``.
"""

from .codec import (
    Argument,
    CodecError,
    EventRecord,
    Mention,
    delinearize,
    linearize,
    strip_sentinels,
)
from .curriculum import (
    CurriculumResult,
    curriculum_train,
    extract_substructures,
    generate_synthetic,
)
from .dataio import DataError, Example, read_dataset, write_dataset
from .decoder import (
    DecodeConfig,
    DecodeError,
    DecodeResult,
    DecodeState,
    Phase,
    Scorer,
    TruncationError,
    candidate_vocab,
    constrained_decode,
    decode_batch,
    sequence_nll,
    step,
)
from .evaluation import EvalReport, MetricCounts, evaluate
from .grounding import ground_records, ground_triggers
from .schema import (
    EventSchema,
    LabelTrie,
    SchemaError,
    SchemaTries,
    load_schema,
    parse_schema,
    split_label,
)
from .scorers import (
    NgramScorer,
    OracleScorer,
    RandomScorer,
    UniformScorer,
    decoding_vocab,
    load_scorer,
    oracle_scorer,
    save_scorer,
    train_ngram,
    uniform_scorer,
)
from .span_index import (
    SpanTrie,
    TokenizedInput,
    build_span_trie,
    find_occurrences,
)
from .tokens import BOS, CLOSE, EOS, OPEN

__version__ = "0.1.0"

__all__ = [
    "Argument",
    "BOS",
    "CLOSE",
    "CodecError",
    "CurriculumResult",
    "DataError",
    "DecodeConfig",
    "DecodeError",
    "DecodeResult",
    "DecodeState",
    "EOS",
    "EvalReport",
    "EventRecord",
    "EventSchema",
    "Example",
    "LabelTrie",
    "Mention",
    "MetricCounts",
    "NgramScorer",
    "OPEN",
    "OracleScorer",
    "Phase",
    "RandomScorer",
    "SchemaError",
    "SchemaTries",
    "Scorer",
    "SpanTrie",
    "TokenizedInput",
    "TruncationError",
    "UniformScorer",
    "build_span_trie",
    "candidate_vocab",
    "constrained_decode",
    "curriculum_train",
    "decode_batch",
    "decoding_vocab",
    "delinearize",
    "evaluate",
    "extract_substructures",
    "find_occurrences",
    "generate_synthetic",
    "ground_records",
    "ground_triggers",
    "linearize",
    "load_schema",
    "load_scorer",
    "oracle_scorer",
    "parse_schema",
    "read_dataset",
    "save_scorer",
    "sequence_nll",
    "split_label",
    "step",
    "strip_sentinels",
    "train_ngram",
    "uniform_scorer",
    "write_dataset",
]
