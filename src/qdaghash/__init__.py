"""qdaghash: 128-bit similarity fingerprints for query-plan DAGs.

A plan's fingerprint is a pair of 64-bit signatures: an edge-structure
signature built by positional encoding of per-edge endpoint features, and
a node signature built by SimHash over per-node hashes (either
feature-engineered and depth-weighted, or character n-grams at uniform
weight). Past executions are indexed with their runtimes; a new plan's
runtime-complexity category is predicted from its fuzzy nearest neighbor.
"""

from . import errors
from .edges import EDGE_FIELD_LAYOUT, EDGE_LAYOUT_VERSION, edge_signature, pack_edge_word
from .evaluate import DistanceBucket, EvalReport, eval_leave_one_out, render_report_text
from .features import (
    FEATURE_SCHEMA_VERSION,
    FEATURE_SLOTS,
    NodeFeatureVector,
    bucket_row_width,
    extract_features,
    node_hash_structured,
    node_signature_structured,
)
from .fingerprint import (
    APPROACH_NGRAM,
    APPROACH_STRUCTURED,
    APPROACHES,
    Fingerprint128,
    FingerprintConfig,
    fingerprint_document,
    fingerprint_graph,
)
from .index import (
    ComplexityLabel,
    Index,
    IndexHeader,
    IndexRecord,
    MatchResult,
    classify_runtime,
    require_compatible,
)
from .ingest import (
    Corpus,
    PlanDocument,
    load_corpus,
    load_plan_file,
    parse_plan_json,
    parse_plan_text,
    render_plan_json,
    resolve_reuse_references,
)
from .ngrams import NGramConfig, ngrams, node_hashes_ngram, node_signature_ngram, normalize_fact
from .operators import REGISTRY_VERSION, operator_code
from .qdag import PlanNode, QDag, StructuralProfile, structural_profile, validate_dag
from .simhash import HASH_ALGORITHM_ID, hamming, simhash, string_hash64

__version__ = "0.1.0"
