"""qdaghash: 128-bit similarity fingerprints for query-plan DAGs.

A plan's fingerprint is a pair of 64-bit signatures: an edge-structure
signature built by positional encoding of per-edge endpoint features, and
a node signature built by SimHash over per-node hashes (either
feature-engineered and depth-weighted, or character n-grams at uniform
weight). Past executions are indexed with their runtimes; a new plan's
runtime-complexity category is predicted from its fuzzy nearest neighbor.

The names below are exported lazily: ``import qdaghash`` loads only the
errors module (not numpy), and the first use of a name imports the
submodule that defines it.
"""

import importlib

from . import errors

_EXPORTS = {
    "edges": ("EDGE_FIELD_LAYOUT", "EDGE_LAYOUT_VERSION"),
    "evaluate": ("DistanceBucket", "EvalReport", "eval_leave_one_out", "render_report_text"),
    "features": (
        "FEATURE_SCHEMA_VERSION",
        "FEATURE_SLOTS",
        "NodeFeatureVector",
        "bucket_row_width",
        "extract_features",
    ),
    "fingerprint": (
        "APPROACH_NGRAM",
        "APPROACH_STRUCTURED",
        "APPROACHES",
        "Fingerprint128",
        "FingerprintConfig",
        "fingerprint_document",
        "fingerprint_documents",
        "fingerprint_graph",
    ),
    "index": (
        "ComplexityLabel",
        "Index",
        "IndexHeader",
        "IndexRecord",
        "MatchResult",
        "classify_runtime",
        "require_compatible",
    ),
    "ingest": (
        "Corpus",
        "PlanDocument",
        "load_corpus",
        "load_plan_file",
        "parse_plan_json",
        "parse_plan_text",
        "render_plan_json",
        "resolve_reuse_references",
    ),
    "ngrams": ("NGramConfig", "normalize_fact"),
    "operators": ("REGISTRY_VERSION", "operator_code"),
    "qdag": ("PlanNode", "QDag", "StructuralProfile", "structural_profile"),
    "simhash": ("HASH_ALGORITHM_ID", "hamming", "string_hash64"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["errors", *_MODULE_OF]
__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
