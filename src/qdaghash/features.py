"""Structured node fingerprinting (feature-engineered approach).

Every node becomes a fixed-order integer feature vector over a versioned
schema, the vector's canonical string is hashed to 64 bits, and the
per-node hashes are combined with depth-weighted SimHash. Table and column
names are never consulted, so plans that differ only in identifier names
fingerprint identically.

node_signatures_structured signs a block of plans with one hashing pass
over the canonical strings of all their nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .operators import operator_code
from .qdag import PlanNode, QDag, StructuralProfile
from .simhash import simhash_runs, string_hash64, string_hashes64

FEATURE_SCHEMA_VERSION = "fs1"

# Slot order is fixed and versioned; reordering would change every hash.
FEATURE_SLOTS: tuple[str, ...] = (
    "operator_code",
    "join_algorithm",
    "join_semantics",
    "build_side",
    "partitioning_type",
    "num_partitions",
    "broadcast_mode",
    "num_numeric_attrs",
    "num_string_attrs",
    "num_grouping_exprs",
    "num_result_exprs",
    "num_keys",
    "row_width",
)

# Property keys fillable from a node's property bag (slot 0 comes from the
# operator name instead).
PROPERTY_KEYS: tuple[str, ...] = FEATURE_SLOTS[1:]

# Categorical encodings; 0 is the shared absent sentinel, real codes start at 1.
CATEGORY_CODES: dict[str, dict[str, int]] = {
    "join_algorithm": {"hash": 1, "sort-merge": 2, "broadcast": 3},
    "join_semantics": {"inner": 1, "outer": 2, "anti": 3, "semi": 4},
    "build_side": {"left": 1, "right": 2},
    "partitioning_type": {"hash": 1, "range": 2, "single": 3},
    "broadcast_mode": {"hashed-relation": 1, "identity": 2},
}


@dataclass(frozen=True)
class NodeFeatureVector:
    node_id: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(FEATURE_SLOTS):
            raise ValueError(
                f"feature vector has {len(self.values)} slots, schema expects "
                f"{len(FEATURE_SLOTS)}"
            )

    def canonical_string(self) -> str:
        return "|".join(map(str, self.values))


def bucket_row_width(width: int) -> int:
    """Round a row width up to the next power of two (0 stays 0)."""
    if width <= 0:
        return 0
    return 1 << (width - 1).bit_length()


def _slot_value(slot: str, raw: object) -> int:
    if isinstance(raw, str):
        return CATEGORY_CODES.get(slot, {}).get(raw.strip().lower(), 0)
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        return 0
    if isinstance(raw, float) and not math.isfinite(raw):  # JSON NaN, Infinity
        return 0
    value = int(raw)
    return value if value >= 0 else 0


def extract_features(node: PlanNode) -> NodeFeatureVector:
    """Fill the schema slots from the node's property bag (absent -> 0)."""
    values = [operator_code(node.operator_name)]
    for key in PROPERTY_KEYS:
        raw = node.properties.get(key)
        value = 0 if raw is None else _slot_value(key, raw)
        if key == "row_width":
            value = bucket_row_width(value)
        values.append(value)
    return NodeFeatureVector(node.id, tuple(values))


def node_hash_structured(fv: NodeFeatureVector) -> int:
    """64-bit hash of the vector's canonical "v0|v1|...|v12" rendering."""
    return string_hash64(fv.canonical_string())


def node_signature_structured(graph: QDag, profile: StructuralProfile) -> int:
    """N(G): SimHash over all per-node feature hashes, each weighted by its depth."""
    return node_signatures_structured([graph], [profile])[0]


def node_signatures_structured(
    graphs: Sequence[QDag], profiles: Sequence[StructuralProfile]
) -> list[int]:
    """node_signature_structured of each graph and its profile."""
    nodes = [(node, profile) for graph, profile in zip(graphs, profiles) for node in graph.nodes]
    hashes = string_hashes64([extract_features(node).canonical_string() for node, _ in nodes])
    depths = np.fromiter((profile.depth[node.id] for node, profile in nodes), np.int64, len(nodes))
    return simhash_runs(hashes, [len(graph.nodes) for graph in graphs], depths)
