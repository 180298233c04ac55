"""Structured node fingerprinting (feature-engineered approach).

Every node becomes a fixed-order integer feature vector over a versioned
schema, the vector's canonical string is hashed to 64 bits, and the
per-node hashes are combined with depth-weighted SimHash. Table and column
names are never consulted, so plans that differ only in identifier names
fingerprint identically.

node_signatures_structured signs a block of plans with one hashing pass
over the canonical strings of all their nodes. It takes the operator codes
and depths from the block's node_fields rows and renders each canonical
string directly (_canonical_string), filling only the slots present in the
property bag, with no NodeFeatureVector per node; extract_features reads
its vector back from the same string.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .operators import operator_code
from .qdag import PlanNode, QDag
from .simhash import simhash_runs, string_hashes64

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
_SLOT_OF_KEY = {key: slot for slot, key in enumerate(PROPERTY_KEYS, start=1)}
_ABSENT = ["0"] * len(FEATURE_SLOTS)

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
    if value < 0:
        return 0
    return bucket_row_width(value) if slot == "row_width" else value


def _canonical_string(code: int, properties: Mapping[str, object]) -> str:
    """The "v0|v1|...|v12" rendering of a node's feature vector, built
    directly: only the slots present in the property bag are filled, the
    rest keep the absent value 0."""
    parts = _ABSENT.copy()
    parts[0] = str(code)
    for key, raw in properties.items():
        slot = _SLOT_OF_KEY.get(key)
        if slot is not None:
            parts[slot] = str(_slot_value(key, raw))
    return "|".join(parts)


def extract_features(node: PlanNode) -> NodeFeatureVector:
    """Fill the schema slots from the node's property bag (absent -> 0)."""
    rendered = _canonical_string(operator_code(node.operator_name), node.properties)
    return NodeFeatureVector(node.id, tuple(map(int, rendered.split("|"))))


def node_signatures_structured(graphs: Sequence[QDag], fields: np.ndarray) -> list[int]:
    """N(G) of each graph: SimHash over its per-node feature hashes, each
    weighted by the node's depth, from the block's node_fields rows."""
    nodes = [node for graph in graphs for node in graph.nodes]
    hashes = string_hashes64([
        _canonical_string(code, node.properties)
        for code, node in zip(fields[:, 0].tolist(), nodes)
    ])
    depths = fields[:, -1].astype(np.int64)
    return simhash_runs(hashes, [len(graph.nodes) for graph in graphs], depths)
