"""Brute-force reference answers the CLI output is checked against.

Written independently of qdaghash.index and qdaghash.evaluate: a full sort
instead of a heap, labels from the runtime thresholds, buckets from the
node-distance bounds. Only the fingerprints come from the program (and
those are checked against the committed golden set).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

LABELS = ("Simple", "Medium", "Complex")
BUCKET_LABELS = ("0", "(0,2]", "(2,5]", "(5,7]", ">7")
_BUCKET_UPPER = (0, 2, 5, 7)


@dataclass(frozen=True)
class Record:
    """One record the benchmark wrote into an index."""

    plan_id: str
    edge: int
    node: int
    runtime: float


def label_index(runtime: float) -> int:
    return 0 if runtime < 5.0 else 1 if runtime < 30.0 else 2


def two_step(
    probe_edge: int, probe_node: int, records: Iterable[Record], k: int
) -> list[tuple[int, int, str, float]]:
    """Top k by (edge, node, plan_id), then ranked by (node, edge, plan_id).

    Returns (edge_distance, node_distance, plan_id, runtime) tuples.
    """
    scored = sorted(
        ((probe_edge ^ r.edge).bit_count(), (probe_node ^ r.node).bit_count(), r.plan_id, r.runtime)
        for r in records
    )
    return sorted(scored[:k], key=lambda s: (s[1], s[0], s[2]))


def match_json(ranked: list[tuple[int, int, str, float]], top: int) -> list[dict]:
    """The `match --json` list the CLI should print."""
    return [
        {
            "plan_id": pid,
            "edge_distance": ed,
            "node_distance": nd,
            "label": LABELS[label_index(rt)],
            "runtime_seconds": rt,
        }
        for ed, nd, pid, rt in ranked[:top]
    ]


def predict_json(probe_id: str, ranked: list[tuple[int, int, str, float]]) -> dict:
    """The `predict --json` object the CLI should print."""
    ed, nd, pid, rt = ranked[0]
    return {
        "plan_id": probe_id,
        "predicted_label": LABELS[label_index(rt)],
        "neighbor": pid,
        "edge_distance": ed,
        "node_distance": nd,
        "neighbor_runtime_seconds": rt,
    }


def _bucket(node_distance: int) -> int:
    for i, upper in enumerate(_BUCKET_UPPER):
        if node_distance <= upper:
            return i
    return len(_BUCKET_UPPER)


def leave_one_out(records: list[Record], k: int) -> dict:
    """Confusion matrix and node-distance buckets of 1-NN leave-one-out."""
    confusion = [[0, 0, 0] for _ in LABELS]
    count = [0] * len(BUCKET_LABELS)
    correct = [0] * len(BUCKET_LABELS)
    for i, held in enumerate(records):
        others = records[:i] + records[i + 1:]
        _, nd, _, rt = two_step(held.edge, held.node, others, k)[0]
        actual, predicted = label_index(held.runtime), label_index(rt)
        confusion[actual][predicted] += 1
        count[_bucket(nd)] += 1
        correct[_bucket(nd)] += predicted == actual
    return {
        "corpus_size": len(records),
        "confusion": confusion,
        "buckets": [
            {"label": label, "count": count[i], "correct": correct[i]}
            for i, label in enumerate(BUCKET_LABELS)
        ],
    }
