"""Reference leave-one-out scoring: one two-step match per fold.

score_leave_one_out as it was before it scored folds in blocks: for each
record, a one-probe two-step match against every other row, sorted in
Python, then the report tallied fold by fold. Tests compare the blocked
score_leave_one_out against it.
"""

from __future__ import annotations

import numpy as np

from qdaghash.evaluate import BUCKET_LABELS, DistanceBucket, EvalReport
from qdaghash.index import ComplexityLabel, _Columns


def reference_two_step(columns, probe_edge, probe_node, k, skip):
    """(edge distance, node distance, plan_id, row) of the k rows first by
    (edge, node, plan_id, row), ranked by (node, edge, plan_id), row skip
    left out."""
    edge_d = np.bitwise_count(columns.edge ^ np.uint64(probe_edge))
    edge_d[skip] = 255
    k = min(k, len(edge_d) - 1)
    cut = np.partition(edge_d, k - 1)[k - 1]
    rows = np.flatnonzero(edge_d <= cut)
    node_d = np.bitwise_count(columns.node[rows] ^ np.uint64(probe_node))
    row_list = rows.tolist()
    scored = sorted(
        zip(edge_d[rows].tolist(), node_d.tolist(), [columns.ids[r] for r in row_list], row_list)
    )[:k]
    scored.sort(key=lambda s: (s[1], s[0], s[2]))
    return scored


def _bucket_of(node_distance: int) -> int:
    return next((b for b, upper in enumerate((0, 2, 5, 7)) if node_distance <= upper), 4)


def reference_report(records, k: int) -> EvalReport:
    columns = _Columns.of(records)
    confusion = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    count = [0] * len(BUCKET_LABELS)
    correct = [0] * len(BUCKET_LABELS)
    for i, record in enumerate(records):
        fp = record.fingerprint
        _, node_distance, _, nearest = reference_two_step(
            columns, fp.edge_sig, fp.node_sig, k, skip=i
        )[0]
        predicted, actual = records[nearest].label, record.label
        confusion[actual][predicted] += 1
        bucket = _bucket_of(node_distance)
        count[bucket] += 1
        correct[bucket] += predicted is actual
    simple, medium, complex_ = confusion
    heavy = sum(medium) + sum(complex_)
    s, m, c = ComplexityLabel.SIMPLE, ComplexityLabel.MEDIUM, ComplexityLabel.COMPLEX
    return EvalReport(
        approach=records[0].fingerprint.approach,
        corpus_size=len(records),
        k=k,
        accuracy=sum(confusion[i][i] for i in range(3)) / len(records),
        err_simple_as_heavier=(simple[m] + simple[c]) / sum(simple) if sum(simple) else 0.0,
        err_heavy_as_simple=(medium[s] + complex_[s]) / heavy if heavy else 0.0,
        confusion=tuple(tuple(row) for row in confusion),
        buckets=tuple(
            DistanceBucket(label, count[b], correct[b]) for b, label in enumerate(BUCKET_LABELS)
        ),
    )
