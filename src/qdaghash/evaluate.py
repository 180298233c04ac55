"""Leave-one-out evaluation of complexity prediction over a labeled corpus.

For every document, its complexity is predicted by 1-NN over all the
others (the index's two-step match with that document's row left out),
and the prediction is scored against the label derived from its true
runtime. Results aggregate into an accuracy figure, the two directional
error rates, a 3x3 confusion matrix, and an accuracy breakdown by
nearest-neighbor node distance.

Evaluation granularity is per plan document: whatever subgraph a document
carries is the unit that is fingerprinted, matched, and scored.

Folds are scored in blocks by index._two_step, the ranking Index.match
uses, each probe's own row left out. A block holds at most BLOCK_ELEMENTS
probe-row pairs, which bounds its temporaries whatever the corpus size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigMismatch, CorpusTooSmall, MissingRuntime
from .fingerprint import FingerprintConfig, fingerprint_documents
from .index import ComplexityLabel, IndexRecord, _Columns, _classify_column, _two_step, check_k
from .ingest import Corpus

GRANULARITY_NOTE = "per plan document (stage- vs query-level input is the caller's choice)"

# Node-distance buckets for the accuracy breakdown, by their upper bounds.
BUCKET_LABELS = ("0", "(0,2]", "(2,5]", "(5,7]", ">7")
_BUCKET_UPPER = (0, 2, 5, 7)
# Probe-row pairs per block of folds: temporaries stay near 0.5 MB, and 900
# folds take 12-15 ms in 25 blocks, against 27-32 ms in blocks of 4,096 pairs.
BLOCK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class DistanceBucket:
    label: str
    count: int
    correct: int

    @property
    def accuracy(self) -> float | None:
        return self.correct / self.count if self.count else None


@dataclass(frozen=True)
class EvalReport:
    approach: str
    corpus_size: int
    k: int
    accuracy: float
    err_simple_as_heavier: float
    err_heavy_as_simple: float
    confusion: tuple[tuple[int, int, int], ...]  # rows actual, cols predicted
    buckets: tuple[DistanceBucket, ...]

    def to_json_obj(self) -> dict[str, object]:
        return {
            "approach": self.approach,
            "corpus_size": self.corpus_size,
            "k": self.k,
            "accuracy": self.accuracy,
            "err_simple_as_heavier": self.err_simple_as_heavier,
            "err_heavy_as_simple": self.err_heavy_as_simple,
            "confusion": [list(row) for row in self.confusion],
            "buckets": [
                {"label": b.label, "count": b.count, "correct": b.correct, "accuracy": b.accuracy}
                for b in self.buckets
            ],
            "granularity": GRANULARITY_NOTE,
        }


def eval_leave_one_out(
    corpus: Corpus,
    config: FingerprintConfig | None = None,
    k: int = 10,
) -> EvalReport:
    """Score 1-NN complexity prediction by leaving each document out.

    Raises CorpusTooSmall below two documents, then MissingRuntime for the
    first document without a runtime label, before fingerprinting any.
    """
    if len(corpus) < 2:
        raise CorpusTooSmall(len(corpus), 2)
    for doc in corpus.documents:
        if doc.runtime_seconds is None:
            raise MissingRuntime(doc.plan_id)
    records = [
        IndexRecord.from_runtime(*plan) for plan in fingerprint_documents(corpus.documents, config)
    ]
    return score_leave_one_out(records, k)


def score_leave_one_out(records: Sequence[IndexRecord], k: int = 10) -> EvalReport:
    """The leave-one-out report over fingerprinted records of one approach,
    in corpus order.

    Raises CorpusTooSmall below two records, then ValueError for k < 1,
    then ConfigMismatch for the first record whose approach is not the
    first record's.
    """
    if len(records) < 2:
        raise CorpusTooSmall(len(records), 2)
    check_k(k)
    approach = records[0].fingerprint.approach
    for record in records:
        if record.fingerprint.approach != approach:
            raise ConfigMismatch("approach", approach, record.fingerprint.approach)

    # The report does not depend on the order of the folds, and _two_step
    # sorts each block's candidates by plan_id: presorted, that is linear.
    columns = _Columns.of(sorted(records, key=lambda record: record.plan_id))
    total = len(records)
    node_distance = np.empty(total, np.int64)
    nearest = np.empty(total, np.intp)
    step = max(1, BLOCK_ELEMENTS // total)
    for start in range(0, total, step):
        probes = np.arange(start, min(start + step, total))
        _, node_d, rows = _two_step(
            columns, columns.edge[probes], columns.node[probes], k, 1, skip=probes
        )
        node_distance[probes] = node_d[:, 0]
        nearest[probes] = rows[:, 0]

    actual = _classify_column(columns.runtime)
    predicted = actual[nearest]
    # Rows actual, columns predicted; label 0 is SIMPLE.
    confusion = np.bincount(actual * 3 + predicted, minlength=9).reshape(3, 3)
    bucket = np.searchsorted(_BUCKET_UPPER, node_distance)
    bucket_count = np.bincount(bucket, minlength=len(BUCKET_LABELS)).tolist()
    bucket_correct = np.bincount(bucket[actual == predicted], minlength=len(BUCKET_LABELS)).tolist()
    simple_total, heavy_total = int(confusion[0].sum()), int(confusion[1:].sum())
    simple_as_heavier, heavy_as_simple = int(confusion[0, 1:].sum()), int(confusion[1:, 0].sum())

    return EvalReport(
        approach=approach,
        corpus_size=total,
        k=k,
        accuracy=int(confusion.trace()) / total,
        err_simple_as_heavier=simple_as_heavier / simple_total if simple_total else 0.0,
        err_heavy_as_simple=heavy_as_simple / heavy_total if heavy_total else 0.0,
        confusion=tuple(map(tuple, confusion.tolist())),
        buckets=tuple(
            DistanceBucket(label, bucket_count[i], bucket_correct[i])
            for i, label in enumerate(BUCKET_LABELS)
        ),
    )


def render_report_text(report: EvalReport) -> str:
    """Human-readable table with the accuracy and both error rows."""
    labels = [label.display for label in ComplexityLabel]
    lines = [
        f"approach:     {report.approach}",
        f"corpus size:  {report.corpus_size}   (granularity: {GRANULARITY_NOTE})",
        f"k:            {report.k}",
        f"accuracy:                                        {report.accuracy:.4f}",
        f"error (actual Simple, predicted Medium/Complex): {report.err_simple_as_heavier:.4f}",
        f"error (actual Medium/Complex, predicted Simple): {report.err_heavy_as_simple:.4f}",
        "",
        "confusion (rows = actual, columns = predicted):",
        "            " + "".join(f"{name:>9}" for name in labels),
    ]
    for label, row in zip(labels, report.confusion):
        lines.append(f"  {label:<10}" + "".join(f"{n:>9}" for n in row))
    lines.append("")
    lines.append("accuracy by nearest-neighbor node distance:")
    for bucket in report.buckets:
        shown = f"{bucket.accuracy:.4f}" if bucket.accuracy is not None else "n/a"
        lines.append(f"  {bucket.label:<7} {shown:>8}   (n={bucket.count})")
    return "\n".join(lines)


def render_report_json(report: EvalReport) -> str:
    return json.dumps(report.to_json_obj(), indent=2)
