"""Leave-one-out evaluation of complexity prediction over a labeled corpus.

For every document, its complexity is predicted by 1-NN over all the
others (the index's two-step match with that document's row left out),
and the prediction is scored against the label derived from its true
runtime. Results aggregate into an accuracy figure, the two directional
error rates, a 3x3 confusion matrix, and an accuracy breakdown by
nearest-neighbor node distance.

Evaluation granularity is per plan document: whatever subgraph a document
carries is the unit that is fingerprinted, matched, and scored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import CorpusTooSmall, MissingRuntime
from .fingerprint import FingerprintConfig, fingerprint_document
from .index import ComplexityLabel, IndexRecord, _Columns, _two_step
from .ingest import Corpus

GRANULARITY_NOTE = "per plan document (stage- vs query-level input is the caller's choice)"

# Node-distance buckets for the accuracy breakdown.
BUCKET_LABELS = ("0", "(0,2]", "(2,5]", "(5,7]", ">7")


def _bucket_of(node_distance: int) -> int:
    if node_distance == 0:
        return 0
    if node_distance <= 2:
        return 1
    if node_distance <= 5:
        return 2
    if node_distance <= 7:
        return 3
    return 4


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
    granularity: str = GRANULARITY_NOTE

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
            "granularity": self.granularity,
        }

    @classmethod
    def from_json_obj(cls, obj: dict[str, object]) -> "EvalReport":
        return cls(
            approach=str(obj["approach"]),
            corpus_size=int(obj["corpus_size"]),  # type: ignore[arg-type]
            k=int(obj["k"]),  # type: ignore[arg-type]
            accuracy=float(obj["accuracy"]),  # type: ignore[arg-type]
            err_simple_as_heavier=float(obj["err_simple_as_heavier"]),  # type: ignore[arg-type]
            err_heavy_as_simple=float(obj["err_heavy_as_simple"]),  # type: ignore[arg-type]
            confusion=tuple(tuple(row) for row in obj["confusion"]),  # type: ignore[arg-type]
            buckets=tuple(
                DistanceBucket(b["label"], b["count"], b["correct"])  # type: ignore[index]
                for b in obj["buckets"]  # type: ignore[union-attr]
            ),
            granularity=str(obj.get("granularity", GRANULARITY_NOTE)),
        )


def eval_leave_one_out(
    corpus: Corpus,
    config: FingerprintConfig | None = None,
    k: int = 10,
) -> EvalReport:
    """Score 1-NN complexity prediction by leaving each document out."""
    documents = corpus.documents
    if len(documents) < 2:
        raise CorpusTooSmall(len(documents), 2)
    for doc in documents:
        if doc.runtime_seconds is None:
            raise MissingRuntime(doc.plan_id)

    config = config or FingerprintConfig()
    records = [
        IndexRecord.from_runtime(
            doc.plan_id, fingerprint_document(doc, config), doc.runtime_seconds
        )
        for doc in documents
    ]
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    columns = _Columns.of(records)
    confusion = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    bucket_count = [0] * len(BUCKET_LABELS)
    bucket_correct = [0] * len(BUCKET_LABELS)
    for i, record in enumerate(records):
        fp = record.fingerprint
        _, node_distance, _, nearest = _two_step(columns, fp.edge_sig, fp.node_sig, k, skip=i)[0]
        predicted = records[nearest].label
        actual = record.label
        confusion[actual][predicted] += 1
        bucket = _bucket_of(node_distance)
        bucket_count[bucket] += 1
        if predicted is actual:
            bucket_correct[bucket] += 1

    total = len(records)
    correct = sum(confusion[i][i] for i in range(3))
    simple_total = sum(confusion[ComplexityLabel.SIMPLE])
    simple_as_heavier = (
        confusion[ComplexityLabel.SIMPLE][ComplexityLabel.MEDIUM]
        + confusion[ComplexityLabel.SIMPLE][ComplexityLabel.COMPLEX]
    )
    heavy_total = sum(confusion[ComplexityLabel.MEDIUM]) + sum(confusion[ComplexityLabel.COMPLEX])
    heavy_as_simple = (
        confusion[ComplexityLabel.MEDIUM][ComplexityLabel.SIMPLE]
        + confusion[ComplexityLabel.COMPLEX][ComplexityLabel.SIMPLE]
    )

    return EvalReport(
        approach=config.approach,
        corpus_size=total,
        k=k,
        accuracy=correct / total,
        err_simple_as_heavier=simple_as_heavier / simple_total if simple_total else 0.0,
        err_heavy_as_simple=heavy_as_simple / heavy_total if heavy_total else 0.0,
        confusion=tuple(tuple(row) for row in confusion),
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
        f"corpus size:  {report.corpus_size}   (granularity: {report.granularity})",
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
