"""Leave-one-out evaluation: hand-checked corpora, report consistency, and
the blocked scoring against a per-fold reference."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loo_reference import reference_report
from qdaghash import evaluate
from qdaghash.errors import ConfigMismatch, CorpusTooSmall, MissingRuntime
from qdaghash.evaluate import (
    BUCKET_LABELS,
    DistanceBucket,
    EvalReport,
    eval_leave_one_out,
    render_report_text,
    score_leave_one_out,
)
from qdaghash.fingerprint import Fingerprint128, FingerprintConfig, fingerprint_document
from qdaghash.index import ComplexityLabel, IndexRecord, classify_runtime
from qdaghash.ingest import Corpus, PlanDocument
from qdaghash.qdag import PlanNode, QDag


def doc_from_ops(plan_id, runtime, *operators, salt=""):
    nodes = [
        PlanNode(i, op, f"{op} col_{salt}{i}") for i, op in enumerate(operators)
    ]
    edges = [(i, i + 1) for i in range(len(operators) - 1)]
    return PlanDocument(plan_id, runtime, QDag(plan_id, nodes, edges))


def corpus_of(*docs):
    return Corpus(tuple(docs), source_path="memory")


def test_two_identical_plans_with_equal_runtimes_score_perfectly():
    a = doc_from_ops("a", 2.0, "Scan", "Filter", "Project")
    b = doc_from_ops("b", 2.0, "Scan", "Filter", "Project")
    report = eval_leave_one_out(corpus_of(a, b), FingerprintConfig(), k=2)
    assert report.accuracy == 1.0
    assert report.err_simple_as_heavier == 0.0
    assert report.err_heavy_as_simple == 0.0
    assert report.buckets[0].count == 2  # both retrieved at node distance 0


def test_accuracy_is_plain_arithmetic():
    # five twin pairs, one of which straddles the Simple/Medium boundary
    docs = []
    shapes = [
        ("Scan", "Filter"),
        ("Scan", "Project", "Exchange"),
        ("Scan", "HashAggregate", "Exchange", "HashAggregate"),
        ("Scan", "Sort", "SortMergeJoin"),
        ("Scan", "Filter", "Project", "Sort", "Exchange"),
    ]
    runtimes = [(1.0, 1.5), (10.0, 12.0), (40.0, 50.0), (2.0, 2.5), (4.0, 6.0)]
    for i, (shape, (r1, r2)) in enumerate(zip(shapes, runtimes)):
        docs.append(doc_from_ops(f"p{i}a", r1, *shape))
        docs.append(doc_from_ops(f"p{i}b", r2, *shape))
    report = eval_leave_one_out(corpus_of(*docs), FingerprintConfig(), k=3)
    # the 4.0s/6.0s pair predicts across the boundary in both directions
    assert report.accuracy == 8 / 10
    assert report.corpus_size == 10


def test_hand_built_six_plan_confusion_matrix():
    # three structurally distinct twin pairs; each plan's nearest neighbor
    # is its twin. Pair 3 straddles the Simple/Medium boundary, so both of
    # its members are mispredicted, one in each direction.
    docs = [
        doc_from_ops("a1", 2.0, "Scan", "Filter"),
        doc_from_ops("a2", 2.5, "Scan", "Filter"),
        doc_from_ops("b1", 10.0, "Scan", "HashAggregate", "Exchange"),
        doc_from_ops("b2", 12.0, "Scan", "HashAggregate", "Exchange"),
        doc_from_ops("c1", 4.0, "Scan", "Sort", "SortMergeJoin", "Project"),
        doc_from_ops("c2", 6.0, "Scan", "Sort", "SortMergeJoin", "Project"),
    ]
    for approach in ("structured", "ngram"):
        report = eval_leave_one_out(
            corpus_of(*docs), FingerprintConfig(approach=approach), k=3
        )
        assert report.accuracy == pytest.approx(4 / 6)
        s, m, c = ComplexityLabel.SIMPLE, ComplexityLabel.MEDIUM, ComplexityLabel.COMPLEX
        assert report.confusion[s][s] == 2
        assert report.confusion[s][m] == 1  # c1 follows its Medium twin
        assert report.confusion[m][s] == 1  # c2 follows its Simple twin
        assert report.confusion[m][m] == 2
        assert report.confusion[c][c] == 0
        assert report.err_simple_as_heavier == pytest.approx(1 / 3)
        assert report.err_heavy_as_simple == pytest.approx(1 / 3)


def test_missing_runtime_names_the_plan():
    a = doc_from_ops("a", 2.0, "Scan")
    b = doc_from_ops("nolabel", None, "Scan")
    with pytest.raises(MissingRuntime) as exc:
        eval_leave_one_out(corpus_of(a, b), FingerprintConfig())
    assert exc.value.plan_id == "nolabel"


def test_corpus_too_small():
    with pytest.raises(CorpusTooSmall):
        eval_leave_one_out(corpus_of(doc_from_ops("a", 1.0, "Scan")), FingerprintConfig())


@pytest.mark.parametrize("size", [0, 1])
def test_scoring_fewer_than_two_records_is_corpus_too_small(size):
    records = [IndexRecord.from_runtime("a", Fingerprint128(0, 0, "structured"), 1.0)][:size]
    with pytest.raises(CorpusTooSmall, match=f"corpus of {size} document"):
        score_leave_one_out(records)


@pytest.mark.parametrize("first", ["structured", "ngram"])
def test_scoring_records_of_mixed_approaches_is_a_config_mismatch(first):
    other = "ngram" if first == "structured" else "structured"
    records = [
        IndexRecord.from_runtime(f"p{i}", Fingerprint128(i, i, approach), 1.0)
        for i, approach in enumerate((first, other, other))
    ]
    with pytest.raises(ConfigMismatch, match="approach") as exc:
        score_leave_one_out(records)
    assert str(exc.value) == f"config mismatch on 'approach': index has {first!r}, got {other!r}"


SIG_POOL = (0, 0b1011, 0xF0F0, 0xFFFF_FFFF_FFFF_FFFF)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_blocked_scoring_equals_the_per_fold_reference(data):
    # Signatures come from four words, so distance ties are the norm, and
    # plan ids repeat; blocks of as little as one probe-row pair split the
    # corpus anywhere.
    draws = data.draw(st.lists(
        st.tuples(
            st.text(alphabet="abcé", min_size=1, max_size=2),
            st.sampled_from(SIG_POOL),
            st.sampled_from(SIG_POOL),
            st.sampled_from((1.0, 12.0, 40.0)),
        ),
        min_size=2, max_size=30,
    ))
    records = [
        IndexRecord.from_runtime(plan_id, Fingerprint128(edge, node, "structured"), runtime)
        for plan_id, edge, node, runtime in draws
    ]
    k = data.draw(st.integers(1, len(records) + 2))
    block = data.draw(st.integers(1, len(records) ** 2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluate, "BLOCK_ELEMENTS", block)
        assert score_leave_one_out(records, k) == reference_report(records, k)


def test_scoring_memory_does_not_grow_with_the_square_of_the_corpus():
    rng = random.Random(11)
    records = [
        IndexRecord.from_runtime(
            f"p{i}",
            Fingerprint128(rng.getrandbits(64), rng.getrandbits(64), "structured"),
            rng.choice([1.0, 12.0, 40.0]),
        )
        for i in range(3000)
    ]
    tracemalloc.start()
    try:
        score_leave_one_out(records, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20  # one 3000 x 3000 uint64 matrix would be 72 MB


def test_report_internal_consistency_and_document_order_independence():
    rng = random.Random(77)
    from qdaghash.synth import build_corpus, default_spec

    corpus = build_corpus(default_spec(seed=3, counts=(8, 8, 8)))
    report = eval_leave_one_out(corpus, FingerprintConfig(), k=5)

    total = sum(sum(row) for row in report.confusion)
    assert total == report.corpus_size == len(corpus)
    assert report.accuracy == pytest.approx(
        sum(report.confusion[i][i] for i in range(3)) / total
    )
    assert sum(b.count for b in report.buckets) == total

    shuffled_docs = list(corpus.documents)
    rng.shuffle(shuffled_docs)
    shuffled = Corpus(tuple(shuffled_docs), corpus.source_path)
    assert eval_leave_one_out(shuffled, FingerprintConfig(), k=5) == report


def brute_force_report(docs, config, k):
    """The EvalReport of 1-NN leave-one-out, by full sorts fold by fold."""
    fps = [fingerprint_document(doc, config) for doc in docs]
    confusion = [[0, 0, 0] for _ in range(3)]
    count = [0] * len(BUCKET_LABELS)
    correct = [0] * len(BUCKET_LABELS)
    for i, held in enumerate(docs):
        scored = sorted(
            (
                (fps[i].edge_sig ^ fps[j].edge_sig).bit_count(),
                (fps[i].node_sig ^ fps[j].node_sig).bit_count(),
                other.plan_id,
                other.runtime_seconds,
            )
            for j, other in enumerate(docs)
            if j != i
        )[:k]
        _, node_distance, _, runtime = min(scored, key=lambda s: (s[1], s[0], s[2]))
        actual, predicted = classify_runtime(held.runtime_seconds), classify_runtime(runtime)
        confusion[actual][predicted] += 1
        bucket = next((b for b, upper in enumerate((0, 2, 5, 7)) if node_distance <= upper), 4)
        count[bucket] += 1
        correct[bucket] += predicted == actual
    simple, medium, complex_ = confusion
    heavy = sum(medium) + sum(complex_)
    return EvalReport(
        approach=config.approach,
        corpus_size=len(docs),
        k=k,
        accuracy=sum(confusion[i][i] for i in range(3)) / len(docs),
        err_simple_as_heavier=(simple[1] + simple[2]) / sum(simple) if sum(simple) else 0.0,
        err_heavy_as_simple=(medium[0] + complex_[0]) / heavy if heavy else 0.0,
        confusion=tuple(tuple(row) for row in confusion),
        buckets=tuple(
            DistanceBucket(label, count[b], correct[b]) for b, label in enumerate(BUCKET_LABELS)
        ),
    )


@pytest.mark.parametrize("approach", ["structured", "ngram"])
def test_report_equals_brute_force_per_fold_reference(approach):
    # Three shapes and two column salts over 14 plans: fingerprints repeat,
    # so edge and node ties decide most folds, by plan_id.
    rng = random.Random(21)
    shapes = [("Scan", "Filter"), ("Scan", "Filter", "Project"), ("Scan", "Sort", "Exchange")]
    docs = [
        doc_from_ops(f"p{rng.randrange(100):02d}-{i}", rng.choice([1.0, 12.0, 45.0]),
                     *shapes[i % 3], salt=str(i % 2))
        for i in range(14)
    ]
    config = FingerprintConfig(approach=approach)
    for k in (1, 3, len(docs) - 1, len(docs), len(docs) + 5):
        assert eval_leave_one_out(corpus_of(*docs), config, k=k) == brute_force_report(docs, config, k)


def test_text_report_contains_required_rows_and_na_buckets():
    corpus = corpus_of(
        doc_from_ops("a", 2.0, "Scan", "Filter"),
        doc_from_ops("b", 2.0, "Scan", "Filter"),
    )
    report = eval_leave_one_out(corpus, FingerprintConfig(), k=2)
    text = render_report_text(report)
    assert "accuracy:" in text
    assert "actual Simple, predicted Medium/Complex" in text
    assert "actual Medium/Complex, predicted Simple" in text
    assert "n/a" in text  # empty distance buckets render as n/a, not 0
