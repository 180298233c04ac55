"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line at its stated
tolerance (run with ``pytest tests/test_acceptance.py -s`` to see them; a
failing criterion shows up as an ordinary pytest failure). Numbers quoted
in the assertions are the pinned tolerances, not tunables.
"""

import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from conftest import permuted, random_dag
from qdaghash.evaluate import eval_leave_one_out
from qdaghash.fingerprint import Fingerprint128, FingerprintConfig, fingerprint_document, fingerprint_graph
from qdaghash.index import ComplexityLabel, Index, IndexRecord, classify_runtime
from qdaghash.qdag import PlanNode, QDag
from qdaghash.simhash import hamming, string_hash64
from qdaghash.synth import build_corpus, default_spec, perturb_one_property, rename_columns
from test_simhash import hamming_oracle, simhash_oracle, tally

GOLDEN_PATH = Path(__file__).parent / "data" / "cityhash_golden.json"

STRUCTURED = FingerprintConfig(approach="structured")
NGRAM = FingerprintConfig(approach="ngram")


def ok(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion}: {message}")


def test_criterion_1_simhash_oracle_equivalence():
    rng = random.Random(1001)
    start = time.perf_counter()
    mismatches = 0
    for call in range(50):
        # Twenty runs per call, weighted and unweighted in turn; the
        # unweighted ones again in a call without weights.
        runs = []
        for trial in range(20):
            n = rng.randint(1, 32)
            hashes = [rng.getrandbits(64) for _ in range(n)]
            runs.append((hashes, [rng.randint(1, 20) for _ in range(n)] if trial % 2 else None))
        expected = [simhash_oracle(hashes, weights) for hashes, weights in runs]
        mismatches += sum(map(int.__ne__, tally(runs), expected))
        mismatches += sum(map(int.__ne__, tally(runs[::2]), expected[::2]))
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    ok(1, f"simhash_runs equals brute-force oracle on 1000 inputs (0 mismatches, {elapsed:.2f}s)")


def test_criterion_2_hamming_oracle_equivalence():
    rng = random.Random(1002)
    pairs = [(rng.getrandbits(64), rng.getrandbits(64)) for _ in range(10_000)]
    start = time.perf_counter()
    mismatches = sum(1 for a, b in pairs if hamming(a, b) != hamming_oracle(a, b))
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    ok(2, f"hamming equals bit-loop oracle on 10000 pairs (0 mismatches, {elapsed:.2f}s)")


def test_criterion_3_permutation_invariance():
    rng = random.Random(1003)
    checked = 0
    for _ in range(50):
        graph = random_dag(rng, rng.randint(5, 100), rng.randint(0, 40))
        base_s = fingerprint_graph(graph, STRUCTURED)
        base_n = fingerprint_graph(graph, NGRAM)
        for _ in range(100):
            shuffled = permuted(graph, rng)
            fp_s = fingerprint_graph(shuffled, STRUCTURED)
            fp_n = fingerprint_graph(shuffled, NGRAM)
            assert fp_s.edge_sig == base_s.edge_sig
            assert fp_s.node_sig == base_s.node_sig
            assert fp_n.node_sig == base_n.node_sig
            checked += 1
    ok(3, f"S(G), N_structured, N_ngram bit-identical over {checked} permutations of 50 QDAGs")


def test_criterion_4_column_name_blindness():
    corpus = build_corpus(default_spec(seed=1004, counts=(34, 34, 34)))
    docs = corpus.documents[:100]
    assert len(docs) == 100
    for i, doc in enumerate(docs):
        renamed = rename_columns(doc, prefix=f"alt{i}_")
        distance = hamming(
            fingerprint_document(doc, STRUCTURED).node_sig,
            fingerprint_document(renamed, STRUCTURED).node_sig,
        )
        assert distance == 0, f"{doc.plan_id}: distance {distance}"
    ok(4, "100 identifier-renamed plan pairs at structured node distance exactly 0")


def test_criterion_5_locality_separation():
    start = time.perf_counter()
    corpus = build_corpus(default_spec(seed=1005, counts=(67, 67, 66)))
    assert len(corpus) == 200
    family_of = {d.plan_id: d.plan_id.rsplit("-", 1)[0] for d in corpus.documents}

    for config, name in ((STRUCTURED, "structured"), (NGRAM, "ngram")):
        node_sig = {
            d.plan_id: fingerprint_document(d, config).node_sig for d in corpus.documents
        }
        perturbed = [
            hamming(
                node_sig[d.plan_id],
                fingerprint_document(perturb_one_property(d, seed=i), config).node_sig,
            )
            for i, d in enumerate(corpus.documents)
        ]
        rng = random.Random(55)
        cross = []
        while len(cross) < 2000:
            a, b = rng.sample(corpus.documents, 2)
            if family_of[a.plan_id] != family_of[b.plan_id]:
                cross.append(hamming(node_sig[a.plan_id], node_sig[b.plan_id]))
        margin = statistics.mean(cross) - statistics.mean(perturbed)
        assert margin >= 8.0, f"{name}: margin {margin:.2f} bits"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    ok(5, f"perturbed-variant distance sits >= 8 bits under cross-family distance, both approaches ({elapsed:.1f}s)")


def _criterion_6_reports():
    corpus = build_corpus(default_spec(seed=1006, counts=(100, 100, 100), perturbation_rate=0.1))
    return {
        name: eval_leave_one_out(corpus, config, k=10)
        for name, config in (("structured", STRUCTURED), ("ngram", NGRAM))
    }


def test_criterion_6_synthetic_leave_one_out():
    start = time.perf_counter()
    reports = _criterion_6_reports()
    elapsed = time.perf_counter() - start
    for name, report in reports.items():
        assert report.corpus_size == 300
        assert report.accuracy >= 0.90, f"{name}: accuracy {report.accuracy:.4f}"
        assert report.err_simple_as_heavier <= 0.10, f"{name}: {report.err_simple_as_heavier:.4f}"
        assert report.err_heavy_as_simple <= 0.10, f"{name}: {report.err_heavy_as_simple:.4f}"
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    accs = ", ".join(f"{n}={r.accuracy:.3f}" for n, r in reports.items())
    ok(6, f"1-NN accuracy >= 0.90 and both error rates <= 0.10 on 300 plans ({accs}; {elapsed:.1f}s)")


def test_criterion_7_boundary_classification():
    got = [classify_runtime(v) for v in (0, 4.999, 5.0, 29.999, 30.0, 1000)]
    expected = [
        ComplexityLabel.SIMPLE,
        ComplexityLabel.SIMPLE,
        ComplexityLabel.MEDIUM,
        ComplexityLabel.MEDIUM,
        ComplexityLabel.COMPLEX,
        ComplexityLabel.COMPLEX,
    ]
    assert got == expected
    ok(7, "runtime boundaries classify as Simple, Simple, Medium, Medium, Complex, Complex")


def test_criterion_8_determinism_and_round_trips(tmp_path):
    # byte-identical fingerprints across two separate processes
    plan = tmp_path / "probe.plan"
    plan.write_text(
        "-- plan_id: probe\n-- runtime_seconds: 7.5\n"
        "Project [a]\n  HashAggregate keys=[a]\n    Exchange hashpartitioning(a) partitions=64\n"
        "      Filter (a#3 > 5)\n        Scan [a:int, b:string]\n"
    )
    runs = [
        subprocess.run(
            [sys.executable, "-m", "qdaghash", "fingerprint", str(plan), "--approach", approach],
            capture_output=True, text=True, check=True,
        ).stdout
        for approach in ("structured", "ngram")
        for _ in range(2)
    ]
    assert runs[0] == runs[1] and runs[2] == runs[3]

    # index save/load round trip is structurally exact
    corpus = build_corpus(default_spec(seed=1008, counts=(5, 5, 5)))
    index = Index.new(STRUCTURED)
    for doc in corpus.documents:
        index.add(IndexRecord.from_runtime(
            doc.plan_id, fingerprint_document(doc, STRUCTURED), doc.runtime_seconds
        ))
    path = tmp_path / "round.qdx"
    index.save(path)
    loaded = Index.load(path)
    assert loaded.header == index.header
    assert sorted(loaded.records(), key=lambda r: r.plan_id) == \
        sorted(index.records(), key=lambda r: r.plan_id)

    # golden hash vectors match the committed digests
    vectors = json.loads(GOLDEN_PATH.read_text())
    assert len(vectors) == 20
    for vec in vectors:
        assert f"{string_hash64(vec['input']):016x}" == vec["hash"]
    ok(8, "process-level determinism, exact index round trip, 20/20 golden vectors")


def test_criterion_9_distance_bucket_trend():
    reports = _criterion_6_reports()
    for name, report in reports.items():
        zero = report.buckets[0]
        beyond7 = report.buckets[-1]
        assert zero.label == "0" and beyond7.label == ">7"
        if zero.count and beyond7.count:
            assert zero.accuracy >= beyond7.accuracy, (
                f"{name}: {zero.accuracy:.3f} < {beyond7.accuracy:.3f}"
            )
    shown = "; ".join(
        f"{n}: d0={r.buckets[0].accuracy}, d>7="
        + (f"{r.buckets[-1].accuracy}" if r.buckets[-1].count else "n/a")
        for n, r in reports.items()
    )
    ok(9, f"accuracy at node distance 0 >= accuracy beyond 7 ({shown})")


def _performance_graph() -> QDag:
    rng = random.Random(1010)
    operators = ("Scan", "Filter", "Project", "Exchange", "HashAggregate", "SortMergeJoin", "Sort")
    nodes = []
    for i in range(100):
        op = operators[i % len(operators)]
        fact = (
            f"{op} [c{i % 7}:int, c{(i + 1) % 7}:string, c{(i + 2) % 7}:double] "
            f"num_partitions={8 << (i % 5)} (c{i % 4} > {i * 37 % 997})"
        )
        nodes.append(PlanNode(i, op, fact, {"num_partitions": 8 << (i % 5)}))
    edges = {(i, i + 1) for i in range(99)}
    while len(edges) < 120:
        a, b = sorted(rng.sample(range(100), 2))
        edges.add((a, b))
    return QDag("perf", nodes, sorted(edges))


def test_criterion_10_performance():
    graph = _performance_graph()
    assert len(graph.nodes) == 100 and len(graph.edges) == 120

    timings = {}
    for name, config in (("structured", STRUCTURED), ("ngram", NGRAM)):
        samples = []
        for _ in range(5):
            start = time.perf_counter()
            fingerprint_graph(graph, config)
            samples.append((time.perf_counter() - start) * 1000)
        timings[name] = statistics.median(samples)
        assert timings[name] < 10.0, f"{name}: {timings[name]:.2f}ms"

    rng = random.Random(1011)
    index = Index.new(STRUCTURED)
    for i in range(10_000):
        fp = Fingerprint128(rng.getrandbits(64), rng.getrandbits(64), "structured")
        index.add(IndexRecord.from_runtime(f"p{i:05d}", fp, rng.uniform(0, 100)))
    probe = Fingerprint128(rng.getrandbits(64), rng.getrandbits(64), "structured")
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        index.match(probe, k=10)
        samples.append((time.perf_counter() - start) * 1000)
    match_ms = statistics.median(samples)
    assert match_ms < 50.0, f"match: {match_ms:.2f}ms"
    ok(
        10,
        f"fingerprint 100n/120e: structured {timings['structured']:.2f}ms, "
        f"ngram {timings['ngram']:.2f}ms (< 10ms); match vs 10k records {match_ms:.2f}ms (< 50ms)",
    )
