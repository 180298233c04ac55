"""Tests of the benchmark's own parts: reference answers, tail selection,
input determinism, golden data and self-time arithmetic.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from qdaghash.evaluate import eval_leave_one_out
from qdaghash.fingerprint import Fingerprint128, FingerprintConfig, fingerprint_document
from qdaghash.index import Index, IndexRecord
from qdaghash.ingest import Corpus, load_plan_file
from qdaghash.synth import build_corpus, default_spec

from perfbench import inputs, layers, reference, stats
from perfbench.checks import GOLDEN_PATH
from perfbench.reference import Record
from perfbench.workloads import APPROACHES

ROOT = Path(__file__).resolve().parents[2]


def _tied_records(rng: random.Random, n: int) -> list[Record]:
    """Records whose signatures come from a handful of words, so edge and
    node distances tie often and the plan_id tie-break decides."""
    edges = [0, 1, 3, 0xFF, 0xF0F0]
    nodes = [0, 2, 6, 0xF00, 0xFFFF]
    return [
        Record(f"p{rng.randrange(10_000):05d}-{i}", rng.choice(edges), rng.choice(nodes),
               rng.choice([1.0, 12.5, 40.0]))
        for i in range(n)
    ]


@pytest.mark.parametrize("seed", range(20))
def test_reference_ranking_matches_index_match_under_ties(seed):
    rng = random.Random(seed)
    records = _tied_records(rng, rng.randint(1, 60))
    index = Index.new(FingerprintConfig())
    for r in records:
        index.add(IndexRecord.from_runtime(r.plan_id, Fingerprint128(r.edge, r.node, "structured"),
                                           r.runtime))
    probe_edge, probe_node = rng.choice([0, 1, 7]), rng.choice([0, 4, 0xFF])
    for k in (1, 3, 10, 100):
        ranked = reference.two_step(probe_edge, probe_node, records, k)
        got = index.match(Fingerprint128(probe_edge, probe_node, "structured"), k=k)
        assert [(m.edge_distance, m.node_distance, m.plan_id, m.runtime_seconds) for m in got] == ranked
        label, nearest = index.predict(Fingerprint128(probe_edge, probe_node, "structured"), k=k)
        want = reference.predict_json("probe", ranked)
        assert (label.display, nearest.plan_id) == (want["predicted_label"], want["neighbor"])


@pytest.mark.parametrize("approach", APPROACHES)
def test_reference_leave_one_out_matches_eval(approach):
    corpus = build_corpus(default_spec(seed=5, counts=(12, 12, 12), perturbation_rate=0.4))
    config = FingerprintConfig(approach=approach)
    records = []
    for doc in corpus.documents:
        fp = fingerprint_document(doc, config)
        records.append(Record(doc.plan_id, fp.edge_sig, fp.node_sig, doc.runtime_seconds))
    want = reference.leave_one_out(records, k=3)
    report = eval_leave_one_out(Corpus(corpus.documents, "mem"), config, k=3).to_json_obj()
    assert report["confusion"] == want["confusion"]
    assert [{k: b[k] for k in ("label", "count", "correct")} for b in report["buckets"]] == want["buckets"]


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert stats.tail([float(i) for i in range(10)]) is None
    assert stats.tail([5.0] + [float(i) for i in range(10)]) == (0.0, 100 / 11, 11)
    shuffled = [float(i) for i in range(1000)]
    random.Random(3).shuffle(shuffled)
    value, percentile, n = stats.tail(shuffled)
    assert (value, percentile, n) == (989.0, 99.0, 1000)
    assert sum(1 for x in shuffled if x > value) == stats.TAIL_BEYOND
    assert stats.tail([float(i) for i in range(20)]) == (9.0, 50.0, 20)


@pytest.mark.parametrize("writer", [inputs.write_eval, inputs.write_ingest])
def test_same_seed_gives_byte_identical_inputs(tmp_path, writer):
    writer(3, tmp_path / "a")
    writer(3, tmp_path / "b")
    writer(4, tmp_path / "c")
    assert inputs.digest(tmp_path / "a") == inputs.digest(tmp_path / "b")
    assert inputs.digest(tmp_path / "a") != inputs.digest(tmp_path / "c")


def test_ingest_plans_carry_tokens_and_expand_reuse(tmp_path):
    inputs.write_ingest(3, tmp_path)
    plans = sorted(tmp_path.glob("batch-*/*.json"))
    assert len(plans) == inputs.INGEST_BATCHES * inputs.INGEST_BATCH_PLANS
    with_reuse = [p for p in plans if "ReusedExchange" in p.read_text(encoding="utf-8")]
    assert 0 < len(with_reuse) < len(plans)
    doc = load_plan_file(with_reuse[0])
    assert all("location=s3://wh/" in node.fact for node in doc.graph.nodes)
    assert not any(node.operator_name == "ReusedExchange" for node in doc.graph.nodes)


def test_golden_set_matches_the_fingerprints_of_the_check_set():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    docs = inputs.check_set()
    assert len(docs) == 301 and docs[-1].graph.nodes and len(docs[-1].graph.edges) == 120
    for approach in APPROACHES:
        config = FingerprintConfig(approach=approach)
        got = {d.plan_id: "{0.edge_hex} {0.node_hex}".format(fingerprint_document(d, config))
               for d in docs}
        assert got == golden[approach]


def test_self_time_subtracts_children_and_hashing():
    trace = {
        "spans": [
            {"id": "r.0", "parent": None, "name": "cli", "start": 0, "end": 100, "hash_ns": 0,
             "counts": None},
            {"id": "r.1", "parent": "r.0", "name": "cli.main", "start": 10, "end": 90,
             "hash_ns": 0, "counts": None},
            {"id": "r.2", "parent": "r.1", "name": "fingerprint.fingerprint_document",
             "start": 20, "end": 60, "hash_ns": 0, "counts": None},
            {"id": "r.3", "parent": "r.2", "name": "features.node_signature_structured",
             "start": 30, "end": 50, "hash_ns": 5, "counts": {"nodes": 4, "edges": 3}},
        ],
        "cityhash64": {"calls": 2, "ns": 5, "bytes": 8},
    }
    m = layers.layer_metrics([trace], {"fingerprint": ([1.0], [1.0])})
    assert m["cli.main.self_ms"][0] == pytest.approx(40e-6)
    assert m["fingerprint.fingerprint_document.self_ms"][0] == pytest.approx(20e-6)
    assert m["features.node_signature_structured.self_ms"][0] == pytest.approx(15e-6)
    assert m["cityhash.cityhash64.self_ms"][0] == pytest.approx(5e-6)
    assert m["features.node_signature_structured.nodes_per_call"][0] == 4
    assert {e["name"] for e in layers.per_layer_spec()} == set(m)


def test_run_refuses_a_directory_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (bench / "run.py").write_bytes((ROOT / "perfbench" / "run.py").read_bytes())
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "eval-loo", "--seed", "1",
         "--seconds", "1"], capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""


def test_benchmark_json_lists_what_the_code_reports():
    from perfbench.bench import END_TO_END, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert spec["per_layer"] == layers.per_layer_spec()
