"""Deterministic benchmark inputs, written as the files the CLI reads.

    python -m perfbench.inputs WORKLOAD SEED OUT_DIR

Every generator is a pure function of the workload seed (the check set is
fixed), so the same seed gives byte-identical files and a parent commit and
a change are measured on the same inputs. Fingerprints and index records
are produced through the public qdaghash API, so a later index-format
change still yields a valid index. Corpora are drawn from SUB_CORPORA
sub-seeds, so that their total size hardly depends on the seed.

Run as a program, it writes one set-up of the workload (its inputs plus the
golden check set) to OUT_DIR and prints the set-up time and the inputs'
digest as JSON. It runs in its own process so that the benchmark process
stays small: a child's ru_maxrss includes its parent's RSS at fork.
"""

from __future__ import annotations

import hashlib
import json
import random
import string
import sys
import time
from dataclasses import replace
from pathlib import Path

from qdaghash.fingerprint import Fingerprint128, FingerprintConfig, fingerprint_document
from qdaghash.index import Index, IndexRecord
from qdaghash.ingest import PlanDocument, render_plan_json
from qdaghash.qdag import PlanNode, QDag
from qdaghash.synth import build_corpus, default_spec

from perfbench.workloads import EvalLoo, IngestBatch, Oneshot

CHECK_SEED = 42
# Each corpus is the union of this many build_corpus draws (3 templates per
# family each); one draw's plan sizes vary by about 11% between seeds.
SUB_CORPORA = 10

ONESHOT_CORPUS_COUNTS = (1000, 1000, 1000)
ONESHOT_RECORDS = 100_000
PROBES_PER_FAMILY = 4

INGEST_BATCHES = 4
INGEST_BATCH_PLANS = 250
# Share of ingest plans that carry a ReusedExchange node.
INGEST_REUSE_SHARE = 0.25
_TOKEN_ALPHABET = string.ascii_letters + string.digits

EVAL_COUNTS = (300, 300, 300)


def _draw_seed(seed: int, draw: int) -> int:
    """Draws 0..SUB_CORPORA-1 make a corpus; draw SUB_CORPORA makes held-out
    probes. Every (seed, draw) pair gets its own build_corpus seed."""
    return seed * (SUB_CORPORA + 1) + draw


def _corpus(seed: int, counts: tuple[int, int, int]) -> list[PlanDocument]:
    """Plans of SUB_CORPORA draws; ids stay unique by a draw suffix."""
    docs = []
    for part in range(SUB_CORPORA):
        share = tuple(c // SUB_CORPORA + (part < c % SUB_CORPORA) for c in counts)
        for doc in build_corpus(default_spec(seed=_draw_seed(seed, part), counts=share)).documents:
            docs.append(replace(doc, plan_id=f"{doc.plan_id}-{part}"))
    return docs


def _write_doc(doc: PlanDocument, path: Path) -> None:
    path.write_text(render_plan_json(doc, indent=2) + "\n", encoding="utf-8")


def perf_graph() -> PlanDocument:
    """The 100-node, 120-edge graph shape of acceptance criterion 10."""
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
    return PlanDocument("perf", None, QDag("perf", nodes, sorted(edges)))


def check_set() -> list[PlanDocument]:
    """Seed-independent golden check set: seed-42 300-plan corpus + perf graph."""
    return [*build_corpus(default_spec(seed=CHECK_SEED)).documents, perf_graph()]


def write_check_set(out: Path) -> None:
    out.mkdir(parents=True)
    for doc in check_set():
        _write_doc(doc, out / f"{doc.plan_id}.json")


def _with_trailing_filter(doc: PlanDocument) -> PlanDocument:
    """doc with one more Filter after its sink: an edge structure that no
    synthetic plan has, so the edge step of a match has to choose."""
    graph = doc.graph
    sources = {u for u, _ in graph.edges}
    sink = max(n.id for n in graph.nodes if n.id not in sources)
    extra = PlanNode(max(n.id for n in graph.nodes) + 1, "Filter", "Filter (c0 > 1)")
    return replace(doc, graph=QDag(graph.id, [*graph.nodes, extra], [*graph.edges, (sink, extra.id)]))


def write_oneshot(seed: int, out: Path) -> None:
    """A 100k-record structured index plus held-out probe plans.

    records.tsv lists what went into the index (plan id, edge and node
    signature, runtime) for the reference ranking. Every other probe gets a
    trailing Filter; the rest share their edge structure with indexed plans.
    """
    out.mkdir(parents=True)
    config = FingerprintConfig(approach="structured")
    index = Index.new(config)
    records = []

    def add(plan_id: str, fp: Fingerprint128, runtime: float) -> None:
        index.add(IndexRecord.from_runtime(plan_id, fp, runtime))
        records.append(f"{plan_id}\t{fp.edge_hex}\t{fp.node_hex}\t{runtime!r}\n")

    for doc in _corpus(seed, ONESHOT_CORPUS_COUNTS):
        add(doc.plan_id, fingerprint_document(doc, config), doc.runtime_seconds)
    rng = random.Random(f"{seed}:records")
    for i in range(ONESHOT_RECORDS - len(records)):
        fp = Fingerprint128(rng.getrandbits(64), rng.getrandbits(64), "structured")
        add(f"rand-{i:06d}", fp, round(rng.uniform(0.0, 300.0), 3))
    index.save(out / "runs.qdx")
    (out / "records.tsv").write_text("".join(records), encoding="utf-8")

    probe_dir = out / "probes"
    probe_dir.mkdir()
    held_out = build_corpus(
        default_spec(seed=_draw_seed(seed, SUB_CORPORA), counts=(PROBES_PER_FAMILY,) * 3)
    )
    for i, doc in enumerate(held_out.documents):
        probe = replace(doc, plan_id=f"probe-{i:02d}", runtime_seconds=None)
        _write_doc(_with_trailing_filter(probe) if i % 2 else probe,
                   probe_dir / f"{probe.plan_id}.json")


def _random_token(rng: random.Random) -> str:
    return "s3://wh/" + "".join(rng.choice(_TOKEN_ALPHABET) for _ in range(24))


def _ingest_plan_obj(doc: PlanDocument, rng: random.Random) -> dict:
    """The doc as JSON, with a high-entropy unknown property on every node
    and, for a share of plans, a ReusedExchange node feeding the sink."""
    obj = json.loads(render_plan_json(doc))
    nodes = obj["nodes"]
    if rng.random() < INGEST_REUSE_SHARE:
        sources = {u for u, _ in obj["edges"]}
        sink = max(n["id"] for n in nodes if n["id"] not in sources)
        reuse_id = max(n["id"] for n in nodes) + 1
        nodes.append({
            "id": reuse_id,
            "operator": "ReusedExchange",
            "fact": "ReusedExchange",
            "properties": {"reuses": (len(nodes) - 1) // 2},
        })
        obj["edges"].append([reuse_id, sink])
    for node in nodes:
        node.setdefault("properties", {})["location"] = _random_token(rng)
    return obj


def write_ingest(seed: int, out: Path) -> None:
    """INGEST_BATCHES batches of fresh plans for `index add`, families mixed."""
    total = INGEST_BATCHES * INGEST_BATCH_PLANS
    per_family = (total - 2 * (total // 3), total // 3, total // 3)
    docs = _corpus(seed, per_family)
    rng = random.Random(f"{seed}:ingest")
    rng.shuffle(docs)
    for b in range(INGEST_BATCHES):
        batch_dir = out / f"batch-{b}"
        batch_dir.mkdir(parents=True)
        for doc in docs[b * INGEST_BATCH_PLANS:(b + 1) * INGEST_BATCH_PLANS]:
            obj = _ingest_plan_obj(doc, rng)
            (batch_dir / f"{doc.plan_id}.json").write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def write_eval(seed: int, out: Path) -> None:
    """A 900-plan labelled corpus (300 per family, templates shared by 10)."""
    corpus = out / "corpus"
    corpus.mkdir(parents=True)
    for doc in _corpus(seed, EVAL_COUNTS):
        _write_doc(doc, corpus / f"{doc.plan_id}.json")


WRITERS = {Oneshot.name: write_oneshot, IngestBatch.name: write_ingest, EvalLoo.name: write_eval}


def digest(root: Path) -> str:
    """sha256 over every file under root: relative path, then contents."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def set_up(workload: str, seed: int, out: Path) -> dict:
    """Write one set-up to out; returns its time and the inputs' digest."""
    start = time.perf_counter()
    WRITERS[workload](seed, out / "workload")
    write_check_set(out / "check")
    elapsed = time.perf_counter() - start
    return {"setup_s": elapsed, "digest": digest(out)}


if __name__ == "__main__":
    workload, seed, out = sys.argv[1:]
    print(json.dumps(set_up(workload, int(seed), Path(out))))
