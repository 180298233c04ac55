"""Correctness checks of CLI output, run after the timed loop.

Probe and plan fingerprints come from the public qdaghash API (and the
fingerprint path itself is held to the committed golden set); everything
built on them is recomputed by perfbench.reference.
"""

from __future__ import annotations

import json
from functools import cache
from pathlib import Path

from qdaghash.fingerprint import FingerprintConfig, fingerprint_document
from qdaghash.ingest import load_corpus, load_plan_file

from perfbench import reference
from perfbench.reference import Record
from perfbench.workloads import MATCH_K, MATCH_TOP, Op

GOLDEN_PATH = Path(__file__).with_name("golden_fingerprints.json")


def _mismatch(what: str, got: object, want: object) -> str | None:
    return None if got == want else f"{what}: got {got!r}, expected {want!r}"


@cache
def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@cache
def _doc(path: Path):
    return load_plan_file(path)


@cache
def _fingerprint(path: Path, approach: str) -> tuple[str, str]:
    fp = fingerprint_document(_doc(path), FingerprintConfig(approach=approach))
    return fp.edge_hex, fp.node_hex


@cache
def _index_records(index: Path) -> list[Record]:
    """What the benchmark wrote into the index, from records.tsv beside it."""
    records = []
    for line in (index.parent / "records.tsv").read_text(encoding="utf-8").splitlines():
        plan_id, edge, node, runtime = line.split("\t")
        records.append(Record(plan_id, int(edge, 16), int(node, 16), float(runtime)))
    return records


@cache
def _ranked(probe: Path, index: Path) -> list[tuple[int, int, str, float]]:
    edge, node = (int(h, 16) for h in _fingerprint(probe, "structured"))
    return reference.two_step(edge, node, _index_records(index), MATCH_K)


def _index_of(op: Op) -> Path:
    return Path(op.argv[op.argv.index("--index") + 1])


def check_golden(op: Op, stdout: str) -> str | None:
    want = _golden()[op.subject["approach"]]
    got = {}
    for line in stdout.splitlines():
        obj = json.loads(line)
        got[obj["plan_id"]] = f"{obj['edge_fp']} {obj['node_fp']}"
    wrong = sorted(pid for pid in set(want) | set(got) if got.get(pid) != want.get(pid))
    return f"{len(wrong)} fingerprints differ from the golden set, e.g. {wrong[:3]}" if wrong else None


def check_predict(op: Op, stdout: str) -> str | None:
    probe = op.subject["probe"]
    want = reference.predict_json(probe.stem, _ranked(probe, _index_of(op)))
    return _mismatch("predict", json.loads(stdout), want)


def check_match(op: Op, stdout: str) -> str | None:
    want = reference.match_json(_ranked(op.subject["probe"], _index_of(op)), MATCH_TOP)
    return _mismatch("match", json.loads(stdout), want)


def check_fingerprint(op: Op, stdout: str) -> str | None:
    obj = json.loads(stdout)
    want = _fingerprint(op.subject["probe"], op.subject["approach"])
    return _mismatch("fingerprint", (obj["edge_fp"], obj["node_fp"]), want)


def check_add(op: Op, stdout: str) -> str | None:
    s = op.subject
    want = f"indexed {s['added']} plan(s); index now holds {s['holds']} record(s) at {s['index']}"
    return _mismatch("index add", stdout.strip(), want)


@cache
def _added(plans: tuple[Path, ...], approach: str) -> dict[str, dict]:
    """The `index show --json` record of each plan added."""
    want = {}
    for path in plans:
        doc = _doc(path)
        edge, node = _fingerprint(path, approach)
        want[doc.plan_id] = {
            "plan_id": doc.plan_id, "edge_fp": edge, "node_fp": node,
            "runtime_seconds": doc.runtime_seconds,
            "label": reference.LABELS[reference.label_index(doc.runtime_seconds)],
        }
    return want


def check_show(op: Op, stdout: str) -> str | None:
    """The index holds exactly the plans added, with their fingerprints."""
    approach = op.subject["approach"]
    obj = json.loads(stdout)
    want = _added(op.subject["plans"], approach)
    got = {r["plan_id"]: r for r in obj["records"]}
    wrong = sorted(pid for pid in set(want) | set(got) if got.get(pid) != want.get(pid))
    if wrong:
        return f"{len(wrong)} records differ from the plans added, e.g. {wrong[:3]}"
    return _mismatch("index show approach", obj["header"]["approach"], approach)


@cache
def _leave_one_out(corpus: Path, approach: str) -> dict:
    config = FingerprintConfig(approach=approach)
    records = []
    for doc in load_corpus(corpus).documents:
        fp = fingerprint_document(doc, config)
        records.append(Record(doc.plan_id, fp.edge_sig, fp.node_sig, doc.runtime_seconds))
    return reference.leave_one_out(records, MATCH_K)


def check_eval(op: Op, stdout: str) -> str | None:
    approach = op.subject["approach"]
    obj = json.loads(stdout)
    want = _leave_one_out(Path(op.argv[1]), approach)
    got = {
        "corpus_size": obj["corpus_size"],
        "confusion": obj["confusion"],
        "buckets": [{k: b[k] for k in ("label", "count", "correct")} for b in obj["buckets"]],
    }
    accuracy = sum(want["confusion"][i][i] for i in range(3)) / want["corpus_size"]
    return (_mismatch("eval", got, want)
            or _mismatch("eval approach", obj["approach"], approach)
            or _mismatch("eval accuracy", obj["accuracy"], accuracy))


CHECKS = {
    "golden": check_golden,
    "predict": check_predict,
    "match": check_match,
    "fingerprint": check_fingerprint,
    "add": check_add,
    "show": check_show,
    "eval": check_eval,
}


def failure(op: Op, stdout: str) -> str | None:
    """Why the output of op is wrong, or None when it is right."""
    return CHECKS[op.kind.split(".")[0]](op, stdout)
