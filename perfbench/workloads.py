"""The three workloads as CLI calls over the files perfbench.inputs wrote.

A workload hands out units of calls. A unit is the smallest run that
leaves every check possible: one call of each kind, or one whole ingest
episode. This module imports no qdaghash code, so the process that starts
the calls stays small (see perfbench.inputs).
"""

from __future__ import annotations

import shutil
import statistics
from dataclasses import dataclass, field, replace
from itertools import count
from pathlib import Path
from typing import Iterator

APPROACHES = ("structured", "ngram")
MATCH_K = 10
MATCH_TOP = 5


@dataclass(frozen=True)
class Op:
    """One CLI call: its arguments, the plans it processes, what to check."""

    kind: str
    argv: list[str]
    plans: int
    timed: bool = True
    # What perfbench.checks compares the output against.
    subject: dict = field(default_factory=dict)


def golden_ops(check_dir: Path) -> list[Op]:
    """`fingerprint --json` over the golden check set, once per approach."""
    files = sorted(map(str, check_dir.glob("*.json")))
    return [
        Op("golden", ["fingerprint", "--json", "--approach", a, *files], len(files), timed=False,
           subject={"approach": a})
        for a in APPROACHES
    ]


class Oneshot:
    """`predict`, `match` and `fingerprint` of one probe each, 100k-record index."""

    name = "cli-oneshot-100k"

    def __init__(self, data: Path):
        self.data = data
        self.index = data / "runs.qdx"
        self.probes = sorted((data / "probes").glob("*.json"))

    def _ops(self, i: int, approach: str) -> list[Op]:
        probe, index, k = str(self.probes[i]), str(self.index), str(MATCH_K)
        subject = {"probe": self.probes[i]}
        return [
            Op("predict", ["predict", probe, "--index", index, "--k", k, "--json"], 1,
               subject=subject),
            Op("match", ["match", probe, "--index", index, "--k", k, "--top", str(MATCH_TOP),
                         "--json"], 1, subject=subject),
            Op("fingerprint", ["fingerprint", probe, "--approach", approach, "--json"], 1,
               subject={**subject, "approach": approach}),
        ]

    def warmup(self) -> list[Op]:
        return [replace(op, timed=False) for op in self._ops(len(self.probes) - 1, "structured")]

    def units(self) -> Iterator[list[Op]]:
        for n in count():
            yield self._ops(n % len(self.probes), APPROACHES[n % 2])

    def report(self, by_kind: dict, calls: list) -> dict[str, tuple[float, str]]:
        predict = by_kind["predict"]
        out = {"predict_ms.p50": (predict["wall_ms_p50"], "ms")}
        tail = predict["wall_ms_tail"]
        if tail:
            out["predict_ms.tail"] = (tail["value"], "ms")
            out["predict_ms.tail.percentile"] = (tail["percentile"], "%")
            out["predict_ms.tail.n"] = (tail["n"], "count")
        out["match_ms.p50"] = (by_kind["match"]["wall_ms_p50"], "ms")
        out["fingerprint_ms.p50"] = (by_kind["fingerprint"]["wall_ms_p50"], "ms")
        out["predict_peak_rss_mb"] = (predict["maxrss_mb_p50"], "MB")
        with open(self.data / "records.tsv", "rb") as f:
            records = sum(1 for _ in f)
        out["index_bytes_per_record"] = (self.index.stat().st_size / records, "B")
        return out


class IngestBatch:
    """Episodes of `index add` into two indexes that grow from empty.

    An episode adds every batch to a structured and an ngram index, calls
    alternating between them, then checks both with `index show --json`.
    """

    name = "ingest-batch"

    def __init__(self, data: Path):
        self.batches = [sorted(d.glob("*.json")) for d in sorted(data.glob("batch-*"))]
        self.index_dir = data.parent / "indexes"

    def index(self, approach: str) -> Path:
        return self.index_dir / f"{approach}.qdx"

    def units(self) -> Iterator[list[Op]]:
        while True:
            shutil.rmtree(self.index_dir, ignore_errors=True)
            self.index_dir.mkdir()
            unit = []
            for b, batch in enumerate(self.batches):
                for approach in APPROACHES:
                    index = str(self.index(approach))
                    argv = ["index", "add", *map(str, batch), "--index", index, "--approach", approach]
                    holds = sum(map(len, self.batches[:b + 1]))
                    unit.append(Op(f"add.{approach}", argv, len(batch),
                                   subject={"added": len(batch), "holds": holds, "index": index}))
            added = tuple(p for batch in self.batches for p in batch)
            unit += [
                Op("show", ["index", "show", "--index", str(self.index(a)), "--json"], 0,
                   timed=False, subject={"approach": a, "plans": added})
                for a in APPROACHES
            ]
            yield unit

    def warmup(self) -> list[Op]:
        return []

    def report(self, by_kind: dict, calls: list) -> dict[str, tuple[float, str]]:
        out = {
            f"ingest_plans_per_s.{a}": (by_kind[f"add.{a}"]["plans_per_s"], "plans/s")
            for a in APPROACHES
        }
        adds = [c.wall_ms for c in calls if c.op.kind.startswith("add.") and not c.traced]
        out["index_add_ms.p50"] = (statistics.median(adds), "ms")
        # Taken from the two indexes the last episode left behind.
        records = len(APPROACHES) * sum(map(len, self.batches))
        stored = sum(self.index(a).stat().st_size for a in APPROACHES)
        out["index_bytes_per_record"] = (stored / records, "B")
        return out


class EvalLoo:
    """`eval --json` over a 900-plan corpus, calls alternating approaches."""

    name = "eval-loo"

    def __init__(self, data: Path):
        self.corpus = data / "corpus"
        self.plans = len(list(self.corpus.glob("*.json")))

    def units(self) -> Iterator[list[Op]]:
        while True:
            yield [
                Op(f"eval.{a}", ["eval", str(self.corpus), "--approach", a, "--k", str(MATCH_K),
                                 "--json"], self.plans, subject={"approach": a})
                for a in APPROACHES
            ]

    def warmup(self) -> list[Op]:
        return []

    def report(self, by_kind: dict, calls: list) -> dict[str, tuple[float, str]]:
        return {
            f"eval_plans_per_s.{a}": (by_kind[f"eval.{a}"]["plans_per_s"], "plans/s")
            for a in APPROACHES
        }


WORKLOADS = {w.name: w for w in (Oneshot, IngestBatch, EvalLoo)}
