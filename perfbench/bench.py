"""Set-up, the closed measurement loop, checks, metrics and the report.

This process imports no qdaghash or numpy code until every CLI child has
ended: on Linux a child's ru_maxrss includes its parent's RSS at fork, so
a large parent would inflate every peak-RSS figure. Set-up therefore runs
in its own child (perfbench.inputs), call output and spans wait on disk,
and perfbench.checks is imported only after the loop.

Host speed on a shared machine drifts over tens of seconds, so the
SETUP_REPEATS set-ups are spread over the run (before the loop, half-way
through it and after it) rather than run back to back.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib.metadata import version
from pathlib import Path

from perfbench import layers, stats
from perfbench.workloads import WORKLOADS, Op, golden_ops

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED_CLI = Path(__file__).with_name("traced_cli.py")
WORK_ROOT = Path(__file__).with_name("_work")
RESULTS_DIR = Path(__file__).with_name("results")

SETUP_REPEATS = 3
# A call still running after this long is killed and counts as failed.
CALL_TIMEOUT_S = 150
END_TO_END = ("setup_s", "plans_per_s", "peak_rss_mb")

@dataclass
class Call:
    """One finished CLI child: what ran and what os.wait4 reported."""

    n: int
    op: Op
    traced: bool
    wall_ms: float
    cpu_ms: float
    maxrss_mb: float
    minflt: int
    exit_code: int
    failure: str | None = None

    def record(self) -> dict:
        return {
            "kind": self.op.kind, "traced": self.traced, "timed": self.op.timed,
            "plans": self.op.plans, "wall_ms": self.wall_ms, "cpu_ms": self.cpu_ms,
            "maxrss_mb": self.maxrss_mb, "minflt": self.minflt, "exit": self.exit_code,
            "failure": self.failure,
        }


class Runner:
    """Starts one child at a time and waits for it to end.

    Call n leaves its stdout, stderr and (traced) spans in the work
    directory as n.out, n.err and n.spans.json.
    """

    def __init__(self, work: Path):
        self.work = work
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(SRC), str(ROOT)))}
        self.started = 0

    def path(self, n: int | str, suffix: str) -> Path:
        return self.work / f"{n}.{suffix}"

    def spawn(self, cmd: list[str], n: int | str) -> tuple[float, int, os.struct_rusage]:
        with open(self.path(n, "out"), "wb") as out, open(self.path(n, "err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            exit_code, usage = _wait(proc)
            return (time.perf_counter() - start) * 1000, exit_code, usage

    def execute(self, op: Op, traced: bool) -> Call:
        self.started += 1
        n = self.started
        if traced:
            cmd = [sys.executable, str(TRACED_CLI), str(self.path(n, "spans.json")), f"c{n}", "--",
                   *op.argv]
        else:
            cmd = [sys.executable, "-m", "qdaghash", *op.argv]
        wall_ms, exit_code, usage = self.spawn(cmd, n)
        return Call(
            n, op, traced, wall_ms,
            cpu_ms=(usage.ru_utime + usage.ru_stime) * 1000,
            maxrss_mb=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
            minflt=usage.ru_minflt,
            exit_code=exit_code,
        )

    def read(self, n: int | str, suffix: str) -> str:
        return self.path(n, suffix).read_text(encoding="utf-8", errors="replace")


def _wait(proc: subprocess.Popen) -> tuple[int, os.struct_rusage]:
    """Reap proc with its rusage; kill it if it outlives CALL_TIMEOUT_S."""
    timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


class SetUps:
    """The run's set-ups, each written by a perfbench.inputs child.

    The first copy is the one the calls use; later copies only give more
    samples of setup_s and of the inputs' digest, and are deleted.
    """

    def __init__(self, runner: Runner, name: str, seed: int, work: Path):
        self.runner, self.name, self.seed, self.work = runner, name, seed, work
        self.reports: list[dict] = []
        self.first = self.next()

    def next(self) -> Path:
        i = len(self.reports)
        out = self.work / f"setup-{i}"
        cmd = [sys.executable, "-m", "perfbench.inputs", self.name, str(self.seed), str(out)]
        tag = f"setup-{i}"
        _, exit_code, _ = self.runner.spawn(cmd, tag)
        if exit_code != 0:
            raise RuntimeError(f"set-up failed (exit {exit_code}): "
                               f"{self.runner.read(tag, 'err')[-2000:]}")
        self.reports.append(json.loads(self.runner.read(tag, "out")))
        if i:
            shutil.rmtree(out)
        return out


def _measure(workload, runner: Runner, setups: SetUps, seconds: float, trace: bool) -> list[Call]:
    """Whole units until `seconds` have passed, with one set-up half-way (not
    counted in the seconds). With trace, units alternate between traced and
    plain calls (at least one of each)."""
    calls = []
    start = time.monotonic()
    halfway, deadline = start + seconds / 2, start + seconds
    for n, unit in enumerate(workload.units()):
        traced = trace and n % 2 == 0
        calls += [runner.execute(op, traced and op.timed) for op in unit]
        if len(setups.reports) < SETUP_REPEATS - 1 and time.monotonic() >= halfway:
            paused = time.monotonic()
            setups.next()
            deadline += time.monotonic() - paused
        if time.monotonic() >= deadline and n >= int(trace):
            break
    while len(setups.reports) < SETUP_REPEATS:
        setups.next()
    return calls


def _failure(runner: Runner, call: Call) -> str | None:
    from perfbench import checks  # only after the loop; see the module docstring

    if call.exit_code != 0:
        return f"{call.op.kind}: exit {call.exit_code}: {runner.read(call.n, 'err').strip()[-300:]}"
    try:
        problem = checks.failure(call.op, runner.read(call.n, "out"))
    except Exception as exc:  # a malformed output is a failed check, not a crash
        problem = f"unreadable output ({exc!r})"
    return f"{call.op.kind}: {problem[:300]}" if problem else None


def _by_kind(calls: list[Call]) -> dict[str, dict]:
    """Per kind of timed plain call: sample count, medians and the tail."""
    kinds: dict[str, list[Call]] = {}
    for c in calls:
        if c.op.timed and not c.traced:
            kinds.setdefault(c.op.kind, []).append(c)
    summary = {}
    for kind, group in kinds.items():
        walls = [c.wall_ms for c in group]
        tail = stats.tail(walls)
        summary[kind] = {
            "n": len(group),
            "wall_ms_p50": statistics.median(walls),
            "wall_ms_tail": tail and {"value": tail[0], "percentile": tail[1], "n": tail[2]},
            "cpu_ms_p50": statistics.median(c.cpu_ms for c in group),
            "maxrss_mb_p50": statistics.median(c.maxrss_mb for c in group),
            "minflt_p50": statistics.median(c.minflt for c in group),
            "plans_per_s": sum(c.op.plans for c in group) / sum(walls) * 1000,
        }
    return summary


def _end_to_end(calls: list[Call], by_kind: dict, setup_s: list[float]) -> dict:
    timed = [c for c in calls if c.op.timed and not c.traced]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "plans_per_s": (sum(c.op.plans for c in timed) / sum(c.wall_ms for c in timed) * 1000,
                        "plans/s"),
        "peak_rss_mb": (max(k["maxrss_mb_p50"] for k in by_kind.values()), "MB"),
    }


def _layer_metrics(runner: Runner, calls: list[Call]) -> tuple[dict, list[str]]:
    traces, missing = [], set()
    walls: dict[str, tuple[list, list]] = {}
    for c in calls:
        if not c.op.timed:
            continue
        walls.setdefault(c.op.kind, ([], []))[0 if c.traced else 1].append(c.wall_ms)
        if c.traced and c.exit_code == 0:
            trace = json.loads(runner.read(c.n, "spans.json"))
            missing.update(trace["missing"])
            traces.append(trace)
    return layers.layer_metrics(traces, walls), sorted(missing)


def _metadata(name: str, seed: int, seconds: float, trace: bool, digest: str) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "git_commit": commit, "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
        "python": platform.python_version(), "numpy": version("numpy"),
        "inputs_sha256": digest,
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    work = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "calls").mkdir(parents=True)
    try:
        return _run(name, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(name: str, seed: int, seconds: float, trace: bool, work: Path) -> int:
    runner = Runner(work / "calls")
    setups = SetUps(runner, name, seed, work)
    workload = WORKLOADS[name](setups.first / "workload")
    # The golden check also warms the page cache and compiled bytecode.
    warmup = golden_ops(setups.first / "check") + workload.warmup()
    calls = [runner.execute(op, False) for op in warmup]
    calls += _measure(workload, runner, setups, seconds, trace)
    setup_s = [r["setup_s"] for r in setups.reports]
    digests = [r["digest"] for r in setups.reports]

    for call in calls:
        call.failure = _failure(runner, call)
    failures = [c.failure for c in calls if c.failure]
    if len(set(digests)) != 1:
        failures.append(f"set-ups of seed {seed} wrote different inputs: {digests}")
    attempted = len(calls) + 1  # the calls, plus the set-up determinism check

    by_kind = _by_kind(calls)
    report = {
        "fail_ratio": (len(failures) / attempted, "ratio"),
        **_end_to_end(calls, by_kind, setup_s),
        **workload.report(by_kind, calls),
    }
    missing: list[str] = []
    if trace:
        metrics, missing = _layer_metrics(runner, calls)
        report.update(metrics)
    else:
        metrics = {m: report[m] for m in END_TO_END}

    meta = _metadata(name, seed, seconds, trace, digests[0])
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    detail = RESULTS_DIR / f"{name}-seed{seed}-trace{int(trace)}.json"
    detail.write_text(json.dumps({
        "meta": meta, "result": result, "report": report, "setup_s": setup_s,
        "by_kind": by_kind, "failures": failures, "untraced_layers": missing,
        "calls": [c.record() for c in calls],
    }, indent=1), encoding="utf-8")

    print(f"meta {json.dumps(meta)}")
    for kind, s in by_kind.items():
        tail = s["wall_ms_tail"]
        shown = f"p{tail['percentile']:.1f}={tail['value']:.1f} ms" if tail else "tail n/a (n<=10)"
        print(f"calls {kind}: n={s['n']} wall p50={s['wall_ms_p50']:.1f} ms {shown} "
              f"cpu p50={s['cpu_ms_p50']:.1f} ms rss p50={s['maxrss_mb_p50']:.1f} MB "
              f"minflt p50={s['minflt_p50']:.0f}")
    for metric, (value, unit) in report.items():
        print(f"metric {metric} = {value:.6g} {unit}")
    if missing:
        print(f"untraced (not found): {', '.join(missing)}")
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"detail {detail.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if not failures else 1
