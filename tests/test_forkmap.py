"""The ordered fork-map, and the batch commands that spread over it.

The worker count is forced by patching forkmap.usable_cpus (and, for the
helper itself, PLANS_PER_WORKER), never by a flag.
"""

import errno
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from qdaghash import cli, forkmap
from qdaghash.cli import main
from qdaghash.errors import EmptyFact, QdagHashError
from qdaghash.evaluate import eval_leave_one_out
from qdaghash.fingerprint import APPROACHES
from qdaghash.ingest import load_corpus
from qdaghash.synth import default_spec, generate_corpus


def use_workers(monkeypatch, n, plans_per_worker=forkmap.PLANS_PER_WORKER):
    monkeypatch.setattr(forkmap, "usable_cpus", lambda: n)
    monkeypatch.setattr(forkmap, "PLANS_PER_WORKER", plans_per_worker)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


# -- the helper --------------------------------------------------------------

def test_worker_count_rule(monkeypatch):
    per = forkmap.PLANS_PER_WORKER
    use_workers(monkeypatch, 2)
    assert [forkmap.worker_count(n) for n in (0, 1, 2 * per - 1, 2 * per, 100 * per)] == [
        1, 1, 1, 2, 2
    ]
    use_workers(monkeypatch, 1)
    assert forkmap.worker_count(100 * per) == 1


def test_no_fork_means_one_cpu(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert forkmap.usable_cpus() == 1


def test_results_come_back_in_input_order(monkeypatch):
    use_workers(monkeypatch, 3, plans_per_worker=1)
    results, done = forkmap.fork_map(lambda xs: [(x * x, os.getpid()) for x in xs], list(range(10)))
    assert done == 10
    assert [square for square, _ in results] == [x * x for x in range(10)]
    pids = [pid for _, pid in results]
    assert len(set(pids)) == 3 and pids[0] == os.getpid()
    assert pids[:3] * 3 + pids[:1] == pids  # item i ran in share i % 3


def test_one_worker_runs_in_process(monkeypatch):
    use_workers(monkeypatch, 1, plans_per_worker=1)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    assert forkmap.fork_map(lambda xs: list(map(str, xs)), list(range(100))) == (
        [str(x) for x in range(100)], 100
    )


def test_an_item_that_raises_ends_the_results_before_it(monkeypatch):
    use_workers(monkeypatch, 2, plans_per_worker=1)
    # One item in the parent's share and one in the worker's; either comes first.
    for bad, done in (((5, 6), 5), ((2, 5), 2)):

        def fn(xs):
            for x in xs:
                if x in bad:
                    raise ValueError(x)
                yield x

        assert forkmap.fork_map(fn, list(range(8))) == (list(range(done)), done)


def test_a_killed_worker_ends_the_results_at_its_first_item(monkeypatch):
    use_workers(monkeypatch, 2, plans_per_worker=1)
    parent = os.getpid()

    def fn(xs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return xs

    assert forkmap.fork_map(fn, list(range(6))) == ([0], 1)


def test_a_share_that_cannot_fork_ends_the_results_at_its_first_item(monkeypatch):
    use_workers(monkeypatch, 3, plans_per_worker=1)

    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert forkmap.fork_map(list, list(range(6))) == ([0], 1)


def test_a_failure_in_the_parent_kills_a_busy_worker(monkeypatch):
    use_workers(monkeypatch, 2, plans_per_worker=1)
    parent = os.getpid()

    def fn(xs):
        if os.getpid() != parent:
            time.sleep(60)
        raise ValueError(xs)

    started = time.monotonic()
    # Nothing before the parent's first item is missing, so no worker result is read.
    assert forkmap.fork_map(fn, list(range(4))) == ([], 0)
    assert time.monotonic() - started < 5
    # The autouse _no_child_left_behind fixture checks that the worker was reaped.


# -- the batch commands ------------------------------------------------------

@pytest.fixture(scope="module")
def corpus42(tmp_path_factory):
    out = tmp_path_factory.mktemp("seed42") / "corpus"
    generate_corpus(default_spec(seed=42), out)  # 300 plans
    return out


@pytest.fixture
def batch150(corpus42, tmp_path):
    """150 plans of all three families, copied so that a test may spoil them."""
    out = tmp_path / "batch"
    out.mkdir()
    for plan in sorted(corpus42.glob("*.json"))[::2]:
        shutil.copy(plan, out / plan.name)
    return out


def edit_plan(path, **changes):
    obj = json.loads(path.read_text())
    for key, value in changes.items():
        if value is None:
            obj.pop(key, None)
        else:
            obj[key] = value
    path.write_text(json.dumps(obj))


def batch_outcomes(capsys, corpus, index, approach="structured"):
    """(exit code, stdout, stderr) of eval, fingerprint and index add over corpus,
    and the index file's sha256 afterwards."""
    plans = sorted(corpus.glob("*.json"))
    index.unlink(missing_ok=True)
    return [
        run(capsys, "eval", corpus, "--approach", approach, "--json"),
        run(capsys, "fingerprint", "--json", "--approach", approach, *plans),
        run(capsys, "index", "add", *plans, "--index", index, "--approach", approach),
        hashlib.sha256(index.read_bytes()).hexdigest() if index.exists() else None,
    ]


@pytest.mark.parametrize("approach", APPROACHES)
def test_output_does_not_depend_on_worker_count(corpus42, tmp_path, monkeypatch, capsys, approach):
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus42, corpus)
    # Replaced within the batch: same plan_id, another runtime, a later name.
    replaced = corpus / "zz-replaced.json"
    shutil.copy(corpus / "scanchain-005.json", replaced)
    edit_plan(replaced, runtime_seconds=99.0)
    # eval refuses a repeated plan_id, so it reads the corpus without the replacement.
    plans = sorted(corpus42.glob("*.json"))
    index = tmp_path / "runs.qdx"

    def outcomes():
        index.unlink(missing_ok=True)
        return [
            run(capsys, "eval", corpus42, "--approach", approach, "--json"),
            run(capsys, "fingerprint", "--json", "--approach", approach, *plans),
            run(capsys, "index", "add", *plans[:200], "--index", index, "--approach", approach),
            run(capsys, "index", "add", *sorted(corpus.glob("*.json"))[150:], "--index", index),
            hashlib.sha256(index.read_bytes()).hexdigest(),
        ]

    use_workers(monkeypatch, 1)
    serial = outcomes()
    assert [outcome[0] for outcome in serial[:4]] == [0, 0, 0, 0]
    assert len(serial[1][1].splitlines()) == 300
    for workers in (2, 3):
        use_workers(monkeypatch, workers)
        assert outcomes() == serial


def test_bad_file_mid_batch_fails_as_in_one_process(batch150, tmp_path, monkeypatch, capsys):
    plans = sorted(batch150.glob("*.json"))
    bad, also_bad = plans[75], plans[120]
    bad.write_text("{not json")
    edit_plan(also_bad, nodes=None)
    index = tmp_path / "runs.qdx"
    assert run(capsys, "index", "add", *plans[:10], "--index", index)[0] == 0
    before = index.read_bytes()

    def outcomes():
        return [
            run(capsys, "index", "add", *plans, "--index", index),
            run(capsys, "eval", batch150),
            run(capsys, "fingerprint", *plans),
        ]

    use_workers(monkeypatch, 1)
    serial = outcomes()
    use_workers(monkeypatch, 2)
    assert outcomes() == serial
    (add_code, _, add_err), (eval_code, _, eval_err), (fp_code, fp_out, fp_err) = serial
    assert add_code == 2 and add_err.startswith(f"error: {bad}: ")
    assert index.read_bytes() == before
    # eval names the first bad file in name order, as index add does.
    assert (eval_code, eval_err) == (2, add_err)
    # A bad flag is refused before the corpus is read.
    assert run(capsys, "eval", batch150, "--ngram-n", "0") == (
        2, "", "error: n must be >= 1, got 0\n"
    )
    assert fp_code == 2 and bad.name in fp_err
    assert [line.split()[0] for line in fp_out.splitlines()] == [
        f"plan_id={plan.stem}" for plan in plans[:75]
    ]


def test_runtime_past_the_float_range_fails_eval_as_in_one_process(
    batch150, tmp_path, monkeypatch, capsys
):
    plans = sorted(batch150.glob("*.json"))
    huge = plans[101]  # in the forked worker's share
    edit_plan(huge, runtime_seconds=10**400)
    use_workers(monkeypatch, 1)
    serial = run(capsys, "eval", batch150)
    use_workers(monkeypatch, 2)
    assert run(capsys, "eval", batch150) == serial
    assert serial == (2, "", f"error: {huge}: runtime_seconds must be finite, got inf\n")
    assert run(capsys, "index", "add", *plans, "--index", tmp_path / "runs.qdx") == serial


def spoil(batch, defect, monkeypatch):
    """Spoil the batch with defect; returns the first refused file and its message."""
    plans = sorted(batch.glob("*.json"))
    if defect == "duplicate_plan_id":
        shutil.copy(plans[10], batch / f"{plans[100].stem}-copy.json")
        plans[120].write_text("{not json")
    if defect in ("missing_runtime", "fingerprint_error_then_missing_runtime"):
        edit_plan(plans[80], runtime_seconds=None)
        edit_plan(plans[120], runtime_seconds=None)
    if defect.startswith("fingerprint_error"):
        fingerprint_documents = cli.fingerprint_documents
        unlucky = {plans[40].stem, plans[60].stem}

        def failing(docs, config):
            for plan in fingerprint_documents(docs, config):
                if plan.plan_id in unlucky:
                    raise EmptyFact(plan.plan_id)
                yield plan

        monkeypatch.setattr(cli, "fingerprint_documents", failing)
        return plans[40], f"fact normalizes to the empty string: {plans[40].stem!r}"
    if defect == "missing_runtime":
        return plans[80], f"document '{plans[80].stem}' has no runtime_seconds label"
    # An unreadable file comes first, although a repeated plan_id comes before it.
    return plans[120], "line 1, column 2: Expecting property name enclosed in double quotes"


@pytest.mark.parametrize("defect", [
    "duplicate_plan_id",
    "missing_runtime",
    "fingerprint_error",
    "fingerprint_error_then_missing_runtime",
])
def test_defect_mid_batch_fails_as_in_one_process(
    batch150, tmp_path, monkeypatch, capsys, defect
):
    refused, message = spoil(batch150, defect, monkeypatch)
    use_workers(monkeypatch, 1)
    serial = batch_outcomes(capsys, batch150, tmp_path / "runs.qdx")
    for workers in (2, 3):
        use_workers(monkeypatch, workers, plans_per_worker=32)
        assert batch_outcomes(capsys, batch150, tmp_path / "runs.qdx") == serial
    (eval_code, _, eval_err), _, (add_code, _, add_err), sha = serial
    assert eval_code == add_code == 2 and sha is None
    assert eval_err == add_err == f"error: {refused}: {message}\n"


def test_eval_of_plans_that_all_load_but_cannot_be_scored_fails_as_the_library(
    batch150, tmp_path, monkeypatch, capsys
):
    plans = sorted(batch150.glob("*.json"))
    shutil.copy(plans[10], batch150 / "zz-copy.json")  # a repeated plan_id
    single = tmp_path / "single"
    single.mkdir()
    shutil.copy(plans[0], single)
    for corpus, expected in (
        (batch150, f"error: plan_id '{plans[10].stem}' appears in more than one file:"
                   f" ['{plans[10].name}', 'zz-copy.json']\n"),
        (single, "error: corpus of 1 document(s); at least 2 required\n"),
    ):
        with pytest.raises(QdagHashError) as library:
            eval_leave_one_out(load_corpus(corpus))
        assert f"error: {library.value}\n" == expected
        for workers in (1, 2):
            use_workers(monkeypatch, workers)
            assert run(capsys, "eval", corpus) == (2, "", expected)


def test_an_eval_refusal_peaks_no_higher_than_the_eval(tmp_path):
    corpus = tmp_path / "corpus"
    generate_corpus(default_spec(seed=42, counts=(500, 500, 500)), corpus)  # gen --count 500
    # On Linux a process's ru_maxrss starts at its parent's RSS at fork, so
    # the CLI runs in a grandchild, forked by a fresh interpreter.
    launch = (
        "import resource, subprocess, sys\n"
        "done = subprocess.run([sys.executable, '-m', 'qdaghash', 'eval', sys.argv[1]],"
        " capture_output=True)\n"
        "print(done.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )

    def exit_code_and_peak():
        done = subprocess.run([sys.executable, "-c", launch, str(corpus)],
                              capture_output=True, text=True, timeout=120, check=True)
        code, kib = map(int, done.stdout.split())
        return code, kib * 1024  # ru_maxrss is in KiB on Linux

    good_code, good_peak = exit_code_and_peak()
    (corpus / "zz-broken.json").write_text("{not json")
    code, peak = exit_code_and_peak()
    assert (good_code, code) == (0, 2)
    # On a 2-core Xeon VM the refusal peaked about 0.5 MiB below the eval's
    # 32.7 MiB. Loading the whole corpus again to word the refusal peaked
    # 12.6 MiB above it.
    assert peak - good_peak <= 2**20, f"the refusal peaked {(peak - good_peak) / 2**20:.1f} MiB higher"


@pytest.mark.parametrize("share", ["parent", "worker"])
def test_no_good_plan_before_a_refused_one_is_loaded_again(
    batch150, tmp_path, monkeypatch, capsys, share
):
    plans = sorted(batch150.glob("*.json"))
    refused = 100 if share == "parent" else 101  # share i % 2 of 2
    plans[refused].write_text("{not json")
    loads = Counter()  # this process's loads only: a worker counts in its own memory
    load_plan_file = cli.load_plan_file
    monkeypatch.setattr(cli, "load_plan_file",
                        lambda path: loads.update([Path(path)]) or load_plan_file(path))
    use_workers(monkeypatch, 2)
    for argv in (
        ("eval", batch150),
        ("fingerprint", *plans),
        ("index", "add", *plans, "--index", tmp_path / "runs.qdx"),
    ):
        loads.clear()
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith(f"error: {plans[refused]}: ")
        # The parent's share up to the refusal, then a rerun from the refused file.
        assert [loads[plan] for plan in plans[:refused]] == [1 - i % 2 for i in range(refused)]
        assert loads[plans[refused]] == (2 if share == "parent" else 1)


def test_a_killed_worker_is_redone_in_the_parent(batch150, tmp_path, monkeypatch, capsys):
    use_workers(monkeypatch, 1)
    serial = batch_outcomes(capsys, batch150, tmp_path / "runs.qdx")
    parent = os.getpid()
    fingerprint_documents = cli.fingerprint_documents
    fingerprinted = []

    def dying(docs, config):
        for plan in fingerprint_documents(docs, config):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            fingerprinted.append(plan.plan_id)  # reached only in the parent
            yield plan

    monkeypatch.setattr(cli, "fingerprint_documents", dying)
    use_workers(monkeypatch, 2)
    assert batch_outcomes(capsys, batch150, tmp_path / "runs.qdx") == serial
    assert serial[0][0] == 0
    # eval, fingerprint, index add: each parent did its own share, then, in
    # its one-process rerun, every plan from the worker's first one on.
    plan_ids = [plan.stem for plan in sorted(batch150.glob("*.json"))]
    assert fingerprinted == (plan_ids[::2] + plan_ids[1:]) * 3


def test_single_plan_commands_never_fork(corpus42, tmp_path, monkeypatch, capsys):
    plan = sorted(corpus42.glob("*.json"))[0]
    index = tmp_path / "runs.qdx"
    assert run(capsys, "index", "add", plan, "--index", index)[0] == 0
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    for argv in (
        ["fingerprint", plan],
        ["match", plan, "--index", index],
        ["predict", plan, "--index", index],
    ):
        assert run(capsys, *argv)[0] == 0
