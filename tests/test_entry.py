"""Package import and the CLI entry point: lazy exports, the thread default."""

import importlib
import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import qdaghash

ROOT = Path(__file__).resolve().parents[1]

# Runs in a child: records OPENBLAS_NUM_THREADS as numpy is first imported,
# then runs `python -m qdaghash` with the arguments after the script.
ENTRY_PROBE = """
import json, os, runpy, sys

seen = []

class NumpySpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None

sys.meta_path.insert(0, NumpySpy())
sys.argv = ["qdaghash", *sys.argv[1:]]
try:
    runpy.run_module("qdaghash", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "at_numpy_import": seen}))
"""

IMPORT_PROBE = """
import json, os, sys
import qdaghash
before = {"numpy": "numpy" in sys.modules, "env": os.environ.get("OPENBLAS_NUM_THREADS")}
qdaghash.Index
print(json.dumps({**before, "env_after_use": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""


def child_env(openblas: str | None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if openblas is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas
    return env


def run_probe(script: str, *args: str, openblas: str | None = None) -> dict:
    done = subprocess.run([sys.executable, "-c", script, *args], env=child_env(openblas),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_plain_import_loads_no_numpy_and_leaves_the_environment():
    assert run_probe(IMPORT_PROBE) == {"numpy": False, "env": None, "env_after_use": None}


def test_cli_import_leaves_the_evaluator_unloaded():
    # Only `eval` needs qdaghash.evaluate; the one-shot commands skip it.
    script = "import json, sys, qdaghash.cli; print(json.dumps(sorted(sys.modules)))"
    assert "qdaghash.evaluate" not in run_probe(script)


@pytest.mark.parametrize("user_value,expected", [(None, "1"), ("3", "3")])
def test_cli_entry_sets_one_openblas_thread_unless_the_user_chose(
    tmp_path, user_value, expected
):
    plan = tmp_path / "demo.plan"
    plan.write_text("Project [a]\n  Scan t1\n")
    out = run_probe(ENTRY_PROBE, "fingerprint", str(plan), openblas=user_value)
    assert out == {"code": 0, "at_numpy_import": [expected]}


def test_the_cli_runs_under_cprofile(tmp_path):
    # A start-up or teardown shortcut, such as leaving by os._exit, would
    # drop the profile that cProfile writes at exit.
    plan = tmp_path / "demo.plan"
    plan.write_text("Project [a]\n  Scan t1\n")
    profile = tmp_path / "cli.prof"
    command = ["-m", "qdaghash", "fingerprint", str(plan), "--json"]
    plain = subprocess.run([sys.executable, *command], capture_output=True, text=True, timeout=60)
    profiled = subprocess.run([sys.executable, "-m", "cProfile", "-o", str(profile), *command],
                              capture_output=True, text=True, timeout=60)
    assert profiled.returncode == plain.returncode == 0, profiled.stderr
    assert profiled.stdout == plain.stdout and json.loads(profiled.stdout)["edge_fp"]
    assert profile.stat().st_size > 0


def test_console_script_is_the_module_entry_point():
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, name = scripts["qdaghash"].partition(":")
    assert (module, name) == ("qdaghash.__main__", "main")
    assert callable(getattr(importlib.import_module(module), name))


def test_every_export_resolves():
    for name in qdaghash.__all__:
        assert getattr(qdaghash, name) is not None, name
    assert set(qdaghash.__all__) <= set(dir(qdaghash))
    with pytest.raises(AttributeError):
        qdaghash.no_such_name


def test_the_simhash_and_ngrams_attributes_are_the_submodules():
    import qdaghash.ngrams
    import qdaghash.simhash

    for name in qdaghash.__all__:
        getattr(qdaghash, name)
    assert qdaghash.simhash is sys.modules["qdaghash.simhash"]
    assert qdaghash.ngrams is sys.modules["qdaghash.ngrams"]
