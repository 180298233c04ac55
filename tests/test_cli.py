"""CLI surface: subcommands, exit codes, and output formats."""

import json
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from conftest import nested_reuse_plan, rewrite_header

from qdaghash import cli, ingest
from qdaghash.cli import main
from qdaghash.fingerprint import Fingerprint128, FingerprintConfig
from qdaghash.index import Index, IndexRecord
from qdaghash.synth import default_spec, generate_corpus

PLAN_TEXT = """-- plan_id: demo
-- runtime_seconds: 3.5
Project [a]
  Filter (x > 5)
    Scan t1
"""


@pytest.fixture
def plan_file(tmp_path):
    path = tmp_path / "demo.plan"
    path.write_text(PLAN_TEXT)
    return path


@pytest.fixture
def corpus_dir(tmp_path):
    out = tmp_path / "corpus"
    generate_corpus(default_spec(seed=11, counts=(5, 5, 5)), out)
    return out


def run_cli(*args):
    return main([str(a) for a in args])


def test_fingerprint_prints_two_hex_words(plan_file, capsys):
    assert run_cli("fingerprint", plan_file) == 0
    out = capsys.readouterr().out
    assert "plan_id=demo" in out
    assert "edge_fp=" in out and "node_fp=" in out
    edge = out.split("edge_fp=")[1].split()[0]
    node = out.split("node_fp=")[1].split()[0]
    assert len(edge) == len(node) == 16
    int(edge, 16), int(node, 16)


def test_both_approaches_share_edge_fp_only(plan_file, capsys):
    run_cli("fingerprint", plan_file, "--approach", "structured", "--json")
    structured = json.loads(capsys.readouterr().out)
    run_cli("fingerprint", plan_file, "--approach", "ngram", "--json")
    ngram = json.loads(capsys.readouterr().out)
    assert structured["edge_fp"] == ngram["edge_fp"]
    assert structured["node_fp"] != ngram["node_fp"]


def test_malformed_file_exits_2_and_names_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run_cli("fingerprint", bad) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "bad.json" in err


def test_json_nested_past_the_recursion_limit_exits_2_and_names_the_file(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    assert run_cli("fingerprint", deep) == 2
    assert "deep.json" in capsys.readouterr().err


# Python reads an int of 4,300 digits, but the power of two it rounds up to
# has 4,301, more than str() renders.
HUGE_ROW_WIDTH = "9" * 4300


@pytest.mark.parametrize("name,text", [
    ("wide.json", '{"plan_id": "wide", "nodes": [{"id": 0, "operator": "Scan", "fact": "Scan t",'
                  f' "properties": {{"row_width": {HUGE_ROW_WIDTH}}}}}], "edges": []}}'),
    ("wide.plan", f"Scan t row_width={HUGE_ROW_WIDTH}\n"),
], ids=["json", "text"])
def test_a_row_width_too_long_to_render_exits_2_and_names_it(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    assert run_cli("fingerprint", path) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: schema violation on field 'row_width': "
        "value has too many digits to render as text\n"
    )
    assert run_cli("fingerprint", path, "--approach", "ngram") == 0


def test_every_plan_command_names_a_plan_refused_while_fingerprinting(tmp_path, capsys):
    ok, wide = tmp_path / "ok.json", tmp_path / "wide.json"
    for path, row_width in ((ok, "64"), (wide, HUGE_ROW_WIDTH)):
        path.write_text(
            f'{{"plan_id": "{path.stem}", "runtime_seconds": 2.0, "nodes": [{{"id": 0,'
            f' "operator": "Scan", "fact": "Scan t", "properties": {{"row_width": {row_width}}}}}],'
            ' "edges": []}'
        )
    index = tmp_path / "runs.qdx"
    assert run_cli("index", "add", ok, "--index", index) == 0
    before = index.read_bytes()
    for argv in (
        ("fingerprint", ok, wide),
        ("index", "add", ok, wide, "--index", index),
        ("match", wide, "--index", index),
        ("predict", wide, "--index", index),
        ("eval", tmp_path),
    ):
        capsys.readouterr()
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == (
            f"error: {wide}: schema violation on field 'row_width': "
            "value has too many digits to render as text\n"
        )
    assert index.read_bytes() == before


def write_scan_plan(path, row_width="64", runtime=2.0):
    runtime_field = "" if runtime is None else f'"runtime_seconds": {runtime}, '
    path.write_text(
        f'{{"plan_id": "{path.stem}", {runtime_field}"nodes": [{{"id": 0, "operator": "Scan",'
        f' "fact": "Scan t", "properties": {{"row_width": {row_width}}}}}], "edges": []}}'
    )
    return path


def test_an_unsupported_plan_file_type_is_named_with_its_path(tmp_path, capsys):
    path = tmp_path / "scan.txt"
    path.write_text("Scan t\n")
    for argv in (("fingerprint", path), ("index", "add", path, "--index", tmp_path / "runs.qdx")):
        assert run_cli(*argv) == 2
        assert capsys.readouterr() == ("", f"error: {path}: unsupported plan file type: scan.txt\n")


def test_a_missing_runtime_is_reported_before_a_fingerprint_refusal(tmp_path, capsys):
    wide = write_scan_plan(tmp_path / "wide.json", row_width=HUGE_ROW_WIDTH, runtime=None)
    for argv in (("index", "add", wide, "--index", tmp_path / "runs.qdx"), ("eval", tmp_path)):
        assert run_cli(*argv) == 2
        assert capsys.readouterr() == (
            "", f"error: {wide}: document 'wide' has no runtime_seconds label\n"
        )


def test_a_batch_prints_the_plans_before_one_refused_while_fingerprinting(tmp_path, capsys):
    # Four files run in one process.
    ok1, ok2, ok3 = (write_scan_plan(tmp_path / f"ok{i}.json", row_width=str(i)) for i in (1, 2, 3))
    bad = write_scan_plan(tmp_path / "bad.json", row_width=HUGE_ROW_WIDTH)
    assert run_cli("fingerprint", ok1, ok2, bad, ok3) == 2
    out, err = capsys.readouterr()
    assert [line.split()[0] for line in out.splitlines()] == ["plan_id=ok1", "plan_id=ok2"]
    assert err == (
        f"error: {bad}: schema violation on field 'row_width': "
        "value has too many digits to render as text\n"
    )


@pytest.mark.parametrize("refused", ["loading", "fingerprinting"])
def test_no_plan_file_is_loaded_twice(tmp_path, monkeypatch, refused):
    loads = Counter()
    load_plan_file = cli.load_plan_file
    for module in (cli, ingest):
        monkeypatch.setattr(module, "load_plan_file",
                            lambda path: loads.update([Path(path).name]) or load_plan_file(path))
    oks = [write_scan_plan(tmp_path / f"ok{i}.json") for i in (1, 2, 3)]
    bad = tmp_path / "bad.json"
    if refused == "loading":
        bad.write_text("{nope")
    else:
        write_scan_plan(bad, row_width=HUGE_ROW_WIDTH)
    assert run_cli("fingerprint", bad) == 2
    assert loads == {"bad.json": 1}
    for argv in (
        ("fingerprint", *oks[:2], bad, oks[2]),
        ("index", "add", *oks[:2], bad, oks[2], "--index", tmp_path / "runs.qdx"),
        ("eval", tmp_path),
    ):
        loads.clear()
        assert run_cli(*argv) == 2
        assert loads["bad.json"] == 1 and max(loads.values()) == 1


def test_index_add_beside_a_lock_path_it_cannot_open_adds_without_the_lock(tmp_path, plan_file):
    index = tmp_path / "runs.qdx"
    (tmp_path / "runs.qdx.lock").mkdir()
    assert run_cli("index", "add", plan_file, "--index", index) == 0
    assert [record.plan_id for record in Index.load(index).records()] == ["demo"]


def test_a_missing_plan_path_exits_2_as_a_missing_corpus_does(tmp_path, plan_file, capsys):
    missing = tmp_path / "missing.json"
    index = tmp_path / "runs.qdx"
    assert run_cli("index", "add", plan_file, "--index", index) == 0
    before = index.read_bytes()
    for argv in (
        ("fingerprint", missing),
        ("index", "add", plan_file, missing, "--index", index),
        ("match", missing, "--index", index),
        ("predict", missing, "--index", index),
        ("eval", missing),
    ):
        capsys.readouterr()
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"error: no such path: {missing}\n"
    assert index.read_bytes() == before
    # A missing index file is still an operational error.
    for command in ("match", "predict"):
        assert run_cli(command, plan_file, "--index", tmp_path / "none.qdx") == 1


@pytest.mark.parametrize("command,flag,value", [
    ("predict", "--k", "0"),
    ("match", "--top", "-1"),
    ("match", "--top", "0"),
])
def test_bad_k_exits_2(tmp_path, corpus_dir, capsys, command, flag, value):
    index_path = tmp_path / "runs.qdx"
    plans = sorted(corpus_dir.glob("*.json"))[:3]
    run_cli("index", "add", *plans, "--index", index_path)
    capsys.readouterr()
    assert run_cli(command, plans[0], "--index", index_path, "--k", "3", flag, value) == 2
    assert "must be >= 1" in capsys.readouterr().err


def test_fingerprint_is_byte_identical_across_processes(plan_file):
    cmd = [sys.executable, "-m", "qdaghash", "fingerprint", str(plan_file)]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.strip()


def test_index_add_show_predict_match_round_trip(tmp_path, corpus_dir, capsys):
    index_path = tmp_path / "runs.qdx"
    plans = sorted(corpus_dir.glob("*.json"))
    assert run_cli("index", "add", *plans[:10], "--index", index_path) == 0
    capsys.readouterr()

    assert run_cli("index", "show", "--index", index_path, "--json") == 0
    shown = json.loads(capsys.readouterr().out)
    assert len(shown["records"]) == 10
    assert shown["header"]["hash_algo"] == "cityhash64"

    probe = plans[0]
    assert run_cli("match", probe, "--index", index_path, "--top", "3", "--json") == 0
    matches = json.loads(capsys.readouterr().out)
    assert len(matches) == 3
    assert matches[0]["edge_distance"] == 0 and matches[0]["node_distance"] == 0

    assert run_cli("predict", probe, "--index", index_path, "--json") == 0
    prediction = json.loads(capsys.readouterr().out)
    assert prediction["neighbor"] == matches[0]["plan_id"]
    assert prediction["predicted_label"] in ("Simple", "Medium", "Complex")


def test_index_approach_mismatch_exits_1(tmp_path, corpus_dir, capsys):
    index_path = tmp_path / "runs.qdx"
    plans = sorted(corpus_dir.glob("*.json"))[:3]
    assert run_cli("index", "add", *plans, "--index", index_path, "--approach", "ngram") == 0
    capsys.readouterr()
    assert run_cli("predict", plans[0], "--index", index_path, "--approach", "structured") == 1
    assert "config mismatch" in capsys.readouterr().err


def test_index_inherits_header_config(tmp_path, corpus_dir, capsys):
    index_path = tmp_path / "runs.qdx"
    plans = sorted(corpus_dir.glob("*.json"))[:3]
    run_cli("index", "add", *plans, "--index", index_path, "--approach", "ngram", "--ngram-n", "4")
    capsys.readouterr()
    # no flags: the header's ngram n=4 config applies and self-match is exact
    assert run_cli("predict", plans[0], "--index", index_path, "--json") == 0
    prediction = json.loads(capsys.readouterr().out)
    assert prediction["node_distance"] == 0


def test_contradicting_ngram_flag_rejected(tmp_path, corpus_dir, capsys):
    index_path = tmp_path / "runs.qdx"
    plans = sorted(corpus_dir.glob("*.json"))[:3]
    run_cli("index", "add", *plans, "--index", index_path, "--approach", "ngram")
    capsys.readouterr()
    assert run_cli("predict", plans[0], "--index", index_path, "--keep-ids") == 1
    assert "config mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("flags,code,field", [
    (["--ngram-n", "4"], 1, "ngram_config"),
    (["--no-normalize"], 1, "ngram_config"),
    (["--ngram-dedupe"], 1, "ngram_config"),
    (["--approach", "structured"], 1, "approach"),
    (["--ngram-n", "3"], 0, None),
    (["--approach", "ngram"], 0, None),
])
def test_flags_checked_against_default_ngram_header(tmp_path, corpus_dir, capsys, flags, code, field):
    index_path = tmp_path / "runs.qdx"
    plans = sorted(corpus_dir.glob("*.json"))[:3]
    run_cli("index", "add", *plans, "--index", index_path, "--approach", "ngram")
    capsys.readouterr()
    assert run_cli("predict", plans[0], "--index", index_path, *flags) == code
    err = capsys.readouterr().err
    if field is None:
        assert err == ""
    else:
        assert f"config mismatch on '{field}'" in err


@pytest.mark.parametrize("n", [None, 5])
@pytest.mark.parametrize("keep_ids", [False, True])
@pytest.mark.parametrize("no_normalize", [False, True])
@pytest.mark.parametrize("dedupe", [False, True])
def test_ngram_stamp_keeps_its_format(plan_file, capsys, n, keep_ids, no_normalize, dedupe):
    flags = [*(["--ngram-n", n] if n else []), *(["--keep-ids"] if keep_ids else []),
             *(["--no-normalize"] if no_normalize else []), *(["--ngram-dedupe"] if dedupe else [])]
    assert run_cli("fingerprint", plan_file, "--approach", "ngram", "--json", *flags) == 0
    stamp = json.loads(capsys.readouterr().out)["node_config"]
    assert stamp == (
        f"n={n or 3},strip_ids={int(not keep_ids)},collapse_ws={int(not no_normalize)},"
        f"lower=0,dedupe={int(dedupe)}"
    )


def test_lowercasing_ngram_index_is_shown_but_refused_at_use(tmp_path, plan_file, capsys):
    index = Index.new(FingerprintConfig("ngram"))
    index.add(IndexRecord("old", Fingerprint128(0xFF, 1, "ngram"), 2.0))
    index_path = tmp_path / "lower.qdx"
    index.save(index_path)
    rewrite_header(index_path, lambda header: header.update(
        ngram_config="n=3,strip_ids=1,collapse_ws=1,lower=1,dedupe=0"
    ))
    before = index_path.read_bytes()
    for command in (["index", "add"], ["match"], ["predict"]):
        assert run_cli(*command, plan_file, "--index", index_path) == 1
        err = capsys.readouterr().err
        assert "config mismatch on 'ngram_config'" in err and "lower=1" in err
    assert index_path.read_bytes() == before

    assert run_cli("index", "show", "--index", index_path) == 0
    out = capsys.readouterr().out
    assert "lower=1" in out and "records: 1" in out and "old" in out


def test_missing_runtime_rejected_on_index_add(tmp_path, capsys):
    plan = tmp_path / "nolabel.plan"
    plan.write_text("Scan t\n")
    assert run_cli("index", "add", plan, "--index", tmp_path / "i.qdx") == 2
    assert "runtime" in capsys.readouterr().err


def test_eval_reports_accuracy(corpus_dir, capsys):
    assert run_cli("eval", corpus_dir, "--k", "5", "--json") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["corpus_size"] == 15
    assert 0.0 <= report["accuracy"] <= 1.0
    assert "err_simple_as_heavier" in report
    assert "err_heavy_as_simple" in report
    assert len(report["confusion"]) == 3


def test_eval_bad_k_exits_2(corpus_dir, capsys):
    assert run_cli("eval", corpus_dir, "--k", "0") == 2
    assert "must be >= 1" in capsys.readouterr().err


def test_eval_of_a_good_corpus_with_a_bad_flag_prints_only_the_error(
    corpus_dir, monkeypatch, capsys
):
    for module in (cli, ingest):
        monkeypatch.setattr(module, "load_plan_file", lambda path: pytest.fail(f"read {path}"))
    assert run_cli("eval", corpus_dir, "--ngram-n", "0") == 2
    assert capsys.readouterr() == ("", "error: n must be >= 1, got 0\n")


def test_eval_with_a_bad_k_reads_no_plan_file(corpus_dir, monkeypatch, capsys):
    for module in (cli, ingest):
        monkeypatch.setattr(module, "load_plan_file", lambda path: pytest.fail(f"read {path}"))
    assert run_cli("eval", corpus_dir, "--k", "0") == 2
    assert capsys.readouterr() == ("", "error: k must be >= 1, got 0\n")
    # The fingerprint flags come first.
    assert run_cli("eval", corpus_dir, "--k", "0", "--ngram-n", "0") == 2
    assert capsys.readouterr() == ("", "error: n must be >= 1, got 0\n")


def test_eval_of_one_plan_file_is_too_small_a_corpus(plan_file, capsys):
    assert run_cli("eval", plan_file) == 2
    assert capsys.readouterr() == ("", "error: corpus of 1 document(s); at least 2 required\n")


def test_eval_skips_a_directory_named_like_a_plan_file(corpus_dir, tmp_path, capsys):
    (corpus_dir / "sub.json").mkdir()
    assert run_cli("eval", corpus_dir, "--json") == 0
    assert json.loads(capsys.readouterr().out)["corpus_size"] == 15
    no_plans = tmp_path / "no-plans"
    (no_plans / "sub.json").mkdir(parents=True)
    assert run_cli("eval", no_plans) == 2
    assert "no .json or .plan files" in capsys.readouterr().err


def test_plan_id_that_is_not_unicode_exits_2_and_keeps_the_index(tmp_path, plan_file, capsys):
    index_path = tmp_path / "runs.qdx"
    assert run_cli("index", "add", plan_file, "--index", index_path) == 0
    before = index_path.read_bytes()
    bad = tmp_path / "surrogate.json"
    bad.write_text(json.dumps({
        "plan_id": "q\ud800", "runtime_seconds": 1.0,
        "nodes": [{"id": 0, "operator": "Scan", "fact": "Scan t"}], "edges": [],
    }))
    capsys.readouterr()
    assert run_cli("index", "add", bad, "--index", index_path) == 2
    err = capsys.readouterr().err
    assert "surrogate.json" in err and "plan_id" in err
    assert index_path.read_bytes() == before
    assert run_cli("fingerprint", bad) == 2
    assert "surrogate.json" in capsys.readouterr().err


def test_runtime_past_the_float_range_exits_2_and_keeps_the_index(tmp_path, plan_file, capsys):
    index_path = tmp_path / "runs.qdx"
    assert run_cli("index", "add", plan_file, "--index", index_path) == 0
    before = index_path.read_bytes()
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({
        "plan_id": "huge", "runtime_seconds": 10**400,
        "nodes": [{"id": 0, "operator": "Scan", "fact": "Scan t"}], "edges": [],
    }))
    capsys.readouterr()
    for argv in (
        ("fingerprint", huge),
        ("predict", huge, "--index", index_path),
        ("index", "add", huge, "--index", index_path),
    ):
        assert run_cli(*argv) == 2
        assert capsys.readouterr() == ("", f"error: {huge}: runtime_seconds must be finite, got inf\n")
        assert index_path.read_bytes() == before


@pytest.mark.parametrize("runtime", ["5", True, [1]])
def test_runtime_that_is_not_a_number_exits_2(tmp_path, capsys, runtime):
    plan = tmp_path / "text.json"
    plan.write_text(json.dumps({
        "plan_id": "text", "runtime_seconds": runtime,
        "nodes": [{"id": 0, "operator": "Scan", "fact": "Scan t"}], "edges": [],
    }))
    for argv in (("fingerprint", plan), ("index", "add", plan, "--index", tmp_path / "runs.qdx")):
        assert run_cli(*argv) == 2
        assert f"{plan}: schema violation on field 'runtime_seconds': must be a number" in (
            capsys.readouterr().err
        )


def test_index_add_into_missing_directory_names_the_index_path(tmp_path, plan_file, capsys):
    index_path = tmp_path / "nodir" / "runs.qdx"
    assert run_cli("index", "add", plan_file, "--index", index_path) == 1
    err = capsys.readouterr().err
    assert str(index_path) in err and ".tmp" not in err
    assert not (tmp_path / "nodir").exists()


def test_nested_reuse_bomb_exits_2_quickly(tmp_path, capsys):
    bomb = tmp_path / "bomb.json"
    bomb.write_text(json.dumps(nested_reuse_plan(30)))  # 61 nodes, 2**31 - 1 expanded
    index_path = tmp_path / "runs.qdx"
    start = time.perf_counter()
    assert run_cli("index", "add", bomb, "--index", index_path) == 2
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert "bomb.json" in err and "reuse expansion" in err
    assert not index_path.exists()


def test_version_1_index_file_exits_1_and_is_kept(tmp_path, plan_file, capsys):
    # the JSON-lines format of the first releases: a header, then one record per line
    index_path = tmp_path / "runs.qdx"
    index_path.write_text(
        '{"version": 1, "hash_algo": "cityhash64", "approach": "structured", '
        '"edge_layout_version": "el1", "feature_schema_version": "fs1"}\n'
        '{"plan_id": "old", "edge_fp": "00000000000000ff", "node_fp": "0000000000000001", '
        '"runtime_seconds": 2.0, "label": "Simple"}\n'
    )
    before = index_path.read_bytes()
    for argv in (
        ("index", "show", "--index", index_path),
        ("predict", plan_file, "--index", index_path),
        ("index", "add", plan_file, "--index", index_path),
    ):
        assert run_cli(*argv) == 1
        assert capsys.readouterr() == (
            "", "error: index file line 1: unsupported index version 1 (expected 2)\n"
        )
        assert index_path.read_bytes() == before


def test_index_add_after_a_load_keeps_rows_and_replaces_in_place(tmp_path, corpus_dir, capsys):
    index_path = tmp_path / "runs.qdx"
    plans = sorted(corpus_dir.glob("*.json"))
    assert run_cli("index", "add", *plans[:6], "--index", index_path) == 0
    first = Index.load(index_path).records()
    rerun = json.loads(plans[2].read_text())
    rerun["runtime_seconds"] = 123.0
    rerun_path = tmp_path / "rerun.json"
    rerun_path.write_text(json.dumps(rerun))

    assert run_cli("index", "add", *plans[6:9], rerun_path, "--index", index_path) == 0
    second = Index.load(index_path).records()
    added = [r.plan_id for r in second[6:]]
    assert [r.plan_id for r in second] == [r.plan_id for r in first] + added
    assert len(added) == 3 and rerun["plan_id"] not in added
    assert second[2].runtime_seconds == 123.0 and second[2].plan_id == rerun["plan_id"]
    assert second[:2] + second[3:6] == first[:2] + first[3:]

    capsys.readouterr()
    assert run_cli("index", "show", "--index", index_path, "--json") == 0
    shown = json.loads(capsys.readouterr().out)["records"]
    assert [r["plan_id"] for r in shown] == sorted(r.plan_id for r in second)

    Index.load(index_path).save(tmp_path / "again.qdx")
    assert (tmp_path / "again.qdx").read_bytes() == index_path.read_bytes()


def test_eval_text_report(corpus_dir, capsys):
    assert run_cli("eval", corpus_dir) == 0
    out = capsys.readouterr().out
    assert "accuracy:" in out
    assert "confusion" in out


def test_gen_writes_deterministic_corpus(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run_cli("gen", out_a, "--seed", "99", "--count", "4") == 0
    assert run_cli("gen", out_b, "--seed", "99", "--count", "4") == 0
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b and len(files_a) == 12
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


@pytest.mark.parametrize("flag,value,message", [
    ("--count", "0", "count must be >= 1"),
    ("--count", "-1", "count must be >= 1"),
    ("--perturbation", "5", "perturbation must be in [0, 1]"),
    ("--perturbation", "-1", "perturbation must be in [0, 1]"),
    ("--perturbation", "1.01", "perturbation must be in [0, 1]"),
    ("--perturbation", "nan", "perturbation must be in [0, 1]"),
])
def test_gen_rejects_senseless_flags_and_writes_nothing(tmp_path, capsys, flag, value, message):
    out = tmp_path / "out"
    assert run_cli("gen", out, flag, value) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rate", ["0", "1"])
def test_gen_accepts_perturbation_bounds(tmp_path, rate):
    assert run_cli("gen", tmp_path / "out", "--count", "1", "--perturbation", rate) == 0
    assert len(list((tmp_path / "out").iterdir())) == 3


@pytest.mark.parametrize("approach", ["structured", "ngram"])
@pytest.mark.parametrize("key", ["num_partitions", "row_width"])
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "-3"])
def test_non_finite_property_reads_as_absent(tmp_path, capsys, approach, key, literal):
    nodes = ('[{"id": 0, "operator": "Scan", "fact": "Scan t"%s}, '
             '{"id": 1, "operator": "Exchange", "fact": "Exchange hashpartitioning(a)"}]')
    plan = '{"plan_id": "p", "runtime_seconds": 2.0, "nodes": %s, "edges": [[0, 1]]}'
    plain, odd = tmp_path / "plain.json", tmp_path / "odd.json"
    plain.write_text(plan % (nodes % ""))
    odd.write_text(plan % (nodes % f', "properties": {{"{key}": {literal}}}'))
    assert run_cli("fingerprint", plain, "--approach", approach, "--json") == 0
    expected = json.loads(capsys.readouterr().out)
    assert run_cli("fingerprint", odd, "--approach", approach, "--json") == 0
    assert json.loads(capsys.readouterr().out) == expected
    assert run_cli("index", "add", odd, "--index", tmp_path / "runs.qdx", "--approach", approach) == 0


def test_non_utf8_index_exits_1(plan_file, tmp_path, capsys):
    index_path = tmp_path / "runs.qdx"
    assert run_cli("index", "add", plan_file, "--index", index_path) == 0
    data = index_path.read_bytes().replace(b'"ops1"', b'"ops\xff"', 1)
    index_path.write_bytes(data)
    capsys.readouterr()
    assert run_cli("index", "show", "--index", index_path) == 1
    at = data.index(b"\xff")
    assert capsys.readouterr().err == f"error: index file line 1: not valid UTF-8 at byte {at}\n"


def test_unreadable_plan_path_exits_nonzero(tmp_path, capsys):
    missing = tmp_path / "ghost.json"
    code = run_cli("fingerprint", missing)
    assert code in (1, 2)
    assert capsys.readouterr().err


def test_concurrent_index_adds_keep_both_sets(tmp_path):
    corpus = tmp_path / "corpus"
    generate_corpus(default_spec(seed=5, counts=(40, 40, 40)), corpus)
    plans = sorted(corpus.glob("*.json"))
    halves = plans[::2], plans[1::2]
    index_path = tmp_path / "runs.qdx"
    writers = [
        subprocess.Popen(
            [sys.executable, "-m", "qdaghash", "index", "add", *map(str, half),
             "--index", str(index_path)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        for half in halves
    ]
    for writer in writers:
        _, err = writer.communicate(timeout=60)
        assert writer.returncode == 0, err
    shown = subprocess.run(
        [sys.executable, "-m", "qdaghash", "index", "show", "--index", str(index_path), "--json"],
        capture_output=True, text=True, check=True,
    )
    stored = {r["plan_id"] for r in json.loads(shown.stdout)["records"]}
    assert stored == {p.stem for p in plans}
