"""Runtime classification, two-step matching, prediction, persistence."""

import contextlib
import dataclasses
import errno
import io
import itertools
import json
import math
import os
import struct
import sys
import tempfile
import threading
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from conftest import save_v1
from index_reference import reference_ids
from hypothesis import given, settings
from hypothesis import strategies as st

import qdaghash.index as index_module
from qdaghash.cli import main
from qdaghash.errors import (
    ConfigMismatch,
    EmptyIndex,
    IndexFormatError,
    InputError,
    NegativeRuntime,
    NonFiniteRuntime,
    SchemaViolation,
)
from qdaghash.fingerprint import Fingerprint128, FingerprintConfig
from qdaghash.index import (
    ComplexityLabel,
    Index,
    IndexHeader,
    IndexRecord,
    MatchResult,
    classify_runtime,
    require_compatible,
)
from qdaghash.ingest import PlanDocument
from qdaghash.qdag import PlanNode, QDag


def fp(edge, node, approach="structured"):
    return Fingerprint128(edge, node, approach)


def record(plan_id, edge, node, runtime, approach="structured"):
    return IndexRecord.from_runtime(plan_id, fp(edge, node, approach), runtime)


# -- classify_runtime -----------------------------------------------------------

def test_band_examples():
    assert classify_runtime(4.9) is ComplexityLabel.SIMPLE
    assert classify_runtime(17.0) is ComplexityLabel.MEDIUM
    assert classify_runtime(31.0) is ComplexityLabel.COMPLEX


def test_boundaries_assign_upward():
    assert classify_runtime(5.0) is ComplexityLabel.MEDIUM
    assert classify_runtime(30.0) is ComplexityLabel.COMPLEX


def test_invalid_runtimes():
    with pytest.raises(NegativeRuntime):
        classify_runtime(-0.1)
    with pytest.raises(NonFiniteRuntime):
        classify_runtime(float("nan"))
    with pytest.raises(NonFiniteRuntime):
        classify_runtime(float("inf"))


def test_labels_are_totally_ordered():
    assert ComplexityLabel.SIMPLE < ComplexityLabel.MEDIUM < ComplexityLabel.COMPLEX


def test_classification_is_monotone():
    previous = ComplexityLabel.SIMPLE
    for runtime in (0.0, 1.0, 4.999, 5.0, 15.0, 29.999, 30.0, 100.0, 1e6):
        label = classify_runtime(runtime)
        assert label >= previous
        previous = label


def test_record_label_is_classify_runtime_of_its_float_runtime():
    for runtime in (0, 4.999, 5, 29.999, 30, 10**6, 2**53 + 1):
        stored = record("p", 0, 0, runtime)
        assert type(stored.runtime_seconds) is float
        assert stored.runtime_seconds == float(runtime)
        assert stored.label is classify_runtime(runtime)
    with pytest.raises(TypeError):  # a record holds no label of its own
        IndexRecord("p", fp(0, 0), 1.0, ComplexityLabel.COMPLEX)


@pytest.mark.parametrize("runtime", ["5", b"7", True, False, "abc", [1.0], 2j, np.int64(3)])
def test_a_runtime_that_is_not_a_number_is_refused(runtime):
    graph = QDag("p", [PlanNode(0, "Scan", "Scan t")])
    for make in (
        lambda: IndexRecord.from_runtime("p", fp(0, 0), runtime),
        lambda: PlanDocument("p", runtime, graph),
        lambda: classify_runtime(runtime),
    ):
        with pytest.raises(SchemaViolation, match="'runtime_seconds': must be a number"):
            make()
    with pytest.raises(SchemaViolation):
        IndexRecord.from_runtime("p", fp(0, 0), None)


def test_an_int_a_float_and_a_numpy_float_are_runtimes():
    graph = QDag("p", [PlanNode(0, "Scan", "Scan t")])
    for runtime in (7, 7.0, np.float64(7.0)):
        for stored in (
            IndexRecord.from_runtime("p", fp(0, 0), runtime).runtime_seconds,
            PlanDocument("p", runtime, graph).runtime_seconds,
        ):
            assert type(stored) is float and stored == 7.0


# Plan ids with the empty string, lone surrogates, NUL and non-BMP characters.
CONTRACT_PLAN_IDS = st.one_of(
    st.just(""),
    st.lists(
        st.one_of(
            st.characters(exclude_categories=()),
            st.sampled_from(["\ud800", "\udbff", "\udc00", "\udfff", "\0", "\U0001f600"]),
        ),
        max_size=6,
    ).map("".join),
)
# Runtimes as floats (NaN, infinities and negatives included) and as ints up
# to 10**400, far past the float range.
CONTRACT_RUNTIMES = st.one_of(
    st.floats(),
    st.integers(-(10**400), 10**400),
    st.sampled_from([2**1024 - 1, 2**1024, -(2**1024), 10**400, -(10**400)]),
)


@settings(max_examples=300, deadline=None)
@given(CONTRACT_PLAN_IDS, st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), CONTRACT_RUNTIMES)
def test_a_record_is_refused_with_a_typed_error_or_round_trips(plan_id, edge, node, runtime):
    try:
        stored = IndexRecord.from_runtime(plan_id, fp(edge, node), runtime)
    except InputError:
        return
    index = Index.new(FingerprintConfig())
    index.add(stored)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "idx.qdx"
        index.save(path)
        loaded = Index.load(path)
    assert loaded.records() == [stored]


# -- add ---------------------------------------------------------------------------

def test_add_and_replace():
    index = Index.new(FingerprintConfig())
    index.add(record("q1", 1, 2, 1.0))
    assert len(index) == 1
    index.add(record("q1", 1, 2, 50.0))
    assert len(index) == 1
    assert index.records()[0].label is ComplexityLabel.COMPLEX


def test_approach_mismatch_rejected():
    index = Index.new(FingerprintConfig(approach="structured"))
    with pytest.raises(ConfigMismatch):
        index.add(record("q1", 1, 2, 1.0, approach="ngram"))


def test_probe_approach_mismatch_rejected():
    index = Index.new(FingerprintConfig(approach="structured"))
    index.add(record("q1", 1, 2, 1.0))
    with pytest.raises(ConfigMismatch):
        index.match(fp(1, 2, approach="ngram"), k=1)


# -- match --------------------------------------------------------------------------

def five_record_index():
    """Hand-computed distances against probe (edge=0b1111, node=0b0011).

    plan  edge_sig  node_sig  edge_dist  node_dist
    a     0b1111    0b0011    0          0
    b     0b1110    0b0111    1          1
    c     0b1100    0b0011    2          0
    d     0b0000    0b1111    4          2
    e     0b1000    0b0011    3          0
    """
    index = Index.new(FingerprintConfig())
    index.add(record("a", 0b1111, 0b0011, 1.0))
    index.add(record("b", 0b1110, 0b0111, 10.0))
    index.add(record("c", 0b1100, 0b0011, 40.0))
    index.add(record("d", 0b0000, 0b1111, 2.0))
    index.add(record("e", 0b1000, 0b0011, 3.0))
    return index


def probe():
    return fp(0b1111, 0b0011)


def test_exact_record_comes_first_with_zero_distances():
    result = five_record_index().match(probe(), k=5)[0]
    assert result.plan_id == "a"
    assert (result.edge_distance, result.node_distance) == (0, 0)


def test_two_step_rule_hand_computed_ordering():
    # step 1, k=3 by edge distance keeps a(0), b(1), c(2);
    # step 2 sorts by node distance: a(0), c(0), b(1); tie a-vs-c broken by
    # edge distance 0 < 2.
    results = five_record_index().match(probe(), k=3)
    assert [r.plan_id for r in results] == ["a", "c", "b"]
    # with k=5 all records qualify; node sort gives a, c, e, b, d
    results = five_record_index().match(probe(), k=5)
    assert [r.plan_id for r in results] == ["a", "c", "e", "b", "d"]


def test_k_larger_than_index_degenerates_to_whole_index():
    results = five_record_index().match(probe(), k=50)
    assert len(results) == 5
    assert [r.plan_id for r in results] == ["a", "c", "e", "b", "d"]


def test_top_n_truncates():
    results = five_record_index().match(probe(), k=5, top_n=2)
    assert [r.plan_id for r in results] == ["a", "c"]


def test_match_with_k_equal_to_size_sorts_purely_by_node_distance():
    results = five_record_index().match(probe(), k=5)
    node_distances = [r.node_distance for r in results]
    assert node_distances == sorted(node_distances)


def test_empty_index_rejected():
    index = Index.new(FingerprintConfig())
    with pytest.raises(EmptyIndex):
        index.match(probe(), k=1)
    with pytest.raises(EmptyIndex):
        index.predict(probe())


def test_plan_id_breaks_exact_ties():
    index = Index.new(FingerprintConfig())
    index.add(record("zz", 0, 0, 1.0))
    index.add(record("aa", 0, 0, 40.0))
    results = index.match(fp(0, 0), k=2)
    assert [r.plan_id for r in results] == ["aa", "zz"]


SIG_POOL = (0, 0b1011, 0xF0F0, 0xFFFF_FFFF_FFFF_FFFF)


def brute_force_match(records, probe, k, top_n):
    """The two-step rule by two full sorts over Python ints."""
    scored = sorted(
        (
            (probe.edge_sig ^ r.fingerprint.edge_sig).bit_count(),
            (probe.node_sig ^ r.fingerprint.node_sig).bit_count(),
            r.plan_id,
            r,
        )
        for r in records
    )[:k]
    scored.sort(key=lambda s: (s[1], s[0], s[2]))
    return [MatchResult(pid, ed, nd, r.label, r.runtime_seconds) for ed, nd, pid, r in scored[:top_n]]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_match_equals_brute_force_two_step(data):
    # Signatures come from four words, so distance ties are the norm; ids
    # repeat, so some adds replace a row, before or after a snapshot.
    draws = data.draw(st.lists(
        st.tuples(
            st.text(alphabet="abcé", min_size=1, max_size=2),
            st.sampled_from(SIG_POOL),
            st.sampled_from(SIG_POOL),
            st.sampled_from((1.0, 12.0, 40.0)),
        ),
        min_size=1, max_size=40,
    ))
    snapshot_after = data.draw(st.integers(1, len(draws)))
    index = Index.new(FingerprintConfig())
    for i, (plan_id, edge, node, runtime) in enumerate(draws, start=1):
        index.add(record(plan_id, edge, node, runtime))
        if i == snapshot_after:
            index.match(fp(0, 0), k=1)
    n = len(index)
    probe = fp(data.draw(st.sampled_from(SIG_POOL)), data.draw(st.sampled_from(SIG_POOL)))
    k = data.draw(st.integers(1, n + 2))
    top_n = data.draw(st.none() | st.integers(1, n + 2))
    assert index.match(probe, k=k, top_n=top_n) == brute_force_match(index.records(), probe, k, top_n)


# -- predict -------------------------------------------------------------------------

def test_predict_exact_match_returns_stored_label():
    label, evidence = five_record_index().predict(fp(0b1100, 0b0011), k=5)
    assert label is ComplexityLabel.COMPLEX
    assert evidence.plan_id == "c"
    assert (evidence.edge_distance, evidence.node_distance) == (0, 0)


def test_predict_on_hand_built_index():
    label, evidence = five_record_index().predict(probe(), k=3)
    assert label is ComplexityLabel.SIMPLE
    assert evidence.plan_id == "a"


def test_single_record_index_always_wins():
    index = Index.new(FingerprintConfig())
    index.add(record("only", 0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF, 12.0))
    label, evidence = index.predict(fp(0, 0), k=4)
    assert label is ComplexityLabel.MEDIUM
    assert evidence.plan_id == "only"
    assert evidence.edge_distance == 64


def test_self_retrieval_for_every_stored_record():
    index = five_record_index()
    for stored in index.records():
        label, evidence = index.predict(stored.fingerprint, k=3)
        assert evidence.plan_id == stored.plan_id
        assert label is stored.label


def test_predict_is_deterministic():
    index = five_record_index()
    first = index.predict(probe(), k=3)
    for _ in range(5):
        assert index.predict(probe(), k=3) == first


# -- persistence ----------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    index = five_record_index()
    path = tmp_path / "idx.qdx"
    index.save(path)
    loaded = Index.load(path)
    assert loaded.header == index.header
    assert sorted(loaded.records(), key=lambda r: r.plan_id) == \
        sorted(index.records(), key=lambda r: r.plan_id)
    # and byte-exact on a second save
    index.save(tmp_path / "again.qdx")
    assert (tmp_path / "again.qdx").read_bytes() == path.read_bytes()


def test_truncated_record_line_reports_line_number(tmp_path):
    index = five_record_index()
    path = tmp_path / "idx.qdx"
    save_v1(index, path)
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1][: len(lines[-1]) // 2]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IndexFormatError) as exc:
        Index.load(path)
    assert exc.value.line_no == len(lines)


def test_bad_header_version_rejected(tmp_path):
    index = five_record_index()
    path = tmp_path / "idx.qdx"
    save_v1(index, path)
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace('"version": 1', '"version": 99')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IndexFormatError):
        Index.load(path)


def test_foreign_feature_schema_rejected_at_load(tmp_path):
    index = five_record_index()
    path = tmp_path / "idx.qdx"
    save_v1(index, path)
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace('"feature_schema_version": "fs1"', '"feature_schema_version": "fs0"')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigMismatch) as exc:
        Index.load(path)
    assert exc.value.field == "feature_schema_version"


def test_foreign_edge_layout_rejected_at_load(tmp_path):
    index = five_record_index()
    path = tmp_path / "idx.qdx"
    save_v1(index, path)
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace('"edge_layout_version": "el1"', '"edge_layout_version": "el9"')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigMismatch):
        Index.load(path)


def rewrite_header(path, edit):
    """Apply edit to the JSON header of the index file at path."""
    head, body = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    edit(header)
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)


def test_foreign_operator_registry_rejected_at_load(tmp_path):
    path = tmp_path / "idx.qdx"
    five_record_index().save(path)
    assert json.loads(path.read_bytes().split(b"\n", 1)[0])["operator_registry"] == "ops1"
    rewrite_header(path, lambda header: header.update(operator_registry="ops9"))
    with pytest.raises(ConfigMismatch) as exc:
        Index.load(path)
    assert exc.value.field == "operator_registry"


@pytest.mark.parametrize("write", [Index.save, save_v1], ids=["v2", "v1"])
def test_header_without_operator_registry_reads_as_ops1(tmp_path, write):
    # files written before the header stamped the operator table
    index = five_record_index()
    path = tmp_path / "idx.qdx"
    write(index, path)
    rewrite_header(path, lambda header: header.pop("operator_registry"))
    loaded = Index.load(path)
    assert loaded.header.operator_registry == "ops1"
    assert dataclasses.replace(loaded.header, version=index.header.version) == index.header
    assert loaded.records() == index.records()
    require_compatible(loaded.header, FingerprintConfig())


def test_foreign_hash_algo_loads_but_fails_at_use(tmp_path):
    # the file stays inspectable; fingerprinting against it is refused
    index = five_record_index()
    path = tmp_path / "idx.qdx"
    save_v1(index, path)
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace('"hash_algo": "cityhash64"', '"hash_algo": "xxhash"')
    path.write_text("\n".join(lines) + "\n")
    loaded = Index.load(path)
    assert loaded.header.hash_algo == "xxhash"
    with pytest.raises(ConfigMismatch) as exc:
        require_compatible(loaded.header, FingerprintConfig())
    assert exc.value.field == "hash_algo"


def test_unknown_approach_rejected_at_load(tmp_path):
    index = Index.new(FingerprintConfig(approach="ngram"))
    path = tmp_path / "idx.qdx"
    save_v1(index, path)
    text = path.read_text().replace('"approach": "ngram"', '"approach": "bogus"')
    path.write_text(text)
    with pytest.raises(ConfigMismatch) as exc:
        Index.load(path)
    assert exc.value.field == "approach"


def test_duplicate_plan_id_in_file_rejected(tmp_path):
    index = five_record_index()
    path = tmp_path / "idx.qdx"
    save_v1(index, path)
    lines = path.read_text().splitlines()
    lines.append(lines[1])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IndexFormatError) as exc:
        Index.load(path)
    assert exc.value.line_no == len(lines)
    assert "duplicate plan_id" in str(exc.value)


def test_unparseable_ngram_config_is_a_mismatch():
    header = IndexHeader.for_config(FingerprintConfig(approach="ngram"))
    header = dataclasses.replace(header, node_config="q=3")
    with pytest.raises(ConfigMismatch) as exc:
        header.to_config()
    assert exc.value.field == "ngram_config"


def test_label_runtime_disagreement_rejected(tmp_path):
    index = Index.new(FingerprintConfig())
    index.add(record("q", 1, 1, 1.0))
    path = tmp_path / "idx.qdx"
    save_v1(index, path)
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace('"Simple"', '"Complex"')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IndexFormatError):
        Index.load(path)


def test_ngram_header_round_trips_config(tmp_path):
    from qdaghash.ngrams import NGramConfig

    config = FingerprintConfig(approach="ngram", ngram=NGramConfig(n=4, dedupe=True))
    index = Index.new(config)
    index.add(record("q", 1, 1, 1.0, approach="ngram"))
    path = tmp_path / "idx.qdx"
    index.save(path)
    loaded = Index.load(path)
    assert loaded.header.node_config == config.ngram.config_id()
    assert NGramConfig.from_id(loaded.header.node_config) == config.ngram
    assert loaded.header.to_config() == config


def test_empty_index_round_trips(tmp_path):
    path = tmp_path / "idx.qdx"
    Index.new(FingerprintConfig(approach="ngram")).save(path)
    loaded = Index.load(path)
    assert len(loaded) == 0 and loaded.header.approach == "ngram"
    loaded.add(record("q", 1, 1, 1.0, approach="ngram"))
    assert [r.plan_id for r in loaded.match(fp(1, 1, "ngram"))] == ["q"]


def test_a_snapshot_keeps_its_rows_after_an_add(tmp_path):
    index = Index.new(FingerprintConfig())
    empty = index._columns()
    index.add(record("a", 1, 1, 1.0))
    one = index._columns()
    index.add(record("b", 2, 2, 40.0))
    assert (list(empty.ids), len(empty.edge)) == ([], 0)
    assert (list(one.ids), len(one.edge)) == (["a"], 1)
    path = tmp_path / "idx.qdx"
    index.save(path)
    loaded = Index.load(path)
    at_load = loaded._columns()
    loaded.add(record("c", 3, 3, 1.0))
    assert (list(at_load.ids), len(at_load.edge)) == (["a", "b"], 2)
    assert list(loaded._columns().ids) == ["a", "b", "c"]


def test_replace_after_load_keeps_the_row(tmp_path):
    # the id -> row map is built on the first add after a load
    index = five_record_index()
    index.add(record("ré-ü", 7, 7, 3.0))
    path = tmp_path / "idx.qdx"
    index.save(path)
    loaded = Index.load(path)
    loaded.add(record("b", 0b1110, 0b0111, 45.0))
    index.add(record("b", 0b1110, 0b0111, 45.0))
    assert len(loaded) == 6
    assert loaded.records() == index.records()
    loaded.save(tmp_path / "again.qdx")
    index.save(path)
    assert (tmp_path / "again.qdx").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("key,value", [
    ("version", 1.9),
    ("version", True),
    ("version", "1"),
    ("version", None),
    ("hash_algo", None),
    ("approach", 1),
    ("feature_schema_version", None),
    ("edge_layout_version", 1),
    ("operator_registry", None),
])
def test_header_value_of_wrong_type_rejected(tmp_path, key, value):
    path = tmp_path / "idx.qdx"
    five_record_index().save(path)
    head, body = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header[key] = value
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)
    with pytest.raises(IndexFormatError) as exc:
        Index.load(path)
    assert exc.value.line_no == 1
    assert key in str(exc.value)


def test_failed_save_leaves_old_file_and_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "idx.qdx"
    five_record_index().save(path)
    before = path.read_bytes()
    bigger = five_record_index()
    for i in range(100):
        bigger.add(record(f"more-{i}", i, i, 1.0))

    class DiskFullHalfWay:
        """A file that writes half of the first chunk it is given, then fails."""

        def __init__(self, *args):
            self.file = open(*args)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.file.close()

        def fileno(self):
            return self.file.fileno()

        def write(self, chunk):
            self.file.write(bytes(chunk)[: len(bytes(chunk)) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(index_module, "open", DiskFullHalfWay, raising=False)
    with pytest.raises(OSError, match="No space left"):
        bigger.save(path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["idx.qdx"]


# -- hostile v2 files -------------------------------------------------------------------

def v2_spans(data):
    """Byte range of each block of a v2 file, from the documented layout."""
    pos = data.index(b"\n") + 1
    n, blob_size = struct.unpack_from("<QQ", data, pos)
    spans = {"counts": (pos, pos + 16)}
    pos += 16
    for name, size in (("edge", 8 * n), ("node", 8 * n), ("runtime", 8 * n),
                       ("offsets", 8 * n), ("label", n), ("ids", blob_size)):
        spans[name] = (pos, pos + size)
        pos += size
    assert pos == len(data)
    return spans


def saved_v2(tmp_path):
    """A saved five_record_index (ids a..e, one byte each) and its bytes."""
    path = tmp_path / "idx.qdx"
    five_record_index().save(path)
    return path, bytearray(path.read_bytes())


def load_error(path, data):
    path.write_bytes(bytes(data))
    with pytest.raises(IndexFormatError) as exc:
        Index.load(path)
    return exc.value


def test_v2_truncated_block_rejected(tmp_path):
    path, data = saved_v2(tmp_path)
    start, end = v2_spans(data)["runtime"]
    error = load_error(path, data[: (start + end) // 2])
    assert error.where == "block 'runtime'"
    assert "truncated" in str(error)


def test_v2_trailing_bytes_rejected(tmp_path):
    path, data = saved_v2(tmp_path)
    error = load_error(path, data + b"\0")
    assert error.where == "block 'ids'"
    assert "1 trailing byte" in str(error)


def test_v2_flipped_label_rejected(tmp_path):
    path, data = saved_v2(tmp_path)
    data[v2_spans(data)["label"][0] + 3] = ComplexityLabel.COMPLEX  # d ran 2.0 s
    error = load_error(path, data)
    assert error.where == "record 4"
    assert "does not match runtime 2.0" in str(error)


@pytest.mark.parametrize("value,record_no,message", [
    (math.nan, 2, "must be finite"),
    (-1.0, 5, "must be >= 0"),
])
def test_v2_bad_runtime_rejected(tmp_path, value, record_no, message):
    path, data = saved_v2(tmp_path)
    struct.pack_into("<d", data, v2_spans(data)["runtime"][0] + 8 * (record_no - 1), value)
    error = load_error(path, data)
    assert error.where == f"record {record_no}"
    assert message in str(error)


def test_v2_duplicate_plan_id_rejected(tmp_path):
    path, data = saved_v2(tmp_path)
    data[v2_spans(data)["ids"][0] + 1] = ord("a")
    error = load_error(path, data)
    assert error.where == "record 2"
    assert "duplicate plan_id 'a'" in str(error)


def test_v2_invalid_utf8_plan_id_rejected(tmp_path):
    path, data = saved_v2(tmp_path)
    data[v2_spans(data)["ids"][0] + 2] = 0xFF
    error = load_error(path, data)
    assert error.where == "record 3"
    assert "not valid UTF-8" in str(error)


def test_v2_non_increasing_offsets_rejected(tmp_path):
    path, data = saved_v2(tmp_path)
    struct.pack_into("<Q", data, v2_spans(data)["offsets"][0] + 16, 2)  # ends 1, 2, 2, 4, 5
    error = load_error(path, data)
    assert error.where == "record 3"


@pytest.mark.parametrize("line_no", [1, 2])
def test_deeply_nested_json_line_rejected(tmp_path, line_no):
    path = tmp_path / "idx.qdx"
    save_v1(five_record_index(), path)
    lines = path.read_text().splitlines()
    lines[line_no - 1] = "[" * 100_000
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IndexFormatError) as exc:
        Index.load(path)
    assert exc.value.line_no == line_no


@cache
def fuzz_base():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "idx.qdx"
        five_record_index().save(path)
        return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fuzzed_v2_file_fails_only_with_typed_errors(data):
    mutated = bytearray(fuzz_base())
    for _ in range(data.draw(st.integers(0, 3))):
        mutated[data.draw(st.integers(0, len(mutated) - 1))] ^= data.draw(st.integers(1, 255))
    mutated = mutated[: data.draw(st.integers(0, len(mutated)))]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "idx.qdx"
        path.write_bytes(bytes(mutated))
        try:
            Index.load(path)
            loaded = True
        except (IndexFormatError, ConfigMismatch):
            loaded = False
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["index", "show", "--index", str(path)])
    assert code == (0 if loaded else 1)
    assert "Traceback" not in stderr.getvalue()


# -- plan ids of a loaded v2 file ------------------------------------------------------

# Ids of 1-40 UTF-8 bytes: many of one length from a two-letter alphabet,
# and any characters, cut at 40 bytes on a character boundary.
PLAN_ID_TEXT = st.one_of(
    st.text("ab", min_size=1, max_size=40),
    st.text(st.characters(codec="utf-8"), min_size=1, max_size=40),
).map(lambda text: text.encode()[:40].decode("utf-8", "ignore"))

# Lone continuation bytes, lead bytes, the surrogate lead 0xED and bytes
# that never occur in UTF-8.
BAD_UTF8_BYTES = (0x80, 0xBF, 0xC0, 0xC3, 0xE2, 0xED, 0xF0, 0xF8, 0xFF)


def v2_file(blob, ends):
    """A structured v2 index of len(ends) one-second records with these id
    offsets and id blob."""
    n = len(ends)
    header = json.dumps(IndexHeader.for_config(FingerprintConfig()).to_json_obj())
    columns = struct.pack(
        f"<2Q{n}Q{n}Q{n}d{n}Q", n, len(blob), *range(n), *range(n), *[1.0] * n, *ends
    )
    return header.encode() + b"\n" + columns + bytes(n) + blob


def loaded_ids(path):
    """The plan ids of Index.load(path), read by row and by iteration."""
    index = Index.load(path)
    ids = index._columns().ids
    by_row = [ids[row] for row in range(len(index))]
    assert [r.plan_id for r in index.records()] == by_row
    return by_row


def outcome(read, *args):
    try:
        return read(*args)
    except IndexFormatError as exc:
        return (exc.where, str(exc))


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_v2_plan_ids_load_as_the_per_record_reference(data):
    ids = data.draw(st.lists(PLAN_ID_TEXT, max_size=12, unique=True))
    for _ in range(data.draw(st.integers(0, 2)) if ids else 0):
        ids.insert(data.draw(st.integers(0, len(ids))), data.draw(st.sampled_from(ids)))
    encoded = [plan_id.encode() for plan_id in ids]
    ends = list(itertools.accumulate(map(len, encoded)))
    blob = bytearray(b"".join(encoded))
    for _ in range(data.draw(st.integers(0, 2)) if ends else 0):
        # Most often this splits a character, or makes two ids equal.
        row = data.draw(st.integers(0, len(ends) - 1))
        ends[row] = max(0, ends[row] + data.draw(st.integers(-3, 3)))
    for _ in range(data.draw(st.integers(0, 1)) if blob else 0):
        blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.sampled_from(BAD_UTF8_BYTES))
    file = v2_file(bytes(blob), ends)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "idx.qdx"
        path.write_bytes(file)
        assert outcome(loaded_ids, path) == outcome(reference_ids, file)


def test_a_repeated_key_without_a_duplicate_still_loads(tmp_path, monkeypatch):
    index = five_record_index()
    for i in range(40):
        index.add(record(f"plan-{i:03d}-é", i, i, 1.0))
    path = tmp_path / "idx.qdx"
    index.save(path)
    calls = []

    def always_repeated(*args):
        calls.append(args)
        return True

    monkeypatch.setattr(index_module, "_repeated_key", always_repeated)
    assert loaded_ids(path) == [r.plan_id for r in index.records()]
    assert len(calls) == 1


# -- concurrency smoke ------------------------------------------------------------------

def test_concurrent_readers_during_writes_see_consistent_states():
    index = Index.new(FingerprintConfig())
    index.add(record("seed", 0, 0, 1.0))
    errors = []

    def writer():
        for i in range(300):
            index.add(record(f"w{i:03d}", i, i, 1.0))

    def reader():
        try:
            for _ in range(300):
                results = index.match(fp(0, 0), k=5)
                assert 1 <= len(results) <= 5
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader) for _ in range(3)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(index) == 301


def test_replacing_writers_never_show_readers_a_torn_snapshot():
    # Writers replace rows in place while readers match; every snapshot must
    # hold all 40 rows, each with the label of its own runtime.
    index = Index.new(FingerprintConfig())
    for i in range(40):
        index.add(record(f"r{i:02d}", i, i, 1.0))
    errors = []

    def writer(first):
        for n in range(150):
            runtime = (1.0, 12.0, 40.0)[n % 3]
            for i in range(first, 40, 3):
                index.add(record(f"r{i:02d}", i, i, runtime))

    def reader():
        try:
            for _ in range(150):
                results = index.match(fp(0, 0), k=40)
                assert len(results) == 40
                for m in results:
                    assert m.label is classify_runtime(m.runtime_seconds)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(w,)) for w in range(3)]
    threads += [threading.Thread(target=reader) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(index) == 40
