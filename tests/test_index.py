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
import subprocess
import sys
import tempfile
import threading
from functools import cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import rewrite_header
from index_reference import reference_ids, reference_key
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


def saved_index(tmp_path, index=None):
    """The path of index (default five_record_index()) saved in tmp_path."""
    path = tmp_path / "idx.qdx"
    (five_record_index() if index is None else index).save(path)
    return path


def test_readme_header_example_is_the_saved_header(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("`head -1 runs.qdx`", 1)[1].split("```json\n", 1)[1].split("\n", 1)[0]
    assert example == json.dumps(IndexHeader.for_config(FingerprintConfig()).to_json_obj())
    assert saved_index(tmp_path).read_bytes().split(b"\n", 1)[0] == example.encode()


def test_bad_header_version_rejected(tmp_path):
    path = saved_index(tmp_path)
    rewrite_header(path, lambda header: header.update(version=99))
    with pytest.raises(IndexFormatError) as exc:
        Index.load(path)
    assert str(exc.value) == "index file line 1: unsupported index version 99 (expected 2)"


def test_foreign_feature_schema_rejected_at_load(tmp_path):
    path = saved_index(tmp_path)
    rewrite_header(path, lambda header: header.update(feature_schema_version="fs0"))
    with pytest.raises(ConfigMismatch) as exc:
        Index.load(path)
    assert exc.value.field == "feature_schema_version"


def test_foreign_edge_layout_rejected_at_load(tmp_path):
    path = saved_index(tmp_path)
    rewrite_header(path, lambda header: header.update(edge_layout_version="el9"))
    with pytest.raises(ConfigMismatch) as exc:
        Index.load(path)
    assert exc.value.field == "edge_layout_version"


def test_foreign_operator_registry_rejected_at_load(tmp_path):
    path = saved_index(tmp_path)
    assert json.loads(path.read_bytes().split(b"\n", 1)[0])["operator_registry"] == "ops1"
    rewrite_header(path, lambda header: header.update(operator_registry="ops9"))
    with pytest.raises(ConfigMismatch) as exc:
        Index.load(path)
    assert exc.value.field == "operator_registry"


def test_header_without_operator_registry_rejected(tmp_path):
    path = saved_index(tmp_path)
    rewrite_header(path, lambda header: header.pop("operator_registry"))
    with pytest.raises(IndexFormatError) as exc:
        Index.load(path)
    assert str(exc.value) == "index file line 1: bad header: 'operator_registry'"


@pytest.mark.parametrize("line,kind", [("[1]", "list"), ('"x"', "str"), ("3", "int"), ("null", "NoneType")])
def test_header_that_is_not_an_object_rejected(tmp_path, line, kind):
    path = saved_index(tmp_path)
    path.write_bytes(line.encode() + b"\n" + path.read_bytes().split(b"\n", 1)[1])
    with pytest.raises(IndexFormatError) as exc:
        Index.load(path)
    assert str(exc.value) == f"index file line 1: bad header: header must be a JSON object, got {kind}"


def test_foreign_hash_algo_loads_but_fails_at_use(tmp_path):
    # the file stays inspectable; fingerprinting against it is refused
    path = saved_index(tmp_path)
    rewrite_header(path, lambda header: header.update(hash_algo="xxhash"))
    loaded = Index.load(path)
    assert loaded.header.hash_algo == "xxhash"
    with pytest.raises(ConfigMismatch) as exc:
        require_compatible(loaded.header, FingerprintConfig())
    assert exc.value.field == "hash_algo"


def test_unknown_approach_rejected_at_load(tmp_path):
    path = saved_index(tmp_path, Index.new(FingerprintConfig(approach="ngram")))
    rewrite_header(path, lambda header: header.update(approach="bogus"))
    with pytest.raises(ConfigMismatch) as exc:
        Index.load(path)
    assert exc.value.field == "approach"
    assert str(exc.value) == "config mismatch on 'approach': index has 'bogus', got 'structured|ngram'"


def test_unparseable_ngram_config_is_a_mismatch():
    header = IndexHeader.for_config(FingerprintConfig(approach="ngram"))
    header = dataclasses.replace(header, node_config="q=3")
    with pytest.raises(ConfigMismatch) as exc:
        header.to_config()
    assert exc.value.field == "ngram_config"


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
    path = saved_index(tmp_path)
    rewrite_header(path, lambda header: header.update({key: value}))
    with pytest.raises(IndexFormatError) as exc:
        Index.load(path)
    assert exc.value.where == "line 1"
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
    path = saved_index(tmp_path)
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


# Past the 8,192 rows that the id walk takes at a time.
MANY_IDS = [f"p{i:05d}".encode() for i in range(10_000)]


def damaged_many(runtimes=(), labels=(), ends=()):
    """v2_file_of(MANY_IDS) with these (record, value) runtimes, labels and
    id offsets written over the stored ones, records counted from 1."""
    data = bytearray(v2_file_of(MANY_IDS))
    spans = v2_spans(data)
    for record_no, value in runtimes:
        struct.pack_into("<d", data, spans["runtime"][0] + 8 * (record_no - 1), value)
    for record_no, value in labels:
        data[spans["label"][0] + record_no - 1] = value
    for record_no, value in ends:
        struct.pack_into("<Q", data, spans["offsets"][0] + 8 * (record_no - 1), value)
    return data


@pytest.mark.parametrize("damage,where,message", [
    # The runtime check comes before the label check, at any record.
    (dict(runtimes=[(9000, math.inf)], labels=[(3, ComplexityLabel.MEDIUM)]),
     "record 9000", "runtime_seconds must be finite, got inf"),
    (dict(labels=[(8193, ComplexityLabel.COMPLEX)]),
     "record 8193", "label 2 does not match runtime 1.0 (Simple)"),
    # Every id is 6 bytes, so record 8,199 ends at byte 49,194.
    (dict(ends=[(8200, 6 * 8199)]),
     "record 8200", "plan_id offset 49194 does not follow 49194"),
], ids=["runtime-before-label", "label", "offsets"])
def test_a_load_names_the_first_bad_record_past_8192_rows(tmp_path, damage, where, message):
    error = load_error(tmp_path / "idx.qdx", damaged_many(**damage))
    assert (error.where, str(error)) == (where, f"index file {where}: {message}")


def test_deeply_nested_json_header_rejected(tmp_path):
    path = saved_index(tmp_path)
    path.write_bytes(b"[" * 100_000 + b"\n" + path.read_bytes().split(b"\n", 1)[1])
    with pytest.raises(IndexFormatError) as exc:
        Index.load(path)
    assert exc.value.where == "line 1"


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

# Ids as bytes: ASCII ids of 1-120 bytes, many of one length from a
# two-letter alphabet (past 16 bytes an id has middle words); any characters,
# cut at 40 bytes on a character boundary; and raw bytes, which may start on
# a continuation byte or not decode at all.
PLAN_ID_BYTES = st.one_of(
    st.text("ab", min_size=1, max_size=40).map(str.encode),
    st.text("ab", min_size=41, max_size=120).map(str.encode),
    st.text(st.characters(codec="utf-8"), min_size=1, max_size=40).map(
        lambda text: text.encode()[:40].decode("utf-8", "ignore").encode() or b"x"
    ),
    st.binary(min_size=1, max_size=12),
)

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


def v2_file_of(ids):
    """v2_file of these plan ids, as bytes."""
    return v2_file(b"".join(ids), list(itertools.accumulate(map(len, ids))))


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
    ids = data.draw(st.lists(PLAN_ID_BYTES, max_size=12, unique=True))
    for _ in range(data.draw(st.integers(0, 2)) if ids else 0):
        ids.insert(data.draw(st.integers(0, len(ids))), data.draw(st.sampled_from(ids)))
    ends = list(itertools.accumulate(map(len, ids)))
    blob = bytearray(b"".join(ids))
    for _ in range(data.draw(st.integers(0, 2)) if ends else 0):
        # Most often this splits a character, or makes two ids equal.
        row = data.draw(st.integers(0, len(ends) - 1))
        ends[row] = max(0, ends[row] + data.draw(st.integers(-3, 3)))
    for _ in range(data.draw(st.integers(0, 1)) if blob else 0):
        blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.sampled_from(BAD_UTF8_BYTES))
    file = v2_file(bytes(blob), ends)
    # Chunks of a few rows and bytes, so that small files span many chunks
    # and ids longer than a chunk occur.
    rows, size = data.draw(st.sampled_from([(index_module._CHUNK_ROWS, index_module._CHUNK_BYTES), (1, 8), (3, 16), (2, 32)]))
    chunks = {"_CHUNK_ROWS": rows, "_CHUNK_BYTES": size}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.multiple(index_module, **chunks):
        path = Path(tmp) / "idx.qdx"
        path.write_bytes(file)
        assert outcome(loaded_ids, path) == outcome(reference_ids, file)


def load_with_every_key_equal(path, monkeypatch):
    """outcome(loaded_ids, path) with every id key forced equal, and the
    rows the exact check was given."""
    checked = []
    exact_check = index_module._check_rows_distinct

    def spy(ids, rows):
        checked.append(rows.tolist())
        exact_check(ids, rows)

    monkeypatch.setattr(index_module, "_id_keys", lambda data, pos, ends: np.zeros(len(ends), np.uint64))
    monkeypatch.setattr(index_module, "_check_rows_distinct", spy)
    return outcome(loaded_ids, path), checked


def test_loaded_ids_read_by_negative_row(tmp_path):
    path = tmp_path / "idx.qdx"
    path.write_bytes(v2_file_of([b"a", "é".encode(), b"ccc"]))
    ids = Index.load(path)._columns().ids
    assert [ids[row] for row in (-3, -2, -1)] == ["a", "é", "ccc"]
    for row in (-4, 3):
        with pytest.raises(IndexError):
            ids[row]


REPEATED_KEY_IDS = [f"plan-{i:03d}-é".encode() for i in range(40)] + [b"a", b"b"]


def test_a_repeated_key_without_a_duplicate_still_loads(tmp_path, monkeypatch):
    path = tmp_path / "idx.qdx"
    path.write_bytes(v2_file_of(REPEATED_KEY_IDS))
    loaded, checked = load_with_every_key_equal(path, monkeypatch)
    assert loaded == [plan_id.decode() for plan_id in REPEATED_KEY_IDS]
    assert checked == [list(range(len(REPEATED_KEY_IDS)))]


def test_a_duplicate_under_a_repeated_key_is_refused_as_the_reference_says(tmp_path, monkeypatch):
    ids = list(REPEATED_KEY_IDS)
    ids[30] = ids[7]
    ids[35] = ids[7]
    path = tmp_path / "idx.qdx"
    path.write_bytes(v2_file_of(ids))
    refused, checked = load_with_every_key_equal(path, monkeypatch)
    assert refused == outcome(reference_ids, path.read_bytes())
    assert refused == ("record 31", "index file record 31: duplicate plan_id 'plan-007-é'")
    assert checked == [list(range(len(ids)))]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.binary(min_size=1, max_size=60), max_size=20),
    st.sampled_from([(index_module._CHUNK_ROWS, index_module._CHUNK_BYTES), (1, 8), (3, 16), (2, 32)]),
)
def test_id_keys_are_the_documented_sum_over_words(ids, chunk):
    file = v2_file_of(ids)
    pos = len(file) - sum(map(len, ids))
    ends = np.array(list(itertools.accumulate(map(len, ids))), np.uint64)
    rows, size = chunk
    chunks = {"_CHUNK_ROWS": rows, "_CHUNK_BYTES": size}
    with mock.patch.multiple(index_module, **chunks):
        keys = index_module._id_keys(file, pos, ends)
    assert keys.tolist() == [reference_key(plan_id) for plan_id in ids]


def linear_fold_key(plan_id):
    """The duplicate key of the per-length fold that Index.load used before:
    the zero-padded little-endian 8-byte words times odd multipliers, summed
    mod 2**64."""
    padded = plan_id + bytes(-len(plan_id) % 8)
    z = np.arange(1, len(padded) // 8 + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    multipliers = z ^ (z >> np.uint64(31)) | np.uint64(1)
    return int(np.frombuffer(padded, np.uint64) @ multipliers)


def test_ids_that_shared_a_linear_fold_key_load_without_the_exact_check(tmp_path, monkeypatch):
    ids = [b"rand-0249364-b5c2f", b"rand-0969364-b0c2f"]
    assert linear_fold_key(ids[0]) == linear_fold_key(ids[1])
    path = tmp_path / "idx.qdx"
    path.write_bytes(v2_file_of(ids))
    checked = []
    monkeypatch.setattr(index_module, "_check_rows_distinct", lambda *args: checked.append(args))
    assert loaded_ids(path) == [plan_id.decode() for plan_id in ids]
    assert checked == []


@pytest.mark.parametrize("length,shown", [
    (200, repr("x" * 200)),
    (201, repr("x" * 200) + "... (201 characters)"),
    (300_000, repr("x" * 200) + "... (300000 characters)"),
], ids=["200", "201", "300000"])
def test_a_duplicate_plan_id_is_echoed_up_to_200_characters(tmp_path, length, shown):
    path = tmp_path / "idx.qdx"
    path.write_bytes(v2_file_of([b"x" * length, b"y", b"x" * length]))
    error = load_error(path, path.read_bytes())
    assert str(error) == f"index file record 3: duplicate plan_id {shown}"
    assert outcome(reference_ids, path.read_bytes()) == (error.where, str(error))


@pytest.mark.parametrize("key,value,kind", [
    ("hash_algo", list(range(200_000)), "list"),
    ("version", "9" * 1_000_000, "str"),
    ("operator_registry", {"x": "y" * 100_000}, "dict"),
], ids=["hash_algo", "version", "operator_registry"])
def test_a_huge_header_value_makes_one_short_error_line(tmp_path, capsys, key, value, kind):
    path = saved_index(tmp_path)
    rewrite_header(path, lambda header: header.update({key: value}))
    assert main(["index", "show", "--index", str(path)]) == 1
    must_be = "an integer" if key == "version" else "a string"
    assert capsys.readouterr() == (
        "", f"error: index file line 1: bad header: {key!r} must be {must_be}, got {kind}\n"
    )


def test_a_100k_record_load_holds_about_the_file_size_of_memory(tmp_path):
    rng = np.random.default_rng(17)
    index = Index.new(FingerprintConfig())
    for i, (edge, node) in enumerate(rng.integers(0, 1 << 63, (100_000, 2)).tolist()):
        index.add(record(f"rand-{i:06d}", edge, node, float(i % 300)))
    path = tmp_path / "idx.qdx"
    index.save(path)
    load = (
        "import resource, sys\n"
        "from qdaghash.index import Index\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "assert len(Index.load(sys.argv[1])) == 100_000\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    # On Linux a process's ru_maxrss starts at its parent's RSS at fork, and
    # this test process is larger than the load; so the load runs in a
    # grandchild, forked by a fresh interpreter.
    launch = "import subprocess, sys; subprocess.run([sys.executable, *sys.argv[1:]], check=True)"
    src = str(Path(index_module.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", launch, "-c", load, str(path)], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    grown = int(done.stdout) * 1024  # ru_maxrss is in KiB on Linux
    # The file is 4.4 MB and the bound 7.6 MB. On a 2-core Xeon VM the load
    # grew 6.4-6.5 MB (0.84-0.86 of the bound), and the per-length fold it
    # replaced grew 13.5 MB.
    bound = 1.25 * path.stat().st_size + 2 * 2**20
    assert grown <= bound, (
        f"load grew peak RSS by {grown / 1e6:.2f} MB, {grown / bound:.2f} of the "
        f"{bound / 1e6:.2f} MB bound for a {path.stat().st_size / 1e6:.2f} MB file"
    )


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
