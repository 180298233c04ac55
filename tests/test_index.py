"""Runtime classification, two-step matching, prediction, persistence."""

import dataclasses
import threading

import pytest

from qdaghash.errors import (
    ConfigMismatch,
    EmptyIndex,
    IndexFormatError,
    NegativeRuntime,
    NonFiniteRuntime,
)
from qdaghash.fingerprint import Fingerprint128, FingerprintConfig
from qdaghash.index import (
    ComplexityLabel,
    Index,
    IndexHeader,
    IndexRecord,
    classify_runtime,
    require_compatible,
)


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


def test_record_label_must_match_runtime():
    with pytest.raises(ValueError):
        IndexRecord("p", fp(0, 0), 1.0, ComplexityLabel.COMPLEX)


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
    index.save(path)
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1][: len(lines[-1]) // 2]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IndexFormatError) as exc:
        Index.load(path)
    assert exc.value.line_no == len(lines)


def test_bad_header_version_rejected(tmp_path):
    index = five_record_index()
    path = tmp_path / "idx.qdx"
    index.save(path)
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace('"version": 1', '"version": 99')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IndexFormatError):
        Index.load(path)


def test_foreign_feature_schema_rejected_at_load(tmp_path):
    index = five_record_index()
    path = tmp_path / "idx.qdx"
    index.save(path)
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace('"feature_schema_version": "fs1"', '"feature_schema_version": "fs0"')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigMismatch) as exc:
        Index.load(path)
    assert exc.value.field == "feature_schema_version"


def test_foreign_edge_layout_rejected_at_load(tmp_path):
    index = five_record_index()
    path = tmp_path / "idx.qdx"
    index.save(path)
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace('"edge_layout_version": "el1"', '"edge_layout_version": "el9"')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigMismatch):
        Index.load(path)


def test_foreign_hash_algo_loads_but_fails_at_use(tmp_path):
    # the file stays inspectable; fingerprinting against it is refused
    index = five_record_index()
    path = tmp_path / "idx.qdx"
    index.save(path)
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
    index.save(path)
    text = path.read_text().replace('"approach": "ngram"', '"approach": "bogus"')
    path.write_text(text)
    with pytest.raises(ConfigMismatch) as exc:
        Index.load(path)
    assert exc.value.field == "approach"


def test_duplicate_plan_id_in_file_rejected(tmp_path):
    index = five_record_index()
    path = tmp_path / "idx.qdx"
    index.save(path)
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
    index.save(path)
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
