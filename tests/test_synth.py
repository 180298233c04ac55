"""Synthetic corpus generator: determinism, banding, perturbation controls."""

import filecmp
import hashlib

import pytest

from conftest import make_node
from qdaghash.fingerprint import FingerprintConfig, fingerprint_document
from qdaghash.index import classify_runtime
from qdaghash.ingest import PlanDocument, load_corpus
from qdaghash.qdag import QDag
from qdaghash.synth import (
    build_corpus,
    default_spec,
    generate_corpus,
    perturb_one_property,
    rename_columns,
)


def test_same_seed_is_byte_identical(tmp_path):
    spec = default_spec(seed=42, counts=(5, 5, 5))
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    generate_corpus(spec, dir_a)
    generate_corpus(spec, dir_b)
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(dir_a, dir_b, names, shallow=False)
    assert mismatch == [] and errors == []
    assert len(match) == 15


# sha256 over each file's name, a NUL byte and its contents, in name order.
# A change to the generator must leave every file byte-identical: benchmark
# inputs and the golden fingerprint fixture are drawn from it.
@pytest.mark.parametrize("seed,rate,count,digest", [
    (42, 0.1, 100, "dfde1601eb45024d578613e2909ced91a51861fc935b53d1af7cdde49af6094e"),
    (7, 0.0, 20, "109fdbc9ad9af68c2361b0499dd010afdb34f7dc565aae5823ce89290c145929"),
    (3, 0.5, 20, "91b296ad46a08dbb90fe0740b7d1dfa6ca99506e61cb426677ff25f9374e0157"),
    (11, 1.0, 20, "9b1e06bd05cd0d7d900ef343a4a4d4345fd56d53699240a82be60dfbbfd4345e"),
    (0, 0.25, 5, "b7877ba66bd4c0a2019e2d245ad2a6013503c31538523518de996c9f9dca665d"),
])
def test_generated_files_keep_their_bytes(tmp_path, seed, rate, count, digest):
    generate_corpus(default_spec(seed=seed, counts=(count,) * 3, perturbation_rate=rate), tmp_path)
    h = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    assert h.hexdigest() == digest


def test_different_seeds_differ(tmp_path):
    a = build_corpus(default_spec(seed=1, counts=(3, 3, 3)))
    b = build_corpus(default_spec(seed=2, counts=(3, 3, 3)))
    assert a.documents != b.documents


def test_three_families_times_count_and_band_labels(tmp_path):
    spec = default_spec(seed=9, counts=(10, 10, 10))
    corpus = generate_corpus(spec, tmp_path)
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 30
    reloaded = load_corpus(tmp_path)
    assert len(reloaded) == 30
    by_family = {}
    for doc in reloaded.documents:
        family = doc.plan_id.rsplit("-", 1)[0]
        by_family.setdefault(family, []).append(doc)
    assert {name: len(docs) for name, docs in by_family.items()} == {
        "scanchain": 10, "twophaseagg": 10, "joinpipe": 10,
    }
    expected_label = {f.name: f.label for f in spec.families}
    for family, docs in by_family.items():
        for doc in docs:
            assert classify_runtime(doc.runtime_seconds) is expected_label[family]


def test_reloaded_corpus_equals_generated_corpus(tmp_path):
    # load_corpus orders by filename; the generator orders by family
    spec = default_spec(seed=4, counts=(3, 3, 3))
    generated = generate_corpus(spec, tmp_path)
    reloaded = load_corpus(tmp_path)
    key = lambda d: d.plan_id
    assert sorted(reloaded.documents, key=key) == sorted(generated.documents, key=key)


def test_zero_perturbation_makes_same_base_plans_identical():
    corpus = build_corpus(default_spec(seed=12, counts=(6, 6, 6), perturbation_rate=0.0))
    by_family = {}
    for doc in corpus.documents:
        by_family.setdefault(doc.plan_id.rsplit("-", 1)[0], []).append(doc)
    for docs in by_family.values():
        # documents i and i+3 share a base structure; with rate 0 they can
        # differ only in the runtime label
        for first, second in zip(docs, docs[3:]):
            assert first.graph.nodes == second.graph.nodes
            assert first.graph.edges == second.graph.edges
            assert first.runtime_seconds != second.runtime_seconds


def test_node_counts_stay_in_family_range():
    spec = default_spec(seed=21, counts=(20, 20, 20))
    ranges = {f.name: f.node_range for f in spec.families}
    for doc in build_corpus(spec).documents:
        family = doc.plan_id.rsplit("-", 1)[0]
        lo, hi = ranges[family]
        assert lo - 2 <= len(doc.graph.nodes) <= hi + 2


def test_perturb_one_property_changes_exactly_one_node():
    corpus = build_corpus(default_spec(seed=30, counts=(3, 3, 3)))
    for i, doc in enumerate(corpus.documents):
        variant = perturb_one_property(doc, seed=i)
        assert variant.graph.edges == doc.graph.edges
        changed = [
            (a, b)
            for a, b in zip(doc.graph.nodes, variant.graph.nodes)
            if a != b
        ]
        assert len(changed) == 1
        before, after = changed[0]
        diff_keys = {
            key
            for key in set(before.properties) | set(after.properties)
            if before.properties.get(key) != after.properties.get(key)
        }
        assert len(diff_keys) == 1
        assert before.fact != after.fact


def test_perturb_one_property_spells_a_property_its_fact_does_not():
    doc = PlanDocument("x", 1.0, QDag("x", [make_node(0, "Exchange", "Exchange", num_partitions=4)], []))
    (node,) = perturb_one_property(doc).graph.nodes
    assert (node.fact, node.properties) == ("Exchange num_partitions=8", {"num_partitions": 8})


def test_perturb_one_property_refuses_a_plan_without_one():
    doc = PlanDocument("x", 1.0, QDag("x", [make_node(0, "Scan", join_semantics="inner")], []))
    with pytest.raises(ValueError, match="document 'x' has no perturbable properties"):
        perturb_one_property(doc)


def test_perturbation_is_deterministic_in_seed():
    doc = build_corpus(default_spec(seed=31, counts=(2, 2, 2))).documents[0]
    assert perturb_one_property(doc, seed=5) == perturb_one_property(doc, seed=5)


def test_rename_columns_preserves_structure_and_counts():
    doc = build_corpus(default_spec(seed=32, counts=(2, 2, 2))).documents[0]
    renamed = rename_columns(doc, prefix="zz")
    assert renamed.graph.edges == doc.graph.edges
    assert any(a.fact != b.fact for a, b in zip(doc.graph.nodes, renamed.graph.nodes))
    for a, b in zip(doc.graph.nodes, renamed.graph.nodes):
        assert a.properties == b.properties
        assert a.operator_name == b.operator_name
    # structured fingerprints are blind to the rename
    cfg = FingerprintConfig(approach="structured")
    assert fingerprint_document(renamed, cfg) == fingerprint_document(doc, cfg)


def test_families_are_separable_in_node_distance():
    # at perturbation rate 0.1, plans sit closer to their own family than
    # to other families under both approaches
    import random
    import statistics

    from qdaghash.simhash import hamming

    corpus = build_corpus(default_spec(seed=60, counts=(25, 25, 25), perturbation_rate=0.1))
    for approach in ("structured", "ngram"):
        cfg = FingerprintConfig(approach=approach)
        sig = {d.plan_id: fingerprint_document(d, cfg).node_sig for d in corpus.documents}
        family = {d.plan_id: d.plan_id.rsplit("-", 1)[0] for d in corpus.documents}
        rng = random.Random(61)
        intra, inter = [], []
        for _ in range(2000):
            a, b = rng.sample(corpus.documents, 2)
            distance = hamming(sig[a.plan_id], sig[b.plan_id])
            (intra if family[a.plan_id] == family[b.plan_id] else inter).append(distance)
        assert statistics.mean(inter) > statistics.mean(intra), approach


def test_runtime_bands_never_touch_boundaries():
    corpus = build_corpus(default_spec(seed=40, counts=(40, 40, 40)))
    for doc in corpus.documents:
        assert doc.runtime_seconds < 4.6 or 5.9 < doc.runtime_seconds < 28.1 or doc.runtime_seconds > 34.9
