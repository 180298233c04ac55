"""N-gram shingling, fact normalization, and the uniform-weight signature."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_node, permuted, random_dag
from qdaghash.errors import EmptyFact
from qdaghash.ngrams import (
    NGramConfig,
    ngrams,
    node_hashes_ngram,
    node_signature_ngram,
    normalize_fact,
)
from qdaghash.qdag import PlanNode, QDag
from qdaghash.simhash import simhash, string_hash64
from test_simhash import simhash_oracle


def test_basic_trigrams():
    assert ngrams("abcd", NGramConfig(n=3)) == ["abc", "bcd"]


def test_short_string_is_its_own_single_gram():
    assert ngrams("ab", NGramConfig(n=3)) == ["ab"]


def test_operator_id_tokens_are_stripped():
    cfg = NGramConfig(n=3)
    assert ngrams("Filter (x#12 > 5)", cfg) == ngrams("Filter (x > 5)", cfg)
    assert normalize_fact("Filter (x#12 > 5)", cfg) == "Filter (x > 5)"


def test_keep_ids_flag():
    cfg = NGramConfig(n=3, strip_ids=False)
    assert normalize_fact("Filter (x#12 > 5)", cfg) == "Filter (x#12 > 5)"


def test_whitespace_runs_collapse():
    cfg = NGramConfig(n=3)
    assert ngrams("Scan   a    b", cfg) == ngrams("Scan a b", cfg)


def test_empty_after_normalization_rejected():
    with pytest.raises(EmptyFact):
        ngrams("#12 #34", NGramConfig(n=3))


def test_n_must_be_positive():
    with pytest.raises(ValueError):
        NGramConfig(n=0)


def test_config_id_round_trip():
    for cfg in (
        NGramConfig(),
        NGramConfig(n=5, strip_ids=False, collapse_whitespace=False, dedupe=True),
    ):
        assert NGramConfig.from_id(cfg.config_id()) == cfg


def test_config_id_of_lowercased_facts_is_refused():
    with pytest.raises(ValueError, match="lower=1"):
        NGramConfig.from_id("n=3,strip_ids=1,collapse_ws=1,lower=1,dedupe=0")


# -- per-node hashes -------------------------------------------------------------

def test_fact_of_length_n_gives_single_hash():
    node = make_node(0, "Sca", fact="Sca")
    assert node_hashes_ngram(node, NGramConfig(n=3)) == [string_hash64("Sca")]


def test_identical_facts_identical_hash_lists():
    a = make_node(0, "Scan", fact="Scan lineitem")
    b = make_node(1, "Scan", fact="Scan lineitem")
    assert node_hashes_ngram(a) == node_hashes_ngram(b)


def test_repeated_gram_kept_in_multiset():
    node = make_node(0, "aaaa", fact="aaaa")
    hashes = node_hashes_ngram(node, NGramConfig(n=3))
    assert hashes == [string_hash64("aaa"), string_hash64("aaa")]


def test_dedupe_flag_collapses_repeats():
    node = make_node(0, "aaaa", fact="aaaa")
    assert node_hashes_ngram(node, NGramConfig(n=3, dedupe=True)) == [string_hash64("aaa")]


# -- graph signature --------------------------------------------------------------

def test_single_node_single_gram_signature():
    graph = QDag("one", [make_node(0, "Sca", fact="Sca")], [])
    assert node_signature_ngram(graph, NGramConfig(n=3)) == string_hash64("Sca")


def test_node_order_permutation_invariance():
    rng = random.Random(10)
    for _ in range(10):
        graph = random_dag(rng, 10, 5)
        shuffled = permuted(graph, rng)
        assert node_signature_ngram(shuffled) == node_signature_ngram(graph)


def test_signature_matches_brute_force_oracle():
    graph = QDag(
        "plan",
        [
            PlanNode(0, "Scan", "Scan [a:int, b:string]"),
            PlanNode(1, "Filter", "Filter (a > 10)"),
            PlanNode(2, "Project", "Project [a]"),
            PlanNode(3, "Exchange", "Exchange hashpartitioning(a)"),
        ],
        [(0, 1), (1, 2), (2, 3)],
    )
    cfg = NGramConfig(n=3)
    flattened = []
    for node in graph.nodes:
        flattened.extend(node_hashes_ngram(node, cfg))
    assert node_signature_ngram(graph, cfg) == simhash_oracle(flattened)


def test_unigram_config_runs_and_ignores_order_within_facts():
    cfg = NGramConfig(n=1, collapse_whitespace=False)
    a = QDag("a", [PlanNode(0, "ab", "ab cd")], [])
    b = QDag("b", [PlanNode(0, "dc", "dc ba")], [])
    assert node_signature_ngram(a, cfg) == node_signature_ngram(b, cfg)


def test_single_character_edit_moves_few_bits():
    from qdaghash.simhash import hamming

    base_nodes = [
        PlanNode(0, "Scan", "Scan [price:int, quantity:int, comment:string]"),
        PlanNode(1, "Filter", "Filter (price > 100)"),
        PlanNode(2, "Project", "Project [price, quantity]"),
    ]
    graph = QDag("base", base_nodes, [(0, 1), (1, 2)])
    edited_nodes = list(base_nodes)
    edited_nodes[1] = PlanNode(1, "Filter", "Filter (price > 900)")
    edited = QDag("base", edited_nodes, [(0, 1), (1, 2)])
    rng = random.Random(20)
    unrelated = QDag(
        "other",
        [
            PlanNode(0, "HashAggregate", "HashAggregate keys=[region] functions=[sum(sales)]"),
            PlanNode(1, "Exchange", "Exchange rangepartitioning(region)"),
        ],
        [(0, 1)],
    )
    near = hamming(node_signature_ngram(graph), node_signature_ngram(edited))
    far = hamming(node_signature_ngram(graph), node_signature_ngram(unrelated))
    assert near < far


# -- the one-pass signature against per-gram hashing ------------------------------

def reference_hashes(fact: str, cfg: NGramConfig) -> list[int]:
    """string_hash64 of each gram in order, repeats dropped under dedupe."""
    hashes = [string_hash64(g) for g in ngrams(fact, cfg)]
    return list(dict.fromkeys(hashes)) if cfg.dedupe else hashes


# Mostly arbitrary code points (multi-byte UTF-8), with id tokens and
# whitespace runs for the normalizer to act on.
facts = st.lists(
    st.text(
        st.one_of(st.sampled_from("#0123456789  \t\nab"), st.characters(codec="utf-8")),
        min_size=1,
        max_size=40,
    ),
    min_size=1,
    max_size=6,
)
configs = st.builds(
    NGramConfig,
    n=st.integers(min_value=1, max_value=20),
    collapse_whitespace=st.booleans(),
    strip_ids=st.booleans(),
    dedupe=st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(facts, configs)
def test_one_pass_signature_equals_per_gram_reference(fact_list, cfg):
    nodes = [PlanNode(i, fact[0], fact) for i, fact in enumerate(fact_list)]
    graph = QDag("plan", nodes, [])
    try:
        per_node = [reference_hashes(fact, cfg) for fact in fact_list]
    except EmptyFact:
        with pytest.raises(EmptyFact):
            node_signature_ngram(graph, cfg)
        return
    for node, expected in zip(nodes, per_node):
        assert node_hashes_ngram(node, cfg) == expected
    flat = [h for hashes in per_node for h in hashes]
    assert node_signature_ngram(graph, cfg) == simhash(flat)
