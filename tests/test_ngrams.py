"""N-gram shingling, fact normalization, and the uniform-weight signature."""

import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_node, permuted, random_dag
from qdaghash.errors import EmptyFact
from qdaghash.ngrams import (
    NGramConfig,
    _gram_hashes,
    ngrams,
    node_signatures_ngram,
    normalize_fact,
)
from qdaghash.qdag import PlanNode, QDag
from qdaghash.simhash import string_hash64
from test_simhash import simhash_oracle, tally


def sigs(*graphs, cfg=NGramConfig()):
    """The n-gram node signature of each graph, the graphs signed as one block."""
    return node_signatures_ngram(graphs, cfg)


def lone(fact):
    return QDag("one", [PlanNode(0, fact.split()[0], fact)], [])


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


NORMALIZE_CONFIGS = [
    NGramConfig(strip_ids=strip, collapse_whitespace=collapse)
    for strip in (True, False) for collapse in (True, False)
]


def normalize_reference(fact, cfg):
    """normalize_fact as two regex substitutions."""
    if cfg.strip_ids:
        fact = re.sub(r"#\d+", "", fact)
    if cfg.collapse_whitespace:
        fact = re.sub(r"\s+", " ", fact).strip()
    return fact


def test_normalize_matches_the_regexes_on_every_code_point():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    whitespace = re.findall(r"\s", every)
    assert {"\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u3000"} <= set(whitespace)
    # Each code point alone between letters, doubled, and at both ends.
    facts = ["a".join(every), "ab".join(c * 2 for c in every), f"{every}x{every}"]
    facts += [f"{c}Scan{c}t#1{c}" for c in whitespace]
    for cfg in NORMALIZE_CONFIGS:
        for fact in facts:
            assert normalize_fact(fact, cfg) == normalize_reference(fact, cfg)


@pytest.mark.parametrize("fact", [
    "Filter (x#12 > 5)", "#7 Scan", "Scan a##3#b#", "Project x#\u0663\u0664 y#", "Sort #12#34 \x85 #",
])
def test_normalize_matches_the_regexes_on_expression_ids(fact):
    for cfg in NORMALIZE_CONFIGS:
        assert normalize_fact(fact, cfg) == normalize_reference(fact, cfg)


@settings(max_examples=200)
@given(st.text(alphabet=st.sampled_from("ab#17 \t\n\x1f\x85\xa0\u3000\u0663")))
def test_normalize_matches_the_regexes_on_drawn_facts(fact):
    for cfg in NORMALIZE_CONFIGS:
        assert normalize_fact(fact, cfg) == normalize_reference(fact, cfg)


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
    # A lone node of one gram signs as that gram's hash.
    assert sigs(lone("Sca"), lone("Scan"), cfg=NGramConfig(n=3))[0] == string_hash64("Sca")


def test_identical_facts_identical_hash_lists():
    a = QDag("a", [make_node(0, "Scan", fact="Scan lineitem")], [])
    b = QDag("b", [make_node(1, "Scan", fact="Scan lineitem")], [])
    first, second = sigs(a, b)
    assert first == second


def test_repeated_gram_kept_in_multiset():
    # "aaaab" has grams aaa, aaa, aab: twice "aaa" outvotes "aab" on every bit.
    assert sigs(lone("aaaab"), lone("aab"), cfg=NGramConfig(n=3)) == [
        string_hash64("aaa"), string_hash64("aab")]


def test_dedupe_flag_collapses_repeats():
    # Deduped, "aaa" and "aab" tie wherever they differ, and ties go to 0.
    aaa, aab = string_hash64("aaa"), string_hash64("aab")
    assert sigs(lone("aaaab"), lone("aaaa"), cfg=NGramConfig(n=3, dedupe=True)) == [aaa & aab, aaa]


# -- graph signature --------------------------------------------------------------

def test_single_node_single_gram_signature():
    graph = QDag("one", [make_node(0, "Sca", fact="Sca")], [])
    two = QDag("two", [make_node(0, "Sca", fact="Sca"), make_node(1, "Sca", fact="Sca")], [(0, 1)])
    assert sigs(graph, two, cfg=NGramConfig(n=3)) == [string_hash64("Sca")] * 2


def test_node_order_permutation_invariance():
    rng = random.Random(10)
    for _ in range(10):
        graph = random_dag(rng, 10, 5)
        shuffled, original = sigs(permuted(graph, rng), graph)
        assert shuffled == original


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
    grams = [[string_hash64(gram) for gram in ngrams(node.fact, cfg)] for node in graph.nodes]
    flattened = [h for hashes in grams for h in hashes]
    assert sigs(graph, *map(lone, (n.fact for n in graph.nodes)), cfg=cfg) == [
        simhash_oracle(flattened), *map(simhash_oracle, grams)]


def test_unigram_config_runs_and_ignores_order_within_facts():
    cfg = NGramConfig(n=1, collapse_whitespace=False)
    a = QDag("a", [PlanNode(0, "ab", "ab cd")], [])
    b = QDag("b", [PlanNode(0, "dc", "dc ba")], [])
    first, second = sigs(a, b, cfg=cfg)
    assert first == second


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
    base, edit, other = sigs(graph, edited, unrelated)
    near, far = hamming(base, edit), hamming(base, other)
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
    # The plan, then each node alone, in one block.
    block = [QDag("plan", nodes, []), *(QDag("one", [node], []) for node in nodes)]
    try:
        per_node = [reference_hashes(fact, cfg) for fact in fact_list]
    except EmptyFact:
        with pytest.raises(EmptyFact):
            node_signatures_ngram(block, cfg)
        return
    hashes, counts = _gram_hashes(fact_list, cfg)
    assert hashes.tolist() == [h for node_hashes in per_node for h in node_hashes]
    assert counts.tolist() == list(map(len, per_node))
    runs = [(hashes.tolist(), None), *((node_hashes, None) for node_hashes in per_node)]
    assert node_signatures_ngram(block, cfg) == tally(runs)
