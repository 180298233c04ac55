"""Structured feature extraction and the depth-weighted node signature."""

import random

from conftest import chain_graph, make_node, permuted, random_dag
from qdaghash.edges import node_fields
from qdaghash.features import (
    FEATURE_SLOTS,
    bucket_row_width,
    extract_features,
    node_signatures_structured,
)
from qdaghash.qdag import PlanNode, QDag, structural_profile
from qdaghash.simhash import string_hash64
from test_simhash import simhash_oracle


def sigs(*graphs):
    """The structured node signature of each graph, the graphs signed as one block."""
    return node_signatures_structured(graphs, node_fields(graphs))


def node_hash(node):
    """64-bit hash of the node's feature vector rendered "v0|v1|...|v12"."""
    return string_hash64("|".join(map(str, extract_features(node).values)))


def structured_oracle(graph):
    """N(G) by its definition: each node's hash voting its depth."""
    depth = structural_profile(graph).depth
    return simhash_oracle([node_hash(node) for node in graph.nodes],
                          [depth[node.id] for node in graph.nodes])


def test_bare_scan_is_all_absent_except_operator():
    fv = extract_features(make_node(0, "Scan"))
    assert fv.values == (1,) + (0,) * (len(FEATURE_SLOTS) - 1)


def test_sort_merge_join_slots_hand_filled():
    node = make_node(
        0,
        "SortMergeJoin",
        join_algorithm="sort-merge",
        join_semantics="inner",
        build_side="left",
        num_keys=2,
    )
    fv = extract_features(node)
    # slot table: operator_code, join_algorithm, join_semantics, build_side,
    # partitioning_type, num_partitions, broadcast_mode, num_numeric_attrs,
    # num_string_attrs, num_grouping_exprs, num_result_exprs, num_keys, row_width
    assert fv.values == (10, 2, 1, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0)


def test_two_projects_differing_only_in_column_names_match():
    a = PlanNode(0, "Project", "Project [price, tax]", {"num_numeric_attrs": 2})
    b = PlanNode(0, "Project", "Project [height, width]", {"num_numeric_attrs": 2})
    assert extract_features(a) == extract_features(b)


def test_row_width_buckets_to_next_power_of_two():
    assert bucket_row_width(0) == 0
    assert bucket_row_width(1) == 1
    assert bucket_row_width(47) == 64
    assert bucket_row_width(48) == 64
    assert bucket_row_width(64) == 64
    assert bucket_row_width(65) == 128
    fv47 = extract_features(make_node(0, "Scan", row_width=47))
    fv48 = extract_features(make_node(0, "Scan", row_width=48))
    assert fv47.values == fv48.values


def test_unknown_categorical_string_lands_on_absent_sentinel():
    fv = extract_features(make_node(0, "Scan", join_semantics="sideways"))
    assert fv.values[2] == 0


def test_a_boolean_property_lands_on_absent_sentinel():
    # JSON true and false load as bool, which is an int subclass.
    fv = extract_features(make_node(0, "Scan", row_width=True, num_partitions=False))
    assert fv == extract_features(make_node(0, "Scan"))


def test_canonical_string_hash():
    # A lone node's signature is its hash, of the "v0|v1|...|v12" string.
    scan = QDag("scan", [make_node(0, "Scan")], [])
    join = QDag("join", [make_node(0, "SortMergeJoin", join_semantics="inner", num_keys=2,
                                   row_width=47)], [])
    assert sigs(scan, join) == [string_hash64("1|0|0|0|0|0|0|0|0|0|0|0|0"),
                                string_hash64("10|0|1|0|0|0|0|0|0|0|0|2|64")]


def test_single_slot_perturbations_change_the_hash():
    rng = random.Random(12)
    graphs = []
    for _ in range(100):
        values = {key: rng.randint(1, 9) for key in FEATURE_SLOTS[1:]}
        values["row_width"] = rng.randint(1, 8)  # buckets to 8 at most, 9 to 16
        slot = rng.choice(FEATURE_SLOTS[1:])
        bumped = {**values, slot: values[slot] + 1 if slot != "row_width" else 9}
        pair = [make_node(0, "Scan", **props) for props in (values, bumped)]
        a, b = (extract_features(node).values for node in pair)
        assert sum(x != y for x, y in zip(a, b)) == 1
        graphs += [QDag("g", [node], []) for node in pair]
    signatures = sigs(*graphs)
    assert all(a != b for a, b in zip(signatures[::2], signatures[1::2]))


# -- node signature -------------------------------------------------------------

def test_single_node_signature_is_the_node_hash():
    graphs = [QDag("one", [make_node(0, operator)], []) for operator in ("Scan", "Filter", "Sort")]
    assert sigs(*graphs) == [node_hash(graph.nodes[0]) for graph in graphs]


def test_node_list_permutation_invariance():
    rng = random.Random(9)
    for _ in range(10):
        graph = random_dag(rng, 12, 6)
        shuffled, original = sigs(permuted(graph, rng), graph)
        assert shuffled == original


def test_signature_matches_brute_force_oracle_on_two_join_plan():
    graph = QDag(
        "plan",
        [
            make_node(0, "Scan", num_numeric_attrs=3),
            make_node(1, "Scan", num_string_attrs=2),
            make_node(2, "SortMergeJoin", join_algorithm="sort-merge", num_keys=1),
            make_node(3, "Scan", row_width=32),
            make_node(4, "BroadcastHashJoin", join_algorithm="broadcast", num_keys=2),
            make_node(5, "Project", num_result_exprs=4),
        ],
        [(0, 2), (1, 2), (2, 4), (3, 4), (4, 5)],
    )
    chain = chain_graph("Scan", "Filter", "Project")
    assert sigs(graph, chain) == [structured_oracle(graph), structured_oracle(chain)]


def test_deep_node_outvotes_shallow_conflict():
    # Scan (depth 1) feeds Filter (depth 2): the deep node's weight 2 beats
    # the single opposing vote of weight 1 on every conflicting bit, so the
    # graph signature must equal the deep node's hash outright.
    graph = chain_graph("Scan", "Filter")
    assert structural_profile(graph).depth == {0: 1, 1: 2}
    assert sigs(graph, graph) == [node_hash(graph.nodes[1])] * 2


def test_balanced_conflict_follows_the_tally_sign():
    graph = chain_graph("Scan", "Filter", "Project")
    hashes = [node_hash(n) for n in graph.nodes]
    signature = sigs(chain_graph("Scan", "Filter"), graph)[1]
    for i in range(64):
        tally = sum(
            (depth if (h >> i) & 1 else -depth)
            for h, depth in zip(hashes, (1, 2, 3))
        )
        assert ((signature >> i) & 1) == (1 if tally > 0 else 0)


def test_renaming_fact_identifiers_never_moves_the_signature():
    graph = QDag(
        "named",
        [
            PlanNode(0, "Scan", "Scan [user_id:int, email:string]",
                     {"num_numeric_attrs": 1, "num_string_attrs": 1}),
            PlanNode(1, "Project", "Project [email]", {"num_result_exprs": 1}),
        ],
        [(0, 1)],
    )
    renamed = QDag(
        "named",
        [
            PlanNode(0, "Scan", "Scan [order_nr:int, city:string]",
                     {"num_numeric_attrs": 1, "num_string_attrs": 1}),
            PlanNode(1, "Project", "Project [city]", {"num_result_exprs": 1}),
        ],
        [(0, 1)],
    )
    original, other = sigs(graph, renamed)
    assert original == other
