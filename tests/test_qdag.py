"""Graph model validation and the structural profile maps."""

import random

import pytest
from hypothesis import given, settings

from conftest import chain_graph, dag_graphs, make_node, permuted, random_dag
from qdaghash.errors import CycleDetected, DanglingEdge, DuplicateNodeId, EmptyGraph
from qdaghash.qdag import PlanNode, QDag, structural_profile


# -- validation ---------------------------------------------------------------

def test_three_node_chain_accepted():
    graph = chain_graph("Scan", "Filter", "Project")
    assert graph.node_ids() == [0, 1, 2]
    assert graph.edges == ((0, 1), (1, 2))


def test_two_cycle_rejected():
    with pytest.raises(CycleDetected) as exc:
        QDag("bad", [make_node(0), make_node(1)], [(0, 1), (1, 0)])
    cycle = exc.value.cycle
    assert cycle[0] == cycle[-1] and set(cycle) == {0, 1}


def test_self_loop_rejected():
    with pytest.raises(CycleDetected):
        QDag("bad", [make_node(0)], [(0, 0)])


def test_dangling_edge_names_the_missing_node():
    with pytest.raises(DanglingEdge) as exc:
        QDag("bad", [make_node(0), make_node(1)], [(0, 99)])
    assert exc.value.missing_id == 99


def test_empty_graph_rejected():
    with pytest.raises(EmptyGraph):
        QDag("bad", [], [])


def test_duplicate_node_ids_rejected():
    with pytest.raises(DuplicateNodeId):
        QDag("bad", [make_node(3), make_node(3)], [])


def test_node_invariants():
    with pytest.raises(ValueError):
        PlanNode(-1, "Scan", "Scan t")
    with pytest.raises(ValueError):
        PlanNode(0, "", "x")
    with pytest.raises(ValueError):
        PlanNode(0, "Scan", "Filter t")  # fact must begin with the operator


def test_equal_graphs_hash_equal():
    a = QDag("g", [make_node(0, rows=5), make_node(1, "Filter")], [(0, 1)])
    b = QDag("g", [make_node(0, rows=5), make_node(1, "Filter")], [(0, 1)])
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_graphs_differing_only_in_node_properties_are_unequal():
    a = QDag("g", [make_node(0, rows=5), make_node(1, "Filter")], [(0, 1)])
    b = QDag("g", [make_node(0, rows=6), make_node(1, "Filter")], [(0, 1)])
    assert a != b
    assert len({a, b}) == 2


# -- structural profile --------------------------------------------------------

def test_chain_profile():
    graph = chain_graph("Scan", "Filter", "Project")  # 0 -> 1 -> 2
    profile = structural_profile(graph)
    assert profile.forward_order == {0: 0, 1: 1, 2: 2}
    assert profile.backward_order == {2: 0, 1: 1, 0: 2}
    assert profile.in_degree == {0: 0, 1: 1, 2: 1}
    assert profile.out_degree == {0: 1, 1: 1, 2: 0}
    assert profile.depth == {0: 1, 1: 2, 2: 3}


def test_singleton_profile():
    profile = structural_profile(QDag("one", [make_node(5)], []))
    assert profile.forward_order == {5: 0}
    assert profile.backward_order == {5: 0}
    assert profile.in_degree == {5: 0}
    assert profile.out_degree == {5: 0}
    assert profile.depth == {5: 1}


def test_diamond_profile_with_min_id_tie_break():
    # 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3; hand-run Kahn with a min-heap:
    # ready {0}; then {1,2} pops 1 before 2; then {3}.
    graph = QDag(
        "diamond",
        [make_node(i) for i in range(4)],
        [(0, 1), (0, 2), (1, 3), (2, 3)],
    )
    profile = structural_profile(graph)
    assert profile.forward_order == {0: 0, 1: 1, 2: 2, 3: 3}
    assert profile.depth == {0: 1, 1: 2, 2: 2, 3: 3}
    # reversed diamond: ready {3}; then {1,2}; then {0}
    assert profile.backward_order == {3: 0, 1: 1, 2: 2, 0: 3}


def test_degree_sums_equal_edge_count():
    rng = random.Random(3)
    for _ in range(20):
        graph = random_dag(rng, rng.randint(1, 30), rng.randint(0, 20))
        profile = structural_profile(graph)
        assert sum(profile.in_degree.values()) == len(graph.edges)
        assert sum(profile.out_degree.values()) == len(graph.edges)


@settings(max_examples=100)
@given(dag_graphs())
def test_topological_validity_and_depth_monotonicity(graph):
    profile = structural_profile(graph)
    for u, v in graph.edges:
        assert profile.forward_order[u] < profile.forward_order[v]
        assert profile.backward_order[v] < profile.backward_order[u]
        assert profile.depth[v] > profile.depth[u]
    ranks = sorted(profile.forward_order.values())
    assert ranks == list(range(len(graph.nodes)))


@settings(max_examples=60)
@given(dag_graphs())
def test_profile_deterministic_under_list_permutation(graph):
    profile = structural_profile(graph)
    shuffled = permuted(graph, random.Random(11))
    assert structural_profile(shuffled) == profile

