"""Edge-signature packing, aggregation, and locality behavior, through the
block kernel: node_fields rows of several graphs, signed in one call."""

import random
import statistics

from conftest import OPERATOR_POOL, chain_graph, make_node, permuted, random_dag
from qdaghash.edges import EDGE_FIELD_LAYOUT, edge_signatures, node_fields
from qdaghash.operators import operator_code
from qdaghash.qdag import QDag, structural_profile
from qdaghash.simhash import hamming


def sigs(*graphs):
    """The edge signature of each graph, the graphs signed as one block."""
    profiles = [structural_profile(graph) for graph in graphs]
    return edge_signatures(node_fields(graphs, profiles), [len(graph.nodes) for graph in graphs])


SINGLE_SCAN = QDag("one", [make_node(0, "Scan")], [])


def test_layout_is_disjoint_and_leaves_low_byte_zero():
    taken = 0
    for _, width, offset in EDGE_FIELD_LAYOUT:
        mask = ((1 << width) - 1) << offset
        assert taken & mask == 0, "overlapping fields"
        taken |= mask
    assert taken & 0xFF == 0
    assert sum(width for _, width, _ in EDGE_FIELD_LAYOUT) == 56


def test_source_fields_are_the_target_fields_shifted_by_one_amount():
    sources, targets = EDGE_FIELD_LAYOUT[:5], EDGE_FIELD_LAYOUT[5:]
    shifts = set()
    for (src_name, src_width, src_offset), (tgt_name, tgt_width, tgt_offset) in zip(sources, targets):
        assert src_name.removeprefix("src_") == tgt_name.removeprefix("tgt_")
        assert src_width == tgt_width
        shifts.add(src_offset - tgt_offset)
    assert len(shifts) == 1


def test_single_edge_hand_packed_word():
    # Scan(code 1, fwd 0, bwd 1, in 0, out 1) -> Filter(code 2, fwd 1, bwd 0, in 1, out 0)
    # packed by hand against the layout table:
    #   1<<58 | 1<<42 | 1<<36 | 2<<30 | 1<<22 | 1<<11
    expected = 0x0400041080400800
    graph = chain_graph("Scan", "Filter")
    assert sigs(graph, SINGLE_SCAN, graph) == [expected, 1 << 58, expected]


def test_zero_edge_graph_packs_node_in_source_fields():
    # lone node: code 1, fwd 0, bwd 0, in 0, out 0; target fields zero
    assert sigs(SINGLE_SCAN, chain_graph("Scan", "Filter"), SINGLE_SCAN)[::2] == [1 << 58] * 2


def test_edge_list_permutation_leaves_signature_unchanged():
    rng = random.Random(2)
    for _ in range(10):
        graph = random_dag(rng, 12, 8)
        shuffled, original = sigs(permuted(graph, rng), graph)
        assert shuffled == original


def pack_oracle(values):
    """Independent re-statement of the layout: clamp, shift, or."""
    widths = (6, 8, 8, 3, 3, 6, 8, 8, 3, 3)
    offsets = (58, 50, 42, 39, 36, 30, 22, 14, 11, 8)
    word = 0
    for value, width, offset in zip(values, widths, offsets):
        word |= min(value, (1 << width) - 1) << offset
    return word


def per_edge_oracle(graph):
    """S(G) by its definition: the wrapped sum of one packed word per edge,
    repeats included; an edgeless graph packs each node in the source fields."""
    profile = structural_profile(graph)
    code = {node.id: operator_code(node.operator_name) for node in graph.nodes}

    def fields(n):
        return (
            code[n], profile.forward_order[n], profile.backward_order[n],
            profile.in_degree[n], profile.out_degree[n],
        )

    words = [pack_oracle(fields(u) + fields(v)) for u, v in graph.edges] or [
        pack_oracle(fields(node.id) + (0, 0, 0, 0, 0)) for node in graph.nodes
    ]
    return sum(words) & 0xFFFFFFFFFFFFFFFF


def test_one_pass_sum_equals_per_edge_sum_with_repeated_edges():
    rng = random.Random(6)
    graphs = []
    for _ in range(60):
        graph = random_dag(rng, rng.randint(2, 25), rng.randint(0, 15))
        repeats = rng.choices(graph.edges, k=rng.randint(1, 10))
        graphs.append(QDag(graph.id, graph.nodes, graph.edges + tuple(repeats)))
    assert sigs(*graphs) == [per_edge_oracle(graph) for graph in graphs]


def test_one_pass_sum_equals_per_edge_sum_on_edgeless_graphs():
    graphs = [QDag("one", [make_node(0, operator)], []) for operator in OPERATOR_POOL]
    graphs.append(QDag("three", [make_node(i, op) for i, op in enumerate(OPERATOR_POOL[:3])], []))
    assert sigs(*graphs) == [per_edge_oracle(graph) for graph in graphs]


def test_field_saturation_on_a_300_node_chain():
    graph = chain_graph(*["Scan"] * 301)
    profile = structural_profile(graph)
    assert profile.forward_order[300] == 300  # exceeds the 8-bit field

    total = 0
    for u, v in graph.edges:
        fields = (
            1, profile.forward_order[u], profile.backward_order[u],
            profile.in_degree[u], profile.out_degree[u],
            1, profile.forward_order[v], profile.backward_order[v],
            profile.in_degree[v], profile.out_degree[v],
        )
        total = (total + pack_oracle(fields)) & 0xFFFFFFFFFFFFFFFF
    assert sigs(SINGLE_SCAN, graph)[1] == total


def test_one_pass_sum_equals_per_edge_sum_past_order_saturation():
    graph = chain_graph(*(OPERATOR_POOL[i % len(OPERATOR_POOL)] for i in range(260)))
    profile = structural_profile(graph)
    assert profile.forward_order[259] == profile.backward_order[0] == 259  # past 255
    assert sigs(graph, SINGLE_SCAN) == [per_edge_oracle(graph), per_edge_oracle(SINGLE_SCAN)]


def test_one_pass_sum_equals_per_edge_sum_past_degree_saturation():
    # Node 0 consumes ten sources (one twice) and feeds nine sinks: degrees
    # 11 and 9 exceed the 3-bit fields.
    nodes = [make_node(i, "HashAggregate" if i == 0 else "Scan") for i in range(20)]
    edges = [(i, 0) for i in range(1, 11)] + [(1, 0)] + [(0, j) for j in range(11, 20)]
    graph = QDag("hub", nodes, edges)
    profile = structural_profile(graph)
    assert (profile.in_degree[0], profile.out_degree[0]) == (11, 9)
    assert sigs(SINGLE_SCAN, graph) == [per_edge_oracle(SINGLE_SCAN), per_edge_oracle(graph)]


def test_one_leaf_operator_change_moves_signature_locally():
    rng = random.Random(4)
    graph = random_dag(rng, 15, 10)
    nodes = list(graph.nodes)
    # change one source node's operator
    profile = structural_profile(graph)
    leaf = min(i for i, n in enumerate(nodes) if profile.in_degree[n.id] == 0)
    changed = QDag(
        graph.id,
        [
            make_node(n.id, "Window" if i == leaf else n.operator_name)
            for i, n in enumerate(nodes)
        ],
        graph.edges,
    )
    local = hamming(*sigs(graph, changed))
    assert 0 < local

    others = sigs(*(random_dag(rng, rng.randint(5, 20), rng.randint(0, 10)) for _ in range(120)))
    random_pairs = [hamming(a, b) for a, b in zip(others[::2], others[1::2])]
    assert local < statistics.mean(random_pairs)


def test_deterministic_across_runs_in_process():
    rng = random.Random(5)
    graph = random_dag(rng, 20, 12)
    first, again = sigs(graph, graph)
    assert first == again == sigs(graph)[0]
