"""Fingerprinting in blocks: fingerprint_documents against one plan at a time."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import OPERATOR_POOL, dag_graphs, make_node
from qdaghash import fingerprint, qdag
from qdaghash.fingerprint import (
    FingerprintConfig,
    fingerprint_document,
    fingerprint_documents,
    fingerprint_graph,
)
from qdaghash.ngrams import NGramConfig
from qdaghash.operators import operator_code
from qdaghash.qdag import QDag
from qdaghash.synth import build_corpus, default_spec
from test_edges import per_edge_oracle
from test_features import structured_oracle

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden_fingerprints.json"


@pytest.fixture(scope="module")
def corpus42():
    """The golden check set's 300 plans."""
    return build_corpus(default_spec(seed=42)).documents


CONFIGS = [
    FingerprintConfig("structured"),
    FingerprintConfig("ngram"),
    FingerprintConfig("ngram", NGramConfig(dedupe=True)),
]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.approach}-{c.ngram.config_id()}")
@pytest.mark.parametrize("block_chars", [1, 500, 3000, 1 << 30])
def test_blocks_equal_one_plan_at_a_time(corpus42, monkeypatch, config, block_chars):
    # From one plan per block to the whole corpus in one.
    monkeypatch.setattr(fingerprint, "BLOCK_CHARS", block_chars)
    plans = list(fingerprint_documents(iter(corpus42), config))
    assert [plan.plan_id for plan in plans] == [doc.plan_id for doc in corpus42]
    assert [plan.runtime_seconds for plan in plans] == [doc.runtime_seconds for doc in corpus42]
    assert [plan.fingerprint for plan in plans] == [
        fingerprint_document(doc, config) for doc in corpus42
    ]


@pytest.mark.parametrize("approach", ["structured", "ngram"])
def test_blocks_give_the_golden_fingerprints(corpus42, approach):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[approach]
    for plan in fingerprint_documents(corpus42, FingerprintConfig(approach)):
        assert f"{plan.fingerprint.edge_hex} {plan.fingerprint.node_hex}" == golden[plan.plan_id]


def test_a_plan_is_sorted_topologically_twice(corpus42, monkeypatch):
    # Once forward, when the graph is validated, and once backward, for its
    # profile; the profile reuses the forward order of the validation.
    calls = []
    topological_order = qdag._topological_order
    monkeypatch.setattr(
        qdag, "_topological_order", lambda *args: calls.append(1) or topological_order(*args)
    )
    docs = build_corpus(default_spec(seed=42, counts=(5, 5, 5))).documents
    assert len(calls) == len(docs)
    list(fingerprint_documents(docs))
    assert len(calls) == 2 * len(docs)


# Names outside the packaged table take the fallback codes 32..62.
UNKNOWN_OPERATORS = ("MyCustomOp", "PhotonScan", "UdfExec")
OPERATORS = st.sampled_from(OPERATOR_POOL + UNKNOWN_OPERATORS)
PROPERTIES = st.dictionaries(
    st.sampled_from(["num_keys", "row_width", "join_algorithm", "build_side", "location"]),
    st.one_of(st.integers(-3, 300), st.sampled_from(["hash", "left", "s3://wh/x"])),
    max_size=3,
)


@st.composite
def plan_nodes(draw, count):
    return [
        make_node(i, draw(OPERATORS), **draw(PROPERTIES)) for i in range(count)
    ]


@st.composite
def edgeless_graphs(draw):
    return QDag("edgeless", draw(plan_nodes(draw(st.integers(1, 4)))), [])


@st.composite
def long_chains(draw):
    # Past 255 nodes the 8-bit order fields saturate.
    count = draw(st.integers(256, 300))
    return QDag("chain", draw(plan_nodes(count)), [(i, i + 1) for i in range(count - 1)])


@st.composite
def hub_graphs(draw):
    # Node 0 takes fan_in sources and feeds fan_out sinks, one of them past
    # the 3-bit degree fields; an edge may repeat.
    fan_in, fan_out = draw(st.integers(0, 12)), draw(st.integers(8, 12))
    if draw(st.booleans()):
        fan_in, fan_out = fan_out, fan_in
    nodes = draw(plan_nodes(1 + fan_in + fan_out))
    edges = [(i, 0) for i in range(1, fan_in + 1)]
    edges += [(0, j) for j in range(fan_in + 1, fan_in + fan_out + 1)]
    edges += draw(st.lists(st.sampled_from(edges), max_size=2))
    return QDag("hub", nodes, edges)


@st.composite
def mixed_blocks(draw):
    block = [draw(edgeless_graphs()), draw(long_chains()), draw(hub_graphs())]
    block += draw(st.lists(st.one_of(edgeless_graphs(), dag_graphs()), max_size=3))
    unknown = make_node(1, draw(st.sampled_from(UNKNOWN_OPERATORS)), **draw(PROPERTIES))
    block.append(QDag("unknown", [*draw(plan_nodes(1)), unknown], [(0, 1)]))
    return draw(st.permutations(block))


@settings(max_examples=20, deadline=None)
@given(mixed_blocks())
def test_a_block_fingerprints_as_its_plans_do_alone(block):
    assert any(operator_code(node.operator_name) >= 32 for graph in block for node in graph.nodes)
    for config in CONFIGS:
        assert fingerprint._fingerprint_block(block, config) == [
            fingerprint_graph(graph, config) for graph in block
        ]
    structured = fingerprint._fingerprint_block(block, FingerprintConfig("structured"))
    assert [fp.edge_sig for fp in structured] == [per_edge_oracle(graph) for graph in block]
    assert [fp.node_sig for fp in structured] == [structured_oracle(graph) for graph in block]
