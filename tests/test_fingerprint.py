"""Fingerprinting in blocks: fingerprint_documents against one plan at a time."""

import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import OPERATOR_POOL, dag_graphs, make_node
from qdaghash import fingerprint, forkmap, qdag
from qdaghash.cli import main
from qdaghash.errors import MalformedDocument, SchemaViolation
from qdaghash.edges import edge_signatures, node_fields
from qdaghash.features import node_signatures_structured
from qdaghash.fingerprint import (
    Fingerprint128,
    FingerprintConfig,
    fingerprint_document,
    fingerprint_documents,
    fingerprint_graph,
)
from qdaghash.ingest import PlanDocument
from qdaghash.ngrams import NGramConfig, node_signatures_ngram
from qdaghash.operators import operator_code
from qdaghash.qdag import QDag
from qdaghash.synth import build_corpus, default_spec
from test_edges import per_edge_oracle
from test_features import structured_oracle

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "perfbench" / "golden_fingerprints.json"


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


@pytest.fixture(scope="module")
def check_set_files(tmp_path_factory):
    """The golden check set written as the benchmark writes it: JSON files."""
    sys.path.insert(0, str(ROOT))  # perfbench sits beside src, uninstalled
    try:
        from perfbench.inputs import write_check_set
    finally:
        sys.path.remove(str(ROOT))
    out = tmp_path_factory.mktemp("check") / "check"
    write_check_set(out)
    return sorted(out.glob("*.json"))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("approach", ["structured", "ngram"])
def test_the_cli_gives_the_golden_fingerprints_of_the_check_set_files(
    check_set_files, monkeypatch, capsys, approach, workers
):
    monkeypatch.setattr(forkmap, "usable_cpus", lambda: workers)
    assert main(["fingerprint", "--json", "--approach", approach, *map(str, check_set_files)]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[approach]
    assert {line["plan_id"]: f"{line['edge_fp']} {line['node_fp']}" for line in lines} == golden
    assert len(lines) == len(check_set_files) == 301


def plans_before(docs, error):
    """The plan ids fingerprint_documents yields before it raises error."""
    plan_ids = []
    with pytest.raises(error):
        for plan in fingerprint_documents(docs):
            plan_ids.append(plan.plan_id)
    return plan_ids


@pytest.mark.parametrize("block_chars", [1, 3000, 1 << 30])
def test_an_error_reading_docs_comes_after_the_plans_before_it(corpus42, monkeypatch, block_chars):
    monkeypatch.setattr(fingerprint, "BLOCK_CHARS", block_chars)

    def docs():
        yield from corpus42[:12]
        raise MalformedDocument("unreadable")

    assert plans_before(docs(), MalformedDocument) == [doc.plan_id for doc in corpus42[:12]]


@pytest.mark.parametrize("block_chars", [1, 3000, 1 << 30])
def test_a_plan_the_block_kernels_refuse_comes_after_the_plans_before_it(
    corpus42, monkeypatch, block_chars
):
    monkeypatch.setattr(fingerprint, "BLOCK_CHARS", block_chars)
    # A row width whose power-of-two bucket has more digits than str() renders.
    wide = QDag("wide", [make_node(0, "Scan", row_width=int("9" * 4300))], [])
    docs = [*corpus42[:12], PlanDocument("wide", None, wide), *corpus42[12:20]]
    assert plans_before(docs, SchemaViolation) == [doc.plan_id for doc in corpus42[:12]]


def test_a_plan_is_sorted_topologically_twice(corpus42, monkeypatch):
    # Forward and backward, both when the graph is validated into its node
    # columns; fingerprinting reads the columns and sorts nothing more.
    calls = []
    kahn = qdag._kahn
    monkeypatch.setattr(qdag, "_kahn", lambda *args: calls.append(1) or kahn(*args))
    docs = build_corpus(default_spec(seed=42, counts=(5, 5, 5))).documents
    assert len(calls) == 2 * len(docs)
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


@pytest.mark.parametrize("make,message", [
    (lambda: Fingerprint128(1 << 64, 0, "structured"),
     "signature out of 64-bit range: 18446744073709551616"),
    (lambda: Fingerprint128(0, -1, "ngram"), "signature out of 64-bit range: -1"),
    (lambda: Fingerprint128(0, 0, "minhash"), "unknown approach 'minhash'"),
    (lambda: FingerprintConfig("minhash"), "unknown approach 'minhash'"),
], ids=["edge-past-64-bits", "negative-node", "fingerprint-approach", "config-approach"])
def test_a_fingerprint_or_config_out_of_range_is_refused(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


@pytest.mark.parametrize("signatures", [
    lambda: edge_signatures(node_fields([]), []),
    lambda: node_signatures_structured([], node_fields([])),
    lambda: node_signatures_ngram([], NGramConfig()),
    lambda: fingerprint._fingerprint_block([], FingerprintConfig("structured")),
    lambda: fingerprint._fingerprint_block([], FingerprintConfig("ngram")),
], ids=["edge", "structured-node", "ngram-node", "structured-block", "ngram-block"])
def test_an_empty_block_has_no_signatures(signatures):
    assert signatures() == []
