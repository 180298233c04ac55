"""Both plan formats, reuse expansion, and corpus loading."""

import json

import pytest

from qdaghash.errors import (
    CorpusLoadError,
    CycleDetected,
    DuplicatePlanId,
    EmptyPlan,
    IndentError,
    MalformedDocument,
    NegativeRuntime,
    ReferenceCycle,
    SchemaViolation,
    UnresolvedReference,
)
from qdaghash.fingerprint import FingerprintConfig, fingerprint_document
from qdaghash.ingest import (
    load_corpus,
    parse_plan_json,
    parse_plan_text,
    render_plan_json,
    resolve_reuse_references,
)
from qdaghash.qdag import PlanNode, QDag
from qdaghash.synth import build_corpus, default_spec

MINIMAL = {"plan_id": "q1", "nodes": [{"id": 0, "operator": "Scan", "fact": "Scan lineitem"}], "edges": []}


# -- JSON format ---------------------------------------------------------------

def test_minimal_document():
    doc = parse_plan_json(json.dumps(MINIMAL))
    assert doc.plan_id == "q1"
    assert doc.runtime_seconds is None
    assert len(doc.graph.nodes) == 1
    assert doc.graph.nodes[0].operator_name == "Scan"


def test_runtime_label_parsed():
    doc = parse_plan_json(json.dumps({**MINIMAL, "runtime_seconds": 4.2}))
    assert doc.runtime_seconds == 4.2


def test_self_loop_edge_rejected():
    with pytest.raises(CycleDetected):
        parse_plan_json(json.dumps({**MINIMAL, "edges": [[0, 0]]}))


def test_negative_runtime_rejected():
    with pytest.raises(NegativeRuntime):
        parse_plan_json(json.dumps({**MINIMAL, "runtime_seconds": -1}))


def test_missing_plan_id_named():
    broken = {k: v for k, v in MINIMAL.items() if k != "plan_id"}
    with pytest.raises(SchemaViolation) as exc:
        parse_plan_json(json.dumps(broken))
    assert exc.value.field == "plan_id"


def test_missing_fact_named():
    broken = {**MINIMAL, "nodes": [{"id": 0, "operator": "Scan"}]}
    with pytest.raises(SchemaViolation) as exc:
        parse_plan_json(json.dumps(broken))
    assert "fact" in exc.value.field


def test_json_syntax_error_reports_position():
    with pytest.raises(MalformedDocument) as exc:
        parse_plan_json('{"plan_id": "q1",')
    assert "line 1" in str(exc.value)


def test_unknown_property_keys_preserved_in_fact():
    doc = parse_plan_json(json.dumps({
        "plan_id": "q1",
        "nodes": [{
            "id": 0, "operator": "Scan", "fact": "Scan t",
            "properties": {"num_keys": 2, "mystery": "x"},
        }],
        "edges": [],
    }))
    node = doc.graph.nodes[0]
    assert node.properties == {"num_keys": 2}
    assert node.fact == "Scan t mystery=x"


def test_property_keys_normalized_to_schema_spelling():
    doc = parse_plan_json(json.dumps({
        "plan_id": "q1",
        "nodes": [{
            "id": 0, "operator": "Scan", "fact": "Scan t",
            "properties": {"Num Keys": 2, "ROW-WIDTH": 16},
        }],
        "edges": [],
    }))
    assert doc.graph.nodes[0].properties == {"num_keys": 2, "row_width": 16}


def test_render_parse_round_trip_on_generated_documents():
    corpus = build_corpus(default_spec(seed=5, counts=(4, 4, 4)))
    for doc in corpus.documents:
        again = parse_plan_json(render_plan_json(doc))
        assert again == doc


# -- text format ------------------------------------------------------------------

STRAIGHT = "Project [a]\n  Filter (x > 5)\n    Scan t1\n"


def test_straight_line_plan():
    doc = parse_plan_text(STRAIGHT)
    graph = doc.graph
    assert [n.operator_name for n in graph.nodes] == ["Project", "Filter", "Scan"]
    # data flows Scan -> Filter -> Project
    assert set(graph.edges) == {(1, 0), (2, 1)}
    assert graph.nodes[1].fact == "Filter (x > 5)"


def test_two_children_under_one_parent():
    doc = parse_plan_text("Union\n  Scan a\n  Scan b\n")
    assert set(doc.graph.edges) == {(1, 0), (2, 0)}


def test_indent_jump_rejected():
    with pytest.raises(IndentError):
        parse_plan_text("Project\n    Scan t\n")


def test_tab_indent_rejected():
    with pytest.raises(IndentError):
        parse_plan_text("Project\n\tScan t\n")


def test_odd_indent_rejected():
    with pytest.raises(IndentError):
        parse_plan_text("Project\n Scan t\n")


def test_second_root_rejected():
    with pytest.raises(IndentError):
        parse_plan_text("Project\nScan t\n")


def test_empty_plan_rejected():
    with pytest.raises(EmptyPlan):
        parse_plan_text("\n-- plan_id: nothing\n\n")


def test_header_lines():
    doc = parse_plan_text("-- plan_id: q7\n-- runtime_seconds: 12.5\nScan t\n")
    assert doc.plan_id == "q7"
    assert doc.runtime_seconds == 12.5


def test_property_extraction_from_fact_tokens():
    doc = parse_plan_text(
        "SortMergeJoin Inner BuildLeft keys=[a, b]\n"
        "  Sort [a ASC]\n"
        "    Exchange hashpartitioning(a, 200) partitions=200\n"
        "      Scan [a:int, b:bigint, c:string]\n"
        "  Sort [b ASC]\n"
        "    Scan u\n"
    )
    join = doc.graph.nodes[0]
    assert join.properties["join_algorithm"] == "sort-merge"
    assert join.properties["join_semantics"] == "inner"
    assert join.properties["build_side"] == "left"
    assert join.properties["num_keys"] == 2
    exchange = doc.graph.nodes[2]
    assert exchange.properties["partitioning_type"] == "hash"
    assert exchange.properties["num_partitions"] == 200
    scan = doc.graph.nodes[3]
    assert scan.properties["num_numeric_attrs"] == 2
    assert scan.properties["num_string_attrs"] == 1


def test_text_then_json_round_trip_fingerprints_identically():
    doc = parse_plan_text(STRAIGHT)
    again = parse_plan_json(render_plan_json(doc))
    for approach in ("structured", "ngram"):
        cfg = FingerprintConfig(approach=approach)
        assert fingerprint_document(again, cfg) == fingerprint_document(doc, cfg)


# -- reuse resolution ----------------------------------------------------------------

def reuse_doc():
    """Exchange subtree (ids 0,1,2) consumed twice: directly and via reuse."""
    nodes = [
        PlanNode(0, "Scan", "Scan t"),
        PlanNode(1, "Filter", "Filter (a > 1)"),
        PlanNode(2, "Exchange", "Exchange hashpartitioning(a)"),
        PlanNode(3, "HashAggregate", "HashAggregate keys=[a]"),
        PlanNode(4, "ReusedExchange", "ReusedExchange reuses=2", {"reuses": 2}),
        PlanNode(5, "SortMergeJoin", "SortMergeJoin Inner"),
    ]
    edges = [(0, 1), (1, 2), (2, 3), (3, 5), (4, 5)]
    graph = QDag("reuse", nodes, edges)
    from qdaghash.ingest import PlanDocument

    return PlanDocument("reuse", None, graph)


def test_no_reuse_nodes_is_identity():
    doc = parse_plan_text(STRAIGHT)
    assert resolve_reuse_references(doc) is doc


def test_reuse_expansion_grows_by_subtree_minus_one():
    doc = reuse_doc()
    resolved = resolve_reuse_references(doc)
    # reuse node replaced by a copy of the 3-node Exchange subtree: 6 - 1 + 3
    assert len(resolved.graph.nodes) == 8
    operators = sorted(n.operator_name for n in resolved.graph.nodes)
    assert operators.count("Exchange") == 2
    assert operators.count("Scan") == 2
    assert "ReusedExchange" not in operators
    # the copy feeds what the reuse node fed
    join_inputs = {u for u, v in resolved.graph.edges if v == 5}
    assert 3 in join_inputs
    copy_top = (join_inputs - {3}).pop()
    assert resolved.graph.node_by_id()[copy_top].operator_name == "Exchange"


def test_reuse_missing_target_rejected():
    from qdaghash.ingest import PlanDocument

    nodes = [
        PlanNode(0, "ReusedExchange", "ReusedExchange reuses=9", {"reuses": 9}),
        PlanNode(1, "Project", "Project [a]"),
    ]
    doc = PlanDocument("bad", None, QDag("bad", nodes, [(0, 1)]))
    with pytest.raises(UnresolvedReference):
        resolve_reuse_references(doc)


def test_reuse_without_property_rejected():
    from qdaghash.ingest import PlanDocument

    nodes = [
        PlanNode(0, "ReusedExchange", "ReusedExchange"),
        PlanNode(1, "Project", "Project [a]"),
    ]
    doc = PlanDocument("bad", None, QDag("bad", nodes, [(0, 1)]))
    with pytest.raises(UnresolvedReference):
        resolve_reuse_references(doc)


def test_mutual_reuse_chain_rejected():
    from qdaghash.ingest import PlanDocument

    # each reuse node's target subtree contains the other reuse node
    nodes = [
        PlanNode(0, "ReusedExchange", "ReusedExchange reuses=1", {"reuses": 1}),
        PlanNode(1, "Exchange", "Exchange a"),
        PlanNode(2, "ReusedExchange", "ReusedExchange reuses=3", {"reuses": 3}),
        PlanNode(3, "Exchange", "Exchange b"),
        PlanNode(4, "Union", "Union"),
    ]
    edges = [(2, 1), (0, 3), (1, 4), (3, 4)]
    doc = PlanDocument("cycle", None, QDag("cycle", nodes, edges))
    with pytest.raises(ReferenceCycle):
        resolve_reuse_references(doc)


def test_self_reference_rejected():
    from qdaghash.ingest import PlanDocument

    nodes = [
        PlanNode(0, "ReusedExchange", "ReusedExchange reuses=0", {"reuses": 0}),
        PlanNode(1, "Project", "Project [a]"),
    ]
    doc = PlanDocument("self", None, QDag("self", nodes, [(0, 1)]))
    with pytest.raises(ReferenceCycle):
        resolve_reuse_references(doc)


def test_resolution_is_idempotent():
    resolved = resolve_reuse_references(reuse_doc())
    assert resolve_reuse_references(resolved) is resolved


def test_nested_reuse_expands_transitively():
    from qdaghash.ingest import PlanDocument

    # reuse 5 points at Exchange 4, whose subtree contains reuse 3
    # pointing at Exchange 1 (subtree {0,1}).
    nodes = [
        PlanNode(0, "Scan", "Scan t"),
        PlanNode(1, "Exchange", "Exchange a"),
        PlanNode(2, "HashAggregate", "HashAggregate keys=[a]"),
        PlanNode(3, "ReusedExchange", "ReusedExchange reuses=1", {"reuses": 1}),
        PlanNode(4, "Exchange", "Exchange b"),
        PlanNode(5, "ReusedExchange", "ReusedExchange reuses=4", {"reuses": 4}),
        PlanNode(6, "Union", "Union"),
    ]
    edges = [(0, 1), (1, 2), (3, 4), (4, 6), (5, 6), (2, 6)]
    doc = PlanDocument("nested", None, QDag("nested", nodes, edges))
    resolved = resolve_reuse_references(doc)
    names = [n.operator_name for n in resolved.graph.nodes]
    assert "ReusedExchange" not in names
    # inner reuse copies {0,1}; outer reuse copies the resolved 3-node
    # subtree of Exchange 4: 7 - 2 reuse + 2 + 3 = 10 nodes
    assert len(resolved.graph.nodes) == 10
    assert names.count("Scan") == 3  # original + inner copy + outer copy


def test_reuse_of_a_reuse_follows_the_chain():
    from qdaghash.ingest import PlanDocument

    # node 3 reuses Exchange 1; node 4 reuses node 3 (a reuse node), which
    # must resolve to a fresh copy of the same expanded subtree.
    nodes = [
        PlanNode(0, "Scan", "Scan t"),
        PlanNode(1, "Exchange", "Exchange a"),
        PlanNode(2, "Union", "Union"),
        PlanNode(3, "ReusedExchange", "ReusedExchange reuses=1", {"reuses": 1}),
        PlanNode(4, "ReusedExchange", "ReusedExchange reuses=3", {"reuses": 3}),
    ]
    edges = [(0, 1), (1, 2), (3, 2), (4, 2)]
    doc = PlanDocument("chain", None, QDag("chain", nodes, edges))
    resolved = resolve_reuse_references(doc)
    names = sorted(n.operator_name for n in resolved.graph.nodes)
    assert "ReusedExchange" not in names
    # original {Scan, Exchange} + two independent copies of it + Union
    assert names.count("Scan") == 3
    assert names.count("Exchange") == 3
    assert len(resolved.graph.nodes) == 7
    union_inputs = {u for u, v in resolved.graph.edges if v == 2}
    assert len(union_inputs) == 3


# -- corpus loading ------------------------------------------------------------------

def test_directory_loads_sorted_by_filename(tmp_path):
    for name, pid in (("b.json", "p2"), ("a.json", "p1"), ("c.plan", "p3")):
        if name.endswith(".json"):
            (tmp_path / name).write_text(json.dumps({
                "plan_id": pid, "runtime_seconds": 1.0,
                "nodes": [{"id": 0, "operator": "Scan", "fact": "Scan t"}],
                "edges": [],
            }))
        else:
            (tmp_path / name).write_text(f"-- plan_id: {pid}\nScan t\n")
    corpus = load_corpus(tmp_path)
    assert [d.plan_id for d in corpus.documents] == ["p1", "p2", "p3"]


def test_malformed_file_reported_by_name(tmp_path):
    (tmp_path / "good.json").write_text(json.dumps({
        "plan_id": "ok", "nodes": [{"id": 0, "operator": "Scan", "fact": "Scan t"}], "edges": [],
    }))
    (tmp_path / "broken.json").write_text("{nope")
    with pytest.raises(CorpusLoadError) as exc:
        load_corpus(tmp_path)
    assert "broken.json" in str(exc.value)


def test_non_utf8_text_plan_reported_by_name(tmp_path):
    (tmp_path / "good.plan").write_text("Scan t\n")
    (tmp_path / "latin1.plan").write_bytes("Scan caf\u00e9\n".encode("latin-1"))
    with pytest.raises(CorpusLoadError) as exc:
        load_corpus(tmp_path)
    [(name, error)] = exc.value.failures
    assert name == "latin1.plan"
    assert isinstance(error, MalformedDocument)


def test_duplicate_plan_id_rejected(tmp_path):
    for name in ("x.json", "y.json"):
        (tmp_path / name).write_text(json.dumps({
            "plan_id": "q1", "nodes": [{"id": 0, "operator": "Scan", "fact": "Scan t"}], "edges": [],
        }))
    with pytest.raises(DuplicatePlanId):
        load_corpus(tmp_path)


def test_empty_directory_rejected(tmp_path):
    with pytest.raises(CorpusLoadError):
        load_corpus(tmp_path)


def test_text_plan_without_header_uses_filename_stem(tmp_path):
    (tmp_path / "stages.plan").write_text("Scan t\n")
    corpus = load_corpus(tmp_path)
    assert corpus.documents[0].plan_id == "stages"
