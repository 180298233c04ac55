"""Both plan formats, reuse expansion, and corpus loading."""

import json
import time
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import nested_reuse_plan, wide_reuse_plan
from qdaghash import ingest
from qdaghash.errors import (
    CorpusLoadError,
    CycleDetected,
    DuplicatePlanId,
    EmptyPlan,
    ExpansionTooLarge,
    IndentError,
    MalformedDocument,
    NegativeRuntime,
    QdagHashError,
    ReferenceCycle,
    SchemaViolation,
    UnresolvedReference,
)
from qdaghash.fingerprint import APPROACHES, FingerprintConfig, fingerprint_document
from qdaghash.ingest import (
    PlanDocument,
    load_corpus,
    load_plan_file,
    parse_plan_json,
    parse_plan_text,
    render_plan_json,
    resolve_reuse_references,
)
from qdaghash.qdag import PlanNode, QDag
from qdaghash.synth import build_corpus, default_spec
from reuse_reference import reference_resolve

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


@pytest.mark.parametrize("parse", [
    lambda: parse_plan_json(json.dumps({**MINIMAL, "plan_id": "q\ud800"})),
    lambda: parse_plan_text("-- plan_id: q\ud800\nScan t\n"),
    lambda: parse_plan_text("Scan t\n", plan_id="\udcff"),
], ids=["json", "text-header", "filename-stem"])
def test_plan_id_that_is_not_unicode_rejected(parse):
    with pytest.raises(SchemaViolation) as exc:
        parse()
    assert exc.value.field == "plan_id"


@pytest.mark.parametrize("parse,error", [
    (lambda: parse_plan_json("[" * 100_000), MalformedDocument),
    (lambda: parse_plan_json('{"a": ' * 100_000), MalformedDocument),
    (lambda: parse_plan_json(json.dumps(MINIMAL).replace('"id": 0', '"id": ' + "9" * 5000)),
     MalformedDocument),
    (lambda: parse_plan_text("Exchange partitions=" + "9" * 5000), MalformedDocument),
    (lambda: parse_plan_text("Union\n  ReusedExchange reuses=" + "9" * 5000), MalformedDocument),
    (lambda: parse_plan_text("Scan t\udcff"), MalformedDocument),
    (lambda: parse_plan_json(json.dumps({**MINIMAL, "nodes": [
        {"id": 0, "operator": "Scan", "fact": "Scan t\ud800"}]})), SchemaViolation),
    (lambda: parse_plan_json(json.dumps({**MINIMAL, "nodes": [
        {"id": 0, "operator": "Scan", "fact": "Scan t", "properties": {"x": "\udfff"}}]})),
     SchemaViolation),
], ids=["deep-array", "deep-object", "long-integer", "long-partitions", "long-reuses",
        "text-surrogate", "json-surrogate", "json-property-surrogate"])
def test_hostile_input_fails_with_a_typed_error(parse, error):
    # Python's own limits (decoder recursion depth, int() digit count) and
    # text no fingerprint can encode surface as input errors.
    with pytest.raises(error):
        parse()


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


def test_reuse_expansion_budget():
    def resolve(levels, padding=0):
        return resolve_reuse_references(parse_plan_json(json.dumps(nested_reuse_plan(levels, padding))))

    # 25 nodes -> 8191, under the 10_000 floor of the budget
    assert len(resolve(12).graph.nodes) == 2**13 - 1
    # 27 nodes -> 16383, past it
    with pytest.raises(ExpansionTooLarge) as exc:
        resolve(13)
    assert (exc.value.input_nodes, exc.value.budget) == (27, 10_000)
    # 327 nodes -> 16683, under 64 * 327 = 20928
    assert len(resolve(13, padding=300).graph.nodes) == 2**14 - 1 + 300
    with pytest.raises(ExpansionTooLarge) as exc:
        resolve(13, padding=200)  # 227 nodes -> 16583, past 64 * 227 = 14528
    assert exc.value.budget == 14528


@st.composite
def reuse_dags(draw, max_nodes: int = 12) -> PlanDocument:
    """A random DAG whose nodes may be reuse nodes. Targets may be plain
    nodes, other reuse nodes (chains), the node itself, its ancestors,
    missing or not an integer; some draws also add edges into reuse nodes
    and repeat edges."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    position = draw(st.permutations(range(n)))  # edges run up this order
    operators = [draw(st.sampled_from(("Scan", "Filter", "Project", "Exchange", "HashAggregate",
                                       "Union", "ReusedExchange", "ReusedSubquery")))
                 for _ in range(n)]
    reuse = [i for i, op in enumerate(operators) if op.startswith("Reused")]
    into_reuse = draw(st.booleans()) and draw(st.booleans())
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = [
        (u, v) for u, v in draw(st.lists(pairs, max_size=3 * n))
        if position[u] < position[v] and (into_reuse or v not in reuse)
    ]

    def target(i: int):
        kind = draw(st.integers(0, 19))
        if kind == 0:
            return draw(st.sampled_from([n, 10**6, "x", True, None]))
        if kind <= 5:  # a chain, or the node itself
            return draw(st.sampled_from(reuse))
        if kind <= 8:  # any node: one the reuse node feeds makes a cycle
            return draw(st.integers(0, n - 1))
        upstream = [j for j in range(n) if position[j] < position[i]]
        return draw(st.sampled_from(upstream or [i]))

    nodes = []
    for i, op in enumerate(operators):
        reuses = target(i) if i in reuse else None
        nodes.append(PlanNode(i, op, f"{op} n{i}", {} if reuses is None else {"reuses": reuses}))
    order = draw(st.permutations(nodes))
    return PlanDocument("drawn", None, QDag("drawn", order, edges))


def expansion_outcome(resolve, doc):
    """The expanded node tuple and edge multiset, or the error class and message."""
    try:
        graph = resolve(doc).graph
    except QdagHashError as exc:
        return type(exc), str(exc)
    return graph.nodes, Counter(graph.edges)


@settings(max_examples=500, deadline=None)
@given(reuse_dags())
def test_reuse_expansion_equals_reference(doc):
    assert expansion_outcome(resolve_reuse_references, doc) == expansion_outcome(reference_resolve, doc)


@pytest.mark.parametrize("reuses", [1, 2, 50, 250])
def test_wide_reuse_expansion_and_fingerprints_equal_reference(reuses):
    doc = parse_plan_json(json.dumps(wide_reuse_plan(reuses)))
    resolved, expected = resolve_reuse_references(doc), reference_resolve(doc)
    assert len(resolved.graph.nodes) == 4 + 5 * reuses
    assert resolved.graph.nodes == expected.graph.nodes
    assert Counter(resolved.graph.edges) == Counter(expected.graph.edges)
    for approach in APPROACHES:
        cfg = FingerprintConfig(approach=approach)
        assert fingerprint_document(resolved, cfg) == fingerprint_document(expected, cfg)


def test_wide_reuse_plan_loads_in_linear_time(tmp_path):
    # 8,004 input nodes, 20,004 expanded; a per-reuse rebuild of the edge
    # list made this take tens of seconds.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(wide_reuse_plan(4000)))
    start = time.perf_counter()
    doc = load_plan_file(path)
    assert time.perf_counter() - start < 1.0
    assert len(doc.graph.nodes) == 20_004


def test_over_budget_reuse_plan_is_refused_before_any_copy(monkeypatch):
    # 500 reuse nodes on one 500-node chain: 1,500 input nodes, a 96,000-node
    # budget and 251,000 expanded nodes. Copying until the budget check
    # fired made 189 chain copies (94,500 nodes) first.
    doc = parse_plan_json(json.dumps(wide_reuse_plan(500, chain_length=500)))
    copied = []

    def counting_replace(obj, **changes):
        copied.append(obj)
        return replace(obj, **changes)

    monkeypatch.setattr(ingest, "replace", counting_replace)
    with pytest.raises(ExpansionTooLarge) as exc:
        resolve_reuse_references(doc)
    assert (exc.value.input_nodes, exc.value.budget) == (1500, 96_000)
    assert copied == []


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


# -- fuzzing both parsers ----------------------------------------------------------

FUZZ_OPERATORS = ("Scan", "Filter", "Project", "Exchange", "SortMergeJoin", "HashAggregate",
                  "Union", "ReusedExchange", "ReusedSubquery")
FUZZ_TAILS = ("", "[a:int, b:string]", "(x#12 > 5)", "hashpartitioning(a) partitions=200",
              "keys=[a, b] output=[a]", "Inner BuildLeft", "num_partitions=7", "reuses=x", "Ünï ✓")
# Values of recognized numeric properties that int() cannot take or that are
# out of range.
FUZZ_NUMBERS = (float("nan"), float("inf"), float("-inf"), 1e308, -3, "x")
# A parse, reuse expansion and both fingerprints of these small plans take
# milliseconds.
PARSE_BUDGET_S = 2.0


@st.composite
def plan_trees(draw, max_nodes: int = 16):
    """(parents, operators, reuse targets, fact tails, odd properties) of a
    random plan tree: node 0 is the root and parents[i] < i. Reuse nodes are
    leaves; a target may also be missing, the node itself or one of its
    ancestors. Some nodes get a (key, value) property from FUZZ_NUMBERS."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    parents = [None] + [draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, n)]
    inner = set(parents)
    operators = [draw(st.sampled_from(FUZZ_OPERATORS[:-2] if i in inner else FUZZ_OPERATORS))
                 for i in range(n)]
    # Mostly a node with children, so that the expansion copies a subtree.
    targets = st.integers(min_value=-1, max_value=n)
    if len(inner) > 1:
        targets = st.one_of(st.sampled_from(sorted(inner - {None})), targets)
    reuses = [draw(targets) if op.startswith("Reused") else None for op in operators]
    tails = [draw(st.sampled_from(FUZZ_TAILS)) for _ in range(n)]
    odd = st.one_of(st.none(), st.tuples(st.sampled_from(("num_partitions", "row_width")),
                                         st.sampled_from(FUZZ_NUMBERS)))
    return parents, operators, reuses, tails, [draw(odd) for _ in range(n)]


def tree_json(tree) -> bytes:
    parents, operators, reuses, tails, odd = tree
    nodes = []
    for i, op in enumerate(operators):
        node = {"id": i, "operator": op, "fact": f"{op} {tails[i]}".rstrip()}
        properties = dict(filter(None, [odd[i]]))
        if reuses[i] is not None:
            properties["reuses"] = reuses[i]
        if properties:
            node["properties"] = properties
        nodes.append(node)
    edges = [[i, p] for i, p in enumerate(parents) if p is not None]
    return json.dumps({"plan_id": "fuzz", "runtime_seconds": 1.5, "nodes": nodes,
                       "edges": edges}).encode()


def tree_text(tree) -> bytes:
    """The tree in preorder, so line numbers are node ids as the parser assigns them."""
    parents, operators, reuses, tails, odd = tree
    lines = ["-- plan_id: fuzz", "-- runtime_seconds: 1.5"]

    def walk(node: int, depth: int) -> None:
        reuse = "" if reuses[node] is None else f"reuses={reuses[node]}"
        prop = "" if odd[node] is None else "=".join(map(str, odd[node]))
        lines.append("  " * depth + " ".join(filter(None, (operators[node], tails[node], prop, reuse))))
        for child in (i for i, p in enumerate(parents) if p == node):
            walk(child, depth + 1)

    walk(0, 0)
    return ("\n".join(lines) + "\n").encode()


@st.composite
def damaged(draw, data: bytes) -> bytes:
    """data as it is, with one to four bytes replaced, or truncated."""
    kind = draw(st.sampled_from(["intact", "flipped", "truncated"]))
    if kind == "truncated":
        return data[: draw(st.integers(min_value=0, max_value=len(data) - 1))]
    out = bytearray(data)
    for _ in range(draw(st.integers(min_value=1, max_value=4)) if kind == "flipped" else 0):
        out[draw(st.integers(min_value=0, max_value=len(out) - 1))] = draw(st.integers(0, 255))
    return bytes(out)


def parse_and_expand_within_budget(parse) -> None:
    """parse() then reuse expansion, as load_plan_file does, then both
    fingerprints: either succeeds or raises a QdagHashError, within the
    time budget."""
    start = time.perf_counter()
    try:
        doc = resolve_reuse_references(parse())
        for approach in APPROACHES:
            fingerprint_document(doc, FingerprintConfig(approach=approach))
    except QdagHashError:
        pass
    assert time.perf_counter() - start < PARSE_BUDGET_S


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fuzzed_json_plan_fails_only_with_typed_errors(data):
    raw = data.draw(damaged(tree_json(data.draw(plan_trees()))))
    parse_and_expand_within_budget(lambda: parse_plan_json(raw))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fuzzed_text_plan_fails_only_with_typed_errors(data):
    raw = data.draw(damaged(tree_text(data.draw(plan_trees()))))
    # Undecodable bytes become U+FFFD; load_plan_file rejects them before parsing.
    parse_and_expand_within_budget(lambda: parse_plan_text(raw.decode("utf-8", "replace")))

