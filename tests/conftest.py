"""Shared builders and hypothesis strategies for the test suite."""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from qdaghash.qdag import PlanNode, QDag


@pytest.fixture(autouse=True, scope="session")
def _children_import_src():
    """Let `python -m qdaghash` children find the package in a checkout.

    pyproject's pytest `pythonpath` reaches only the test process.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        yield


@pytest.fixture(autouse=True)
def _no_child_left_behind():
    """Fail a test that leaves a child process unreaped, running or not."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left child process {pid or '(still running)'} unreaped")


def save_v1(index, path) -> None:
    """Write index as a version 1 file: the JSON header line, then one JSON
    record per line, as earlier releases of Index.save did."""
    lines = [json.dumps({**index.header.to_json_obj(), "version": 1})]
    for r in index.records():
        lines.append(json.dumps({
            "plan_id": r.plan_id,
            "edge_fp": r.fingerprint.edge_hex,
            "node_fp": r.fingerprint.node_hex,
            "runtime_seconds": r.runtime_seconds,
            "label": r.label.display,
        }))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


OPERATOR_POOL = (
    "Scan",
    "Filter",
    "Project",
    "Sort",
    "Exchange",
    "HashAggregate",
    "SortMergeJoin",
    "Union",
)


def make_node(node_id: int, operator: str = "Scan", fact: str | None = None, **props) -> PlanNode:
    return PlanNode(node_id, operator, fact or f"{operator} f{node_id}", props)


def chain_graph(*operators: str, graph_id: str = "chain") -> QDag:
    """node 0 feeds node 1 feeds node 2 ... (data flows toward the last)."""
    nodes = [make_node(i, op) for i, op in enumerate(operators)]
    edges = [(i, i + 1) for i in range(len(operators) - 1)]
    return QDag(graph_id, nodes, edges)


def random_dag(rng: random.Random, n_nodes: int, extra_edges: int = 0) -> QDag:
    """Random DAG: a random spanning arborescence plus forward extra edges.

    Edges only ever point from a lower to a higher position of a hidden
    random permutation, so the result is acyclic by construction.
    """
    ids = list(range(n_nodes))
    rng.shuffle(ids)
    nodes = [make_node(i, rng.choice(OPERATOR_POOL)) for i in sorted(ids)]
    edges: set[tuple[int, int]] = set()
    for pos in range(1, n_nodes):
        src_pos = rng.randrange(pos)
        edges.add((ids[src_pos], ids[pos]))
    attempts = 0
    while n_nodes > 1 and len(edges) < n_nodes - 1 + extra_edges and attempts < 10 * (extra_edges + 1):
        a, b = rng.sample(range(n_nodes), 2)
        if a > b:
            a, b = b, a
        edges.add((ids[a], ids[b]))
        attempts += 1
    return QDag("random", nodes, sorted(edges))


@st.composite
def dag_graphs(draw, max_nodes: int = 12) -> QDag:
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    extra = draw(st.integers(min_value=0, max_value=max(0, n - 1)))
    return random_dag(random.Random(seed), n, extra)


def nested_reuse_plan(levels: int, padding: int = 0) -> dict:
    """JSON plan object of 1 + 2*levels + padding nodes that expands to
    2**(levels+1) - 1 + padding nodes.

    Level i unions the previous level's top with a ReusedExchange of it, so
    every level doubles the expanded graph; padding Filters sit above the
    last level and are never copied.
    """
    nodes = [{"id": 0, "operator": "Scan", "fact": "Scan t"}]
    edges = []
    top = 0
    for _ in range(levels):
        reuse, union = len(nodes), len(nodes) + 1
        nodes.append({"id": reuse, "operator": "ReusedExchange", "fact": "ReusedExchange",
                      "properties": {"reuses": top}})
        nodes.append({"id": union, "operator": "Union", "fact": "Union"})
        edges += [[top, union], [reuse, union]]
        top = union
    for _ in range(padding):
        nodes.append({"id": len(nodes), "operator": "Filter", "fact": "Filter (a > 1)"})
        edges.append([top, len(nodes) - 1])
        top = len(nodes) - 1
    return {"plan_id": "nested", "runtime_seconds": 1.0, "nodes": nodes, "edges": edges}


def wide_reuse_plan(reuses: int, chain_length: int = 4) -> dict:
    """JSON plan object of S + 2*reuses nodes that expands to S + (S+1)*reuses,
    S being chain_length (at least 4).

    An S-node chain is reused `reuses` times; a ladder of Unions joins the
    chain's top with every ReusedExchange in turn.
    """
    chain = (("Scan", "Scan t [a:int, b:string]"), ("Filter", "Filter (a > 1)"),
             *(("Filter", f"Filter (b > {i})") for i in range(chain_length - 4)),
             ("Project", "Project [a] output=[a]"),
             ("Exchange", "Exchange hashpartitioning(a) partitions=200"))
    nodes = [{"id": i, "operator": op, "fact": fact} for i, (op, fact) in enumerate(chain)]
    edges = [[i, i + 1] for i in range(len(chain) - 1)]
    top = len(chain) - 1
    for _ in range(reuses):
        reuse, union = len(nodes), len(nodes) + 1
        nodes.append({"id": reuse, "operator": "ReusedExchange", "fact": "ReusedExchange",
                      "properties": {"reuses": len(chain) - 1}})
        nodes.append({"id": union, "operator": "Union", "fact": "Union"})
        edges += [[top, union], [reuse, union]]
        top = union
    return {"plan_id": "wide", "runtime_seconds": 1.0, "nodes": nodes, "edges": edges}


def permuted(graph: QDag, rng: random.Random) -> QDag:
    """Same graph with node and edge list order shuffled."""
    nodes = list(graph.nodes)
    edges = list(graph.edges)
    rng.shuffle(nodes)
    rng.shuffle(edges)
    return QDag(graph.id, nodes, edges)


@st.composite
def weighted_hash_lists(draw, max_len: int = 24):
    """(hashes, weights): 1..max_len 64-bit hashes with integer weights in 1..1000."""
    n = draw(st.integers(min_value=1, max_value=max_len))
    hashes = draw(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=n, max_size=n))
    weights = draw(st.lists(st.integers(min_value=1, max_value=1000), min_size=n, max_size=n))
    return hashes, weights
