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


def permuted(graph: QDag, rng: random.Random) -> QDag:
    """Same graph with node and edge list order shuffled."""
    nodes = list(graph.nodes)
    edges = list(graph.edges)
    rng.shuffle(nodes)
    rng.shuffle(edges)
    return QDag(graph.id, nodes, edges)


@st.composite
def weighted_hash_lists(draw, max_len: int = 24):
    from qdaghash.simhash import WeightedHash

    n = draw(st.integers(min_value=1, max_value=max_len))
    items = []
    for _ in range(n):
        h = draw(st.integers(min_value=0, max_value=2**64 - 1))
        w = draw(
            st.one_of(
                st.integers(min_value=1, max_value=1000).map(float),
                st.floats(min_value=0.001, max_value=1e6, allow_nan=False, allow_infinity=False),
            )
        )
        items.append(WeightedHash(h, w))
    return items
