"""QDAG data model plus the structural computations every fingerprint needs.

A QDag is a directed acyclic graph of plan operators. Edges follow the
data-flow direction: a child operator points at the parent that consumes
its output, so scans are sources and the final operator is a sink.

All values are immutable after construction and safe to share across
threads; every operation here is a pure function of its inputs.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import CycleDetected, DanglingEdge, DuplicateNodeId, EmptyGraph

PropertyValue = int | float | str | bool


@dataclass(frozen=True)
class PlanNode:
    """One plan operator: id, name, full plan line, extracted properties."""

    id: int
    operator_name: str
    fact: str
    # Compared but not hashed: a dict has no hash.
    properties: Mapping[str, PropertyValue] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        if not isinstance(self.id, int) or isinstance(self.id, bool) or self.id < 0:
            raise ValueError(f"node id must be a non-negative integer, got {self.id!r}")
        if not self.operator_name:
            raise ValueError("operator_name must be non-empty")
        if not self.fact or not self.fact.startswith(self.operator_name):
            raise ValueError(
                f"fact must be non-empty and begin with the operator name "
                f"({self.operator_name!r}): {self.fact!r}"
            )


@dataclass(frozen=True)
class QDag:
    """Validated DAG of plan operators. Construction rejects cyclic input."""

    id: str
    nodes: tuple[PlanNode, ...]
    edges: tuple[tuple[int, int], ...]
    # Set by validation, which sorts the graph; structural_profile reuses it.
    _forward_order: Mapping[int, int] = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        id: str,
        nodes: Iterable[PlanNode],
        edges: Iterable[tuple[int, int]] = (),
    ):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "nodes", tuple(nodes))
        object.__setattr__(self, "edges", tuple((int(u), int(v)) for u, v in edges))
        object.__setattr__(self, "_forward_order", _validated_order(self))

    def node_ids(self) -> list[int]:
        return [n.id for n in self.nodes]

    def node_by_id(self) -> dict[int, PlanNode]:
        return {n.id: n for n in self.nodes}


@dataclass(frozen=True)
class StructuralProfile:
    """Per-node structural maps shared by the fingerprint algorithms.

    forward_order is a topological rank on the graph, backward_order one on
    the edge-reversed graph; depth is 1 for sources and 1 + the longest
    edge-path from any source otherwise.
    """

    forward_order: Mapping[int, int]
    backward_order: Mapping[int, int]
    in_degree: Mapping[int, int]
    out_degree: Mapping[int, int]
    depth: Mapping[int, int]


def _validated_order(graph: QDag) -> dict[int, int]:
    """The forward topological order of a well-formed graph; raises otherwise."""
    if not graph.nodes:
        raise EmptyGraph()
    seen: set[int] = set()
    for node in graph.nodes:
        if node.id in seen:
            raise DuplicateNodeId(node.id)
        seen.add(node.id)
    for edge in graph.edges:
        for endpoint in edge:
            if endpoint not in seen:
                raise DanglingEdge(endpoint, edge)
    return _topological_order(seen, graph.edges)


def structural_profile(graph: QDag) -> StructuralProfile:
    """Compute all five structural maps for a validated graph.

    Deterministic regardless of node/edge list order: ties in the
    topological sorts break toward the smaller node id.
    """
    ids = set(graph.node_ids())
    forward = graph._forward_order
    backward = _topological_order(ids, [(v, u) for u, v in graph.edges])

    in_degree = {i: 0 for i in ids}
    out_degree = {i: 0 for i in ids}
    preds: dict[int, list[int]] = defaultdict(list)
    for u, v in graph.edges:
        out_degree[u] += 1
        in_degree[v] += 1
        preds[v].append(u)

    depth: dict[int, int] = {}
    for node_id in sorted(ids, key=forward.__getitem__):
        incoming = preds.get(node_id)
        depth[node_id] = 1 + max(depth[p] for p in incoming) if incoming else 1

    return StructuralProfile(forward, backward, in_degree, out_degree, depth)


def _topological_order(
    ids: set[int], edges: Iterable[tuple[int, int]]
) -> dict[int, int]:
    """Kahn's algorithm with a min-heap on node id for the ready set."""
    edges = list(edges)
    in_degree = {i: 0 for i in ids}
    adjacency: dict[int, list[int]] = defaultdict(list)
    for u, v in edges:
        adjacency[u].append(v)
        in_degree[v] += 1

    ready = [i for i in ids if in_degree[i] == 0]
    heapq.heapify(ready)
    order: dict[int, int] = {}
    while ready:
        node = heapq.heappop(ready)
        order[node] = len(order)
        for succ in adjacency[node]:
            in_degree[succ] -= 1
            if in_degree[succ] == 0:
                heapq.heappush(ready, succ)

    if len(order) < len(ids):
        remaining = {i for i in ids if i not in order}
        raise CycleDetected(_find_cycle(remaining, edges))
    return order


def _find_cycle(remaining: set[int], edges: Iterable[tuple[int, int]]) -> list[int]:
    """One cycle among the nodes Kahn's algorithm could not order."""
    preds: dict[int, list[int]] = defaultdict(list)
    for u, v in edges:
        if u in remaining and v in remaining:
            preds[v].append(u)
    # Every remaining node has a predecessor among the remaining nodes, so
    # walking predecessors must revisit some node; the revisited segment,
    # reversed, is a cycle in edge direction.
    walk = [min(remaining)]
    seen_at = {walk[0]: 0}
    while True:
        pred = min(preds[walk[-1]])
        if pred in seen_at:
            return [pred] + walk[seen_at[pred] + 1:][::-1] + [pred]
        seen_at[pred] = len(walk)
        walk.append(pred)
