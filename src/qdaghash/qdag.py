"""QDAG data model, validated in one pass into index-aligned node columns.

A QDag is a directed acyclic graph of plan operators. Edges follow the
data-flow direction: a child operator points at the parent that consumes
its output, so scans are sources and the final operator is a sink.

Entry i of each node column describes the i-th node: id, operator, fact,
properties and, from validation, forward and backward topological rank, in-
and out-degree and depth. QDag.nodes builds PlanNodes only when it is read.

All values are immutable after construction and safe to share across
threads; every operation here is a pure function of its inputs.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, fields
from functools import cached_property
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping, Sequence

from .errors import CycleDetected, DanglingEdge, DuplicateNodeId, EmptyGraph

PropertyValue = int | float | str | bool

_STRUCTURE = ("forward", "backward", "in_degree", "out_degree", "depth")


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


@dataclass(frozen=True, init=False)
class QDag:
    """Validated DAG of plan operators. Construction rejects cyclic input.

    Validation adds the list columns forward, backward, in_degree, out_degree
    and depth. Ranks break ties toward the smaller node id; depth is 1 for
    sources and 1 + the longest edge-path from any source otherwise."""

    id: str
    ids: tuple[int, ...]
    operators: tuple[str, ...]
    facts: tuple[str, ...]
    properties: tuple[Mapping[str, PropertyValue], ...] = field(hash=False)  # dicts: no hash
    edges: tuple[tuple[int, int], ...]

    def __init__(self, id: str, nodes: Iterable[PlanNode], edges: Iterable[tuple[int, int]] = ()):
        nodes = tuple(nodes)
        columns = tuple(zip(*((n.id, n.operator_name, n.fact, n.properties) for n in nodes)))
        edges = tuple((int(u), int(v)) for u, v in edges)
        graph = QDag._from_columns(id, *(columns or ((),) * 4), edges)
        self.__dict__.update(graph.__dict__, nodes=nodes)

    @classmethod
    def _from_columns(
        cls, id: str, ids: tuple[int, ...], operators: tuple[str, ...], facts: tuple[str, ...],
        properties: tuple[Mapping[str, PropertyValue], ...], edges: tuple[tuple[int, int], ...],
    ) -> QDag:
        """The graph of node columns whose nodes pass PlanNode's checks."""
        graph = cls.__new__(cls)
        # Frozen: the columns go straight into the instance dict.
        columns = (id, ids, operators, facts, properties, edges, *_profile(ids, edges))
        graph.__dict__.update(zip(_COLUMNS, columns))
        return graph

    @cached_property
    def nodes(self) -> tuple[PlanNode, ...]:
        return tuple(map(PlanNode, self.ids, self.operators, self.facts, self.properties))

    def node_by_id(self) -> dict[int, PlanNode]:
        return dict(zip(self.ids, self.nodes))


_COLUMNS = (*(f.name for f in fields(QDag)), *_STRUCTURE)


@dataclass(frozen=True)
class StructuralProfile:
    """A graph's structural columns as maps keyed by node id."""

    forward_order: Mapping[int, int]
    backward_order: Mapping[int, int]
    in_degree: Mapping[int, int]
    out_degree: Mapping[int, int]
    depth: Mapping[int, int]


def structural_profile(graph: QDag) -> StructuralProfile:
    """The structural columns of a validated graph, as maps keyed by node id."""
    return StructuralProfile(*(dict(zip(graph.ids, getattr(graph, c))) for c in _STRUCTURE))


def _profile(ids: Sequence[int], edges: Iterable[tuple[int, int]]) -> tuple[list[int], ...]:
    """The forward rank, backward rank, in-degree, out-degree and depth of
    each node, index-aligned with ids; raises if the graph is empty, repeats
    a node id, has an edge to a missing node or has a cycle, in that order."""
    n = len(ids)
    if not n:
        raise EmptyGraph()
    index = dict(zip(ids, range(n)))
    if len(index) < n:
        seen: set[int] = set()  # the first id seen before, in node order
        raise DuplicateNodeId(next(i for i in ids if i in seen or seen.add(i)))
    successors: list[list[int]] = [[] for _ in range(n)]
    predecessors: list[list[int]] = [[] for _ in range(n)]
    for edge in edges:
        u, v = edge
        iu, iv = index.get(u), index.get(v)
        if iu is None or iv is None:
            raise DanglingEdge(u if iu is None else v, edge)
        successors[iu].append(iv)
        predecessors[iv].append(iu)
    in_degree, out_degree, depth = list(map(len, predecessors)), list(map(len, successors)), [1] * n
    forward = _kahn(ids, index, successors, in_degree.copy(), depth)
    backward = _kahn(ids, index, predecessors, out_degree.copy(), [1] * n)
    rank = sorted(range(n), key=forward.__getitem__), sorted(range(n), key=backward.__getitem__)
    return *rank, in_degree, out_degree, depth


def _kahn(
    ids: Sequence[int], index: Mapping[int, int], successors: list[list[int]], degree: list[int],
    depth: list[int],
) -> list[int]:
    """Kahn's algorithm over node indices, with a min-heap on node id for
    the ready set: the indices in rank order. degree (incoming edges) is used
    up; depth, all 1 on entry, becomes 1 + the longest path into each node."""
    ready = [ids[i] for i, d in enumerate(degree) if not d]
    heapify(ready)
    order: list[int] = []
    while ready:
        i = index[heappop(ready)]
        order.append(i)
        below = depth[i] + 1
        for succ in successors[i]:
            if depth[succ] < below:
                depth[succ] = below
            degree[succ] -= 1
            if not degree[succ]:
                heappush(ready, ids[succ])
    if len(order) < len(ids):
        remaining = {ids[i]: [ids[s] for s in successors[i]] for i, d in enumerate(degree) if d}
        raise CycleDetected(_find_cycle(set(remaining), remaining))
    return order


def _find_cycle(remaining: set[int], successors: Mapping[int, list[int]]) -> list[int]:
    """One cycle among the nodes Kahn's algorithm could not order."""
    preds: dict[int, list[int]] = defaultdict(list)
    for u in remaining:
        for v in successors[u]:
            if v in remaining:
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
