"""Reference reuse expansion: the straightforward quadratic algorithm.

Each reuse node, in dependency order, rebuilds the predecessor map and the
edge list; a reuse of a reuse node follows a redirect to the copy the inner
one made. Whether the references loop is decided from per-node closures;
which cycle the error then names follows the stated rule in _named_cycle.
Tests compare `ingest.resolve_reuse_references` against it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace

from qdaghash.errors import CycleDetected, ExpansionTooLarge, ReferenceCycle, UnresolvedReference
from qdaghash.ingest import EXPANSION_FACTOR, MAX_EXPANDED_NODES, REUSE_OPERATORS, PlanDocument
from qdaghash.qdag import QDag, _profile


def reference_resolve(doc: PlanDocument) -> PlanDocument:
    graph = doc.graph
    reuse_ids = [n.id for n in graph.nodes if n.operator_name in REUSE_OPERATORS]
    if not reuse_ids:
        return doc

    by_id = graph.node_by_id()
    targets: dict[int, int] = {}
    for rid in reuse_ids:
        raw = by_id[rid].properties.get("reuses")
        if raw is None:
            raise UnresolvedReference(rid, "missing 'reuses' property")
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise UnresolvedReference(rid, f"'reuses' must be an integer node id, got {raw!r}")
        if raw not in by_id:
            raise UnresolvedReference(rid, f"target node id {raw} is not in the graph")
        targets[rid] = raw

    reuse_set = set(reuse_ids)
    dep_edges = [
        (other, rid) for rid in reuse_ids for other in _closure(targets[rid], graph.edges) & reuse_set
    ]
    try:
        ranks = dict(zip(reuse_ids, _profile(reuse_ids, dep_edges)[0]))
    except CycleDetected:
        raise ReferenceCycle(_named_cycle(graph, targets)) from None

    nodes = dict(by_id)
    edges = list(graph.edges)
    next_id = max(nodes) + 1
    budget = max(MAX_EXPANDED_NODES, EXPANSION_FACTOR * len(nodes))
    redirect: dict[int, int] = {}
    for rid in sorted(reuse_ids, key=ranks.__getitem__):
        if any(v == rid for _, v in edges):
            raise UnresolvedReference(rid, "reuse node must not have incoming edges")
        target = targets[rid]
        while target in redirect:
            target = redirect[target]
        closure = _closure(target, edges)
        if len(nodes) - 1 + len(closure) > budget:
            raise ExpansionTooLarge(len(graph.nodes), budget)
        fresh = {old: next_id + i for i, old in enumerate(sorted(closure))}
        next_id += len(closure)
        for old in sorted(closure):
            nodes[fresh[old]] = replace(nodes[old], id=fresh[old])
        copied = [(fresh[u], fresh[v]) for u, v in edges if u in closure and v in closure]
        rewired = [(fresh[target], v) for u, v in edges if u == rid]
        edges = [e for e in edges if e[0] != rid] + copied + rewired
        redirect[rid] = fresh[target]
        del nodes[rid]

    return replace(doc, graph=QDag(graph.id, tuple(nodes.values()), tuple(edges)))


def _named_cycle(graph: QDag, targets: dict[int, int]) -> list[int]:
    """The stated naming rule for a plan whose reuse references loop.

    Sort the plan plus a vertex first + r per reuse node r (first is one past
    the largest node id), fed by r's target and feeding r; the cycle that sort
    reports, read as the reuse nodes of its vertices in order, the first
    repeated at the end.
    """
    first = max(node.id for node in graph.nodes) + 1
    vertices = [node.id for node in graph.nodes] + [first + r for r in targets]
    links = [(t, first + r) for r, t in targets.items()] + [(first + r, r) for r in targets]
    try:
        _profile(vertices, [*graph.edges, *links])
    except CycleDetected as exc:
        named = [v - first for v in exc.cycle[:-1] if v >= first]
        return named + named[:1]
    raise AssertionError("the reuse nodes depend on each other in a cycle the sort does not see")


def _closure(root: int, edges) -> set[int]:
    preds = defaultdict(list)
    for u, v in edges:
        preds[v].append(u)
    seen = {root}
    stack = [root]
    while stack:
        for p in preds[stack.pop()]:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen
