"""Reference reuse expansion: the straightforward quadratic algorithm.

Each reuse node, in dependency order, rebuilds the predecessor map and the
edge list; a reuse of a reuse node follows a redirect to the copy the inner
one made. Tests compare `ingest.resolve_reuse_references` against it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace

from qdaghash.errors import CycleDetected, ExpansionTooLarge, ReferenceCycle, UnresolvedReference
from qdaghash.ingest import EXPANSION_FACTOR, MAX_EXPANDED_NODES, REUSE_OPERATORS, PlanDocument
from qdaghash.qdag import QDag, _topological_order


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
    dep_edges = []
    for rid in reuse_ids:
        inner = _closure(targets[rid], graph.edges) & reuse_set
        if rid in inner:
            raise ReferenceCycle([rid, rid])
        dep_edges += [(other, rid) for other in inner]
    try:
        ranks = _topological_order(reuse_set, dep_edges)
    except CycleDetected as exc:
        raise ReferenceCycle(exc.cycle) from exc

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
