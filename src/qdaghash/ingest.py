"""Plan ingestion: JSON and indented-text formats, reuse expansion, corpora.

Two interchange formats are supported. The JSON format is the canonical
machine form (one document per file). The ``.plan`` text format mimics
EXPLAIN-style output: the root operator on line 1 at indent 0, children
indented exactly two spaces per level, with optional ``-- plan_id:`` and
``-- runtime_seconds:`` header lines. Indentation defines parent-child
edges in data-flow direction (child operator -> consuming parent).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import (
    CorpusLoadError,
    CycleDetected,
    DuplicatePlanId,
    EmptyPlan,
    ExpansionTooLarge,
    IndentError,
    InputError,
    MalformedDocument,
    NegativeRuntime,
    NonFiniteRuntime,
    ReferenceCycle,
    SchemaViolation,
    UnresolvedReference,
)
from .features import PROPERTY_KEYS
from .qdag import PlanNode, PropertyValue, QDag, _topological_order

# Operators that stand in for a previously computed subgraph.
REUSE_OPERATORS = frozenset({"ReusedExchange", "ReusedSubquery"})

# Each nested reuse level can double the graph, so expansion stops with
# ExpansionTooLarge past max(MAX_EXPANDED_NODES, EXPANSION_FACTOR * input nodes).
MAX_EXPANDED_NODES = 10_000
EXPANSION_FACTOR = 64

# Property keys kept in the structured bag; anything else stays visible
# only through the fact string.
_RECOGNIZED_KEYS = frozenset(PROPERTY_KEYS) | {"reuses"}

_DEFAULT_PLAN_ID = "plan"

# Fingerprints hash operator names and facts, and index files store plan
# ids, all as UTF-8, which has no encoding for a lone surrogate (a JSON
# "\ud800" escape decodes to one).
_LONE_SURROGATE = re.compile("[\ud800-\udfff]")


def check_plan_id(plan_id: object) -> None:
    """Raise SchemaViolation unless plan_id is a non-empty str that UTF-8
    can encode."""
    if not isinstance(plan_id, str) or not plan_id:
        raise SchemaViolation("plan_id", "must be a non-empty string")
    if _LONE_SURROGATE.search(plan_id):
        raise SchemaViolation("plan_id", "must not contain a lone surrogate")


def check_runtime(runtime_seconds: object) -> float:
    """runtime_seconds as a finite, non-negative float. Only an int (not a
    bool) or a float, numpy's float64 included, is a number; an int past the
    float range is not finite."""
    if isinstance(runtime_seconds, bool) or not isinstance(runtime_seconds, (int, float)):
        raise SchemaViolation("runtime_seconds", "must be a number")
    try:
        value = float(runtime_seconds)
    except OverflowError:
        value = math.inf if runtime_seconds > 0 else -math.inf
    if not math.isfinite(value):
        raise NonFiniteRuntime(value)
    if value < 0:
        raise NegativeRuntime(value)
    return value


@dataclass(frozen=True)
class PlanDocument:
    """One plan with an optional measured-runtime label."""

    plan_id: str
    runtime_seconds: float | None
    graph: QDag

    def __post_init__(self) -> None:
        check_plan_id(self.plan_id)
        if self.runtime_seconds is not None:
            object.__setattr__(self, "runtime_seconds", check_runtime(self.runtime_seconds))


@dataclass(frozen=True)
class Corpus:
    documents: tuple[PlanDocument, ...]
    source_path: str

    def __len__(self) -> int:
        return len(self.documents)


# ---------------------------------------------------------------------------
# JSON format
# ---------------------------------------------------------------------------

def _decode_utf8(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedDocument(f"not valid UTF-8 at byte {exc.start}") from exc


def parse_plan_json(data: bytes | str) -> PlanDocument:
    """Parse one canonical JSON plan document."""
    if isinstance(data, bytes):
        data = _decode_utf8(data)
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (RecursionError, ValueError) as exc:
        # Nesting deeper than the decoder's stack, or an integer with more
        # digits than int() converts.
        raise MalformedDocument(str(exc)) from exc
    if not isinstance(obj, dict):
        raise MalformedDocument("top level must be a JSON object")

    plan_id = obj.get("plan_id")
    if plan_id is None:
        raise SchemaViolation("plan_id", "required")
    check_plan_id(plan_id)

    raw_nodes = obj.get("nodes")
    if not isinstance(raw_nodes, list):
        raise SchemaViolation("nodes", "required array")
    nodes = [_parse_json_node(item, i) for i, item in enumerate(raw_nodes)]

    raw_edges = obj.get("edges", [])
    if not isinstance(raw_edges, list):
        raise SchemaViolation("edges", "must be an array")
    edges = []
    for i, pair in enumerate(raw_edges):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(e, int) and not isinstance(e, bool) for e in pair)
        ):
            raise SchemaViolation(f"edges[{i}]", "must be a [source_id, target_id] pair")
        edges.append((pair[0], pair[1]))

    graph = QDag(plan_id, nodes, edges)
    return PlanDocument(plan_id, obj.get("runtime_seconds"), graph)


def _parse_json_node(item: object, i: int) -> PlanNode:
    if not isinstance(item, dict):
        raise SchemaViolation(f"nodes[{i}]", "must be an object")
    node_id = item.get("id")
    if not isinstance(node_id, int) or isinstance(node_id, bool) or node_id < 0:
        raise SchemaViolation(f"nodes[{i}].id", "must be a non-negative integer")
    operator = item.get("operator")
    if not isinstance(operator, str) or not operator:
        raise SchemaViolation(f"nodes[{i}].operator", "must be a non-empty string")
    fact = item.get("fact")
    if not isinstance(fact, str) or not fact:
        raise SchemaViolation(f"nodes[{i}].fact", "must be a non-empty string")
    if not fact.startswith(operator):
        raise SchemaViolation(f"nodes[{i}].fact", "must begin with the operator name")

    raw_props = item.get("properties", {})
    if not isinstance(raw_props, dict):
        raise SchemaViolation(f"nodes[{i}].properties", "must be an object")
    properties: dict[str, PropertyValue] = {}
    extras: list[str] = []
    for key, value in raw_props.items():
        if not isinstance(value, (str, int, float, bool)):
            raise SchemaViolation(f"nodes[{i}].properties.{key}", "must be a scalar")
        canonical = key.strip().lower().replace(" ", "_").replace("-", "_")
        if canonical in _RECOGNIZED_KEYS:
            properties[canonical] = value
        else:
            extras.append(f"{key}={value}")
    if extras:
        # Unrecognized properties stay visible to the n-gram approach
        # through the fact string.
        fact = fact + " " + " ".join(extras)
    if _LONE_SURROGATE.search(fact):
        raise SchemaViolation(f"nodes[{i}].fact", "must not contain a lone surrogate")

    return PlanNode(node_id, operator, fact, properties)


def render_plan_json(doc: PlanDocument, indent: int | None = None) -> str:
    """Canonical JSON rendering; parse_plan_json inverts it exactly."""
    obj: dict[str, object] = {"plan_id": doc.plan_id}
    if doc.runtime_seconds is not None:
        obj["runtime_seconds"] = doc.runtime_seconds
    node_objs = []
    for node in doc.graph.nodes:
        node_obj: dict[str, object] = {
            "id": node.id,
            "operator": node.operator_name,
            "fact": node.fact,
        }
        if node.properties:
            node_obj["properties"] = dict(node.properties)
        node_objs.append(node_obj)
    obj["nodes"] = node_objs
    obj["edges"] = [list(edge) for edge in doc.graph.edges]
    return json.dumps(obj, indent=indent)


# ---------------------------------------------------------------------------
# Indented text format
# ---------------------------------------------------------------------------

_HEADER_LINE = re.compile(r"^--\s*(plan_id|runtime_seconds)\s*:\s*(.+?)\s*$")
_OPERATOR_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*")


def parse_plan_text(text: str, plan_id: str | None = None) -> PlanDocument:
    """Parse an indented-tree plan (2 spaces per level, tabs rejected)."""
    meta: dict[str, str] = {}
    entries: list[tuple[int, str, int]] = []  # (level, fact, line number)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        if raw.lstrip().startswith("--"):
            header = _HEADER_LINE.match(raw.strip())
            if header:
                meta[header.group(1)] = header.group(2)
            continue
        lead = raw[: len(raw) - len(raw.lstrip())]
        if "\t" in lead:
            raise IndentError(line_no, "tab indentation (use 2 spaces per level)")
        if len(lead) % 2:
            raise IndentError(line_no, f"indent of {len(lead)} spaces is not a multiple of 2")
        entries.append((len(lead) // 2, raw.strip(), line_no))

    if not entries:
        raise EmptyPlan()

    nodes: list[PlanNode] = []
    edges: list[tuple[int, int]] = []
    stack: list[int] = []  # stack[i] = node id of the current chain at level i
    for seq, (level, fact, line_no) in enumerate(entries):
        if seq > 0 and level == 0:
            raise IndentError(line_no, "only one root operator is allowed")
        if level > len(stack):
            raise IndentError(
                line_no, f"indent jumps from level {len(stack) - 1} to level {level}"
            )
        name = _OPERATOR_NAME.match(fact)
        if not name:
            raise MalformedDocument(
                f"line {line_no}: cannot read an operator name from {fact!r}"
            )
        operator = name.group(0)
        if _LONE_SURROGATE.search(fact):
            raise MalformedDocument(f"line {line_no}: contains a lone surrogate")
        try:
            properties = extract_text_properties(operator, fact)
        except ValueError as exc:  # an integer with more digits than int() converts
            raise MalformedDocument(f"line {line_no}: {exc}") from exc
        nodes.append(PlanNode(seq, operator, fact, properties))
        if level > 0:
            edges.append((seq, stack[level - 1]))  # child feeds its parent
        stack[level:] = [seq]

    final_id = meta.get("plan_id") or plan_id or _DEFAULT_PLAN_ID
    runtime: float | None = None
    if "runtime_seconds" in meta:
        try:
            runtime = float(meta["runtime_seconds"])
        except ValueError as exc:
            raise MalformedDocument(
                f"header runtime_seconds is not a number: {meta['runtime_seconds']!r}"
            ) from exc

    return PlanDocument(final_id, runtime, QDag(final_id, nodes, edges))


# Best-effort property extraction from fact strings. Explicit canonical
# "key=value" tokens always win; the looser patterns below fill the gaps.
_EXPLICIT_TOKENS = {
    key: re.compile(rf"\b{key}=([^\s\]\),]+)") for key in (*PROPERTY_KEYS, "reuses")
}
_JOIN_ALGORITHM_BY_OPERATOR = {
    "SortMergeJoin": "sort-merge",
    "BroadcastHashJoin": "broadcast",
    "BroadcastNestedLoopJoin": "broadcast",
    "ShuffledHashJoin": "hash",
}
_JOIN_SEMANTICS_TOKENS = (
    (re.compile(r"\b(?:Left|Right)?Anti\b"), "anti"),
    (re.compile(r"\b(?:Left|Right)?Semi\b"), "semi"),
    (re.compile(r"\b(?:Full|Left|Right)?Outer\b"), "outer"),
    (re.compile(r"\bInner\b"), "inner"),
)
_BUILD_SIDE = re.compile(r"\bBuild(Left|Right)\b")
_PARTITIONING = (
    (re.compile(r"\bhashpartitioning\(", re.I), "hash"),
    (re.compile(r"\brangepartitioning\(", re.I), "range"),
    (re.compile(r"\bSinglePartition\b"), "single"),
)
_BROADCAST_MODE = (
    (re.compile(r"\bHashedRelationBroadcastMode\b"), "hashed-relation"),
    (re.compile(r"\bIdentityBroadcastMode\b"), "identity"),
)
_BARE_PARTITIONS = re.compile(r"\bpartitions=(\d+)\b")
_BRACKET_LISTS = {
    "keys": re.compile(r"\bkeys=\[([^\]]*)\]"),
    "group": re.compile(r"\bgroup=\[([^\]]*)\]"),
    "output": re.compile(r"\boutput=\[([^\]]*)\]"),
    "result": re.compile(r"\bresult=\[([^\]]*)\]"),
}
_NUMERIC_TYPE = re.compile(
    r":\s*(?:tinyint|smallint|bigint|int|long|double|float|decimal(?:\([^)]*\))?)\b",
    re.I,
)
_STRING_TYPE = re.compile(r":\s*(?:string|varchar(?:\(\d*\))?|char(?:\(\d*\))?|text)\b", re.I)


def extract_text_properties(operator: str, fact: str) -> dict[str, PropertyValue]:
    """Fill canonical property keys from a plan line, best effort."""
    props: dict[str, PropertyValue] = {}
    for key, pattern in _EXPLICIT_TOKENS.items():
        m = pattern.search(fact)
        if m:
            value = m.group(1)
            props[key] = int(value) if re.fullmatch(r"-?\d+", value) else value

    algo = _JOIN_ALGORITHM_BY_OPERATOR.get(operator)
    if algo and "join_algorithm" not in props:
        props["join_algorithm"] = algo
    if "join_semantics" not in props:
        for pattern, semantics in _JOIN_SEMANTICS_TOKENS:
            if pattern.search(fact):
                props["join_semantics"] = semantics
                break
    if "build_side" not in props:
        m = _BUILD_SIDE.search(fact)
        if m:
            props["build_side"] = m.group(1).lower()
    if "partitioning_type" not in props:
        for pattern, kind in _PARTITIONING:
            if pattern.search(fact):
                props["partitioning_type"] = kind
                break
    if "broadcast_mode" not in props:
        for pattern, mode in _BROADCAST_MODE:
            if pattern.search(fact):
                props["broadcast_mode"] = mode
                break
    if "num_partitions" not in props:
        m = _BARE_PARTITIONS.search(fact)
        if m:
            props["num_partitions"] = int(m.group(1))

    def list_len(name: str) -> int | None:
        m = _BRACKET_LISTS[name].search(fact)
        if not m:
            return None
        body = m.group(1).strip()
        return len(body.split(",")) if body else 0

    keys_len = list_len("keys")
    if keys_len is not None:
        if "Join" in operator:
            props.setdefault("num_keys", keys_len)
        elif "Aggregate" in operator:
            props.setdefault("num_grouping_exprs", keys_len)
    group_len = list_len("group")
    if group_len is not None:
        props.setdefault("num_grouping_exprs", group_len)
    for name in ("output", "result"):
        out_len = list_len(name)
        if out_len is not None:
            props.setdefault("num_result_exprs", out_len)
            break

    if "num_numeric_attrs" not in props:
        count = len(_NUMERIC_TYPE.findall(fact))
        if count:
            props["num_numeric_attrs"] = count
    if "num_string_attrs" not in props:
        count = len(_STRING_TYPE.findall(fact))
        if count:
            props["num_string_attrs"] = count

    return props


# ---------------------------------------------------------------------------
# Reuse-reference expansion
# ---------------------------------------------------------------------------

def resolve_reuse_references(doc: PlanDocument) -> PlanDocument:
    """Replace every reuse node with a fresh-id copy of its target subtree.

    The target subtree is the referenced node plus everything feeding it,
    so fingerprinting sees the reused computation's full semantics. Inner
    references expand first, over one predecessor map, so copying is
    linear in the expanded graph; its edges are listed by consumer, in node
    order. Chains that loop raise ReferenceCycle, and a result larger than
    the expansion budget raises ExpansionTooLarge, sized before any node
    is copied.
    """
    graph = doc.graph
    reuse_ids = [n.id for n in graph.nodes if n.operator_name in REUSE_OPERATORS]
    if not reuse_ids:
        return doc

    nodes = graph.node_by_id()
    targets: dict[int, int] = {}
    for rid in reuse_ids:
        raw = nodes[rid].properties.get("reuses")
        if raw is None:
            raise UnresolvedReference(rid, "missing 'reuses' property")
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise UnresolvedReference(rid, f"'reuses' must be an integer node id, got {raw!r}")
        if raw not in nodes:
            raise UnresolvedReference(rid, f"target node id {raw} is not in the graph")
        targets[rid] = raw

    preds: dict[int, list[int]] = {i: [] for i in nodes}
    succs: dict[int, list[int]] = {rid: [] for rid in reuse_ids}
    for u, v in graph.edges:
        preds[v].append(u)
        if u in succs:
            succs[u].append(v)
    budget = max(MAX_EXPANDED_NODES, EXPANSION_FACTOR * len(nodes))
    order, copy_size = _resolution_order(preds, reuse_ids, targets, budget)

    # The copy loop's checks, in its order, before it copies anything.
    size = len(nodes)
    for rid in order:
        if preds[rid]:
            raise UnresolvedReference(rid, "reuse node must not have incoming edges")
        if size - 1 + copy_size[rid] > budget:
            raise ExpansionTooLarge(len(graph.nodes), budget)
        size += copy_size[rid] - 1

    next_id = max(nodes) + 1
    for rid in order:
        # A reuse of a reuse node copies the first target that is not one:
        # every reuse node feeding it expanded earlier, so its subtree is
        # final and matches, id for id, the copy the inner node made.
        target = targets[rid]
        while target in targets:
            target = targets[target]
        closure = sorted(_feeding_closure(target, preds))
        fresh = {old: next_id + i for i, old in enumerate(closure)}
        next_id += len(closure)
        for old in closure:
            nodes[fresh[old]] = replace(nodes[old], id=fresh[old])
            preds[fresh[old]] = [fresh[p] for p in preds[old]]
        for v in succs[rid]:
            inputs = preds[v]
            inputs[inputs.index(rid)] = fresh[target]
        del nodes[rid]

    edges = tuple((u, v) for v in nodes for u in preds[v])
    return replace(doc, graph=QDag(graph.id, tuple(nodes.values()), edges))


def _feeding_closure(root: int, preds: dict[int, list[int]]) -> set[int]:
    """root plus every node with a data-flow path into root."""
    seen = {root}
    stack = [root]
    while stack:
        for p in preds[stack.pop()]:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


def _resolution_order(
    preds: dict[int, list[int]],
    reuse_ids: list[int],
    targets: dict[int, int],
    budget: int,
) -> tuple[list[int], dict[int, int]]:
    """Order reuse nodes so inner references expand before outer ones, and
    size each one's copy: the plain nodes of its target's closure plus the
    copy of each reuse node in that closure, capped one past the budget,
    which a copy of that size already fails."""
    reuse_set = set(reuse_ids)
    inner_of: dict[int, set[int]] = {}
    copy_size: dict[int, int] = {}  # plain nodes first, then the whole copy
    for rid in reuse_ids:
        closure = _feeding_closure(targets[rid], preds)
        inner = inner_of[rid] = closure & reuse_set
        if rid in inner:
            raise ReferenceCycle([rid, rid])
        copy_size[rid] = len(closure) - len(inner)
    # Each inner reuse node expands before the reuse node whose copy holds it.
    dep_edges = [(other, rid) for rid, inner in inner_of.items() for other in inner]
    try:
        ranks = _topological_order(reuse_set, dep_edges)
    except CycleDetected as exc:
        raise ReferenceCycle(exc.cycle) from exc
    order = sorted(reuse_ids, key=ranks.__getitem__)
    for rid in order:
        copy_size[rid] = min(budget + 1, copy_size[rid] + sum(copy_size[r] for r in inner_of[rid]))
    return order, copy_size


# ---------------------------------------------------------------------------
# Corpus loading
# ---------------------------------------------------------------------------

def load_plan_file(path: str | Path) -> PlanDocument:
    """Parse one .json or .plan file and expand its reuse references."""
    p = Path(path)
    if p.suffix == ".json":
        doc = parse_plan_json(p.read_bytes())
    elif p.suffix == ".plan":
        doc = parse_plan_text(_decode_utf8(p.read_bytes()), plan_id=p.stem)
    else:
        raise CorpusLoadError(f"unsupported plan file type: {p.name}")
    return resolve_reuse_references(doc)


def corpus_files(path: str | Path) -> list[Path]:
    """The regular .json and .plan files under a directory, sorted by name,
    or [path]."""
    p = Path(path)
    if not p.exists():
        raise CorpusLoadError(f"no such path: {p}")
    if not p.is_dir():
        return [p]
    files = sorted(
        (f for f in p.iterdir() if f.suffix in (".json", ".plan") and f.is_file()),
        key=lambda f: f.name,
    )
    if not files:
        raise CorpusLoadError(f"no .json or .plan files under {p}")
    return files


def load_corpus(path: str | Path) -> Corpus:
    """Load every plan under a directory (or a single file), sorted by name.

    A plan_id seen before raises DuplicatePlanId as soon as it is reached;
    files that raised an InputError are all listed in one CorpusLoadError
    at the end.
    """
    documents: list[PlanDocument] = []
    failures: list[tuple[str, Exception]] = []
    seen: dict[str, str] = {}
    for f in corpus_files(path):
        try:
            doc = load_plan_file(f)
        except InputError as exc:
            failures.append((f.name, exc))
            continue
        if doc.plan_id in seen:
            raise DuplicatePlanId(doc.plan_id, [seen[doc.plan_id], f.name])
        seen[doc.plan_id] = f.name
        documents.append(doc)
    if failures:
        raise CorpusLoadError(failures)
    return Corpus(tuple(documents), str(Path(path)))
