"""Deterministic synthetic plan corpora for evaluation and benchmarks.

Each family binds a structural template (operator mix, shape, node-count
range) to a runtime band inside one complexity category. Documents within
a family are property-perturbed variants of a few base structures, so
families are separable by construction while in-family plans stay close.
Generation is a pure function of the seed: same seed, byte-identical files.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

from .features import PROPERTY_KEYS
from .index import ComplexityLabel, classify_runtime
from .ingest import Corpus, PlanDocument, render_plan_json
from .qdag import PlanNode, QDag

_COLUMN_TYPES = ("int", "bigint", "double", "string")

# Numeric properties a perturbation may touch.
_PERTURBABLE = (
    "num_partitions",
    "num_numeric_attrs",
    "num_string_attrs",
    "num_grouping_exprs",
    "num_result_exprs",
    "num_keys",
    "row_width",
)


@dataclass(frozen=True)
class FamilySpec:
    name: str
    shape: str  # "chain" | "aggregate" | "join"
    label: ComplexityLabel
    runtime_range: tuple[float, float]
    node_range: tuple[int, int]
    count: int


@dataclass(frozen=True)
class SyntheticSpec:
    seed: int
    families: tuple[FamilySpec, ...]
    perturbation_rate: float = 0.1


def default_spec(
    seed: int = 42,
    counts: tuple[int, int, int] = (100, 100, 100),
    perturbation_rate: float = 0.1,
) -> SyntheticSpec:
    """Three structurally distinct families, one per complexity band."""
    return SyntheticSpec(
        seed=seed,
        families=(
            FamilySpec("scanchain", "chain", ComplexityLabel.SIMPLE, (0.5, 4.5), (6, 10), counts[0]),
            FamilySpec("twophaseagg", "aggregate", ComplexityLabel.MEDIUM, (6.0, 28.0), (11, 15), counts[1]),
            FamilySpec("joinpipe", "join", ComplexityLabel.COMPLEX, (35.0, 290.0), (20, 28), counts[2]),
        ),
        perturbation_rate=perturbation_rate,
    )


# ---------------------------------------------------------------------------
# Structure templates
# ---------------------------------------------------------------------------

@dataclass
class _TemplateNode:
    operator: str
    columns: tuple[tuple[str, str], ...] = ()
    properties: dict[str, int | str] = field(default_factory=dict)
    extra: str = ""


def _render_fact(t: _TemplateNode) -> str:
    parts = [t.operator]
    if t.columns:
        parts.append("[" + ", ".join(f"{n}:{ty}" for n, ty in t.columns) + "]")
    if t.extra:
        parts.append(t.extra)
    for key in PROPERTY_KEYS:
        if key in t.properties:
            parts.append(f"{key}={t.properties[key]}")
    return " ".join(parts)


def _make_columns(rng: random.Random, lo: int, hi: int) -> tuple[tuple[str, str], ...]:
    return tuple(
        (f"c{i}", rng.choice(_COLUMN_TYPES)) for i in range(rng.randint(lo, hi))
    )


def _column_counts(columns: tuple[tuple[str, str], ...]) -> tuple[int, int]:
    strings = sum(1 for _, ty in columns if ty == "string")
    return len(columns) - strings, strings


def _scan_node(rng: random.Random, lo: int = 3, hi: int = 6) -> _TemplateNode:
    cols = _make_columns(rng, lo, hi)
    numeric, strings = _column_counts(cols)
    return _TemplateNode(
        "Scan",
        cols,
        {
            "num_numeric_attrs": numeric,
            "num_string_attrs": strings,
            "row_width": rng.choice([16, 24, 32, 48, 64]),
        },
    )


def _exchange_node(rng: random.Random) -> _TemplateNode:
    return _TemplateNode(
        "Exchange",
        (),
        {"num_partitions": rng.choice([8, 16, 32, 64, 128, 200])},
        extra="hashpartitioning(c0)",
    )


def _project_node(cols: tuple[tuple[str, str], ...]) -> _TemplateNode:
    numeric, strings = _column_counts(cols)
    return _TemplateNode(
        "Project",
        cols,
        {"num_result_exprs": len(cols), "num_numeric_attrs": numeric, "num_string_attrs": strings},
    )


def _chain_template(rng: random.Random, node_range: tuple[int, int]) -> tuple[list[_TemplateNode], list[tuple[int, int]]]:
    """Scan -> alternating Filter/Project -> Exchange, one straight line."""
    n = rng.randint(*node_range)
    nodes = [_scan_node(rng)]
    for i in range(n - 2):
        if i % 2 == 0:
            nodes.append(
                _TemplateNode("Filter", (), {}, extra=f"(c{rng.randint(0, 2)} > {rng.randint(1, 999)})")
            )
        else:
            nodes.append(_project_node(nodes[0].columns[: rng.randint(1, len(nodes[0].columns))]))
    nodes.append(_exchange_node(rng))
    edges = [(i, i + 1) for i in range(len(nodes) - 1)]
    return nodes, edges


def _aggregate_template(rng: random.Random, node_range: tuple[int, int]) -> tuple[list[_TemplateNode], list[tuple[int, int]]]:
    """Two scan branches -> Union -> two-phase aggregate -> Project."""
    branch_len = max(3, (rng.randint(*node_range) - 5) // 2)
    nodes: list[_TemplateNode] = []
    edges: list[tuple[int, int]] = []
    branch_tops = []
    for _ in range(2):
        start = len(nodes)
        nodes.append(_scan_node(rng))
        for j in range(branch_len - 1):
            nodes.append(
                _TemplateNode("Filter", (), {}, extra=f"(c{j % 3} < {rng.randint(1, 500)})")
            )
        edges.extend((i, i + 1) for i in range(start, len(nodes) - 1))
        branch_tops.append(len(nodes) - 1)

    union = len(nodes)
    nodes.append(_TemplateNode("Union"))
    edges.extend((top, union) for top in branch_tops)

    grouping = rng.randint(1, 3)
    aggregate = _TemplateNode(
        "HashAggregate",
        (),
        {"num_grouping_exprs": grouping, "num_result_exprs": rng.randint(1, 4)},
        extra=f"keys=[{', '.join(f'c{i}' for i in range(grouping))}]",
    )
    # Partial and final aggregate around the shuffle, each fed by the node before.
    tail = (aggregate, _exchange_node(rng), aggregate, _project_node(_make_columns(rng, 2, 4)))
    for node in tail:
        edges.append((len(nodes) - 1, len(nodes)))
        nodes.append(node)
    return nodes, edges


def _join_template(rng: random.Random, node_range: tuple[int, int]) -> tuple[list[_TemplateNode], list[tuple[int, int]]]:
    """Left-deep sort-merge join pipeline over Scan->Exchange->Sort stacks."""
    joins = max(2, (rng.randint(*node_range) - 4) // 4)
    nodes: list[_TemplateNode] = []
    edges: list[tuple[int, int]] = []

    def sorted_scan() -> int:
        start = len(nodes)
        nodes.append(_scan_node(rng, 4, 8))
        nodes.append(_exchange_node(rng))
        nodes.append(_TemplateNode("Sort", (), {"num_keys": rng.randint(1, 3)}, extra="c0 ASC"))
        edges.extend(((start, start + 1), (start + 1, start + 2)))
        return start + 2

    left = sorted_scan()
    for _ in range(joins):
        right = sorted_scan()
        join = len(nodes)
        semantics = rng.choice(["inner", "inner", "inner", "outer", "semi"])
        nodes.append(
            _TemplateNode(
                "SortMergeJoin",
                (),
                {
                    "join_algorithm": "sort-merge",
                    "join_semantics": semantics,
                    "num_keys": rng.randint(1, 3),
                },
            )
        )
        edges.extend(((left, join), (right, join)))
        left = join

    nodes.append(_project_node(_make_columns(rng, 3, 6)))
    edges.append((left, len(nodes) - 1))
    return nodes, edges


_BUILDERS = {
    "chain": _chain_template,
    "aggregate": _aggregate_template,
    "join": _join_template,
}

_BASE_STRUCTURES_PER_FAMILY = 3


# ---------------------------------------------------------------------------
# Document generation
# ---------------------------------------------------------------------------

def _mutate_property(properties: dict[str, int | str], key: str, rng: random.Random) -> None:
    value = int(properties[key])
    if key in ("num_partitions", "row_width"):
        properties[key] = value * 2 if value <= 512 else max(1, value // 2)
    else:
        properties[key] = value + rng.randint(1, 2)


def _instantiate(
    family: FamilySpec,
    template: tuple[list[_TemplateNode], list[tuple[int, int]]],
    plan_id: str,
    rng: random.Random,
    perturbation_rate: float,
) -> PlanDocument:
    base_nodes, edges = template
    plan_nodes = []
    for node_id, base in enumerate(base_nodes):
        properties = dict(base.properties)
        if perturbation_rate > 0 and rng.random() < perturbation_rate:
            mutable = [k for k in _PERTURBABLE if k in properties]
            if mutable:
                _mutate_property(properties, rng.choice(mutable), rng)
        rendered = _TemplateNode(base.operator, base.columns, properties, base.extra)
        plan_nodes.append(PlanNode(node_id, base.operator, _render_fact(rendered), properties))

    runtime = round(rng.uniform(*family.runtime_range), 3)
    if classify_runtime(runtime) is not family.label:
        raise AssertionError(
            f"family {family.name} runtime range strays out of its band: {runtime}"
        )
    return PlanDocument(plan_id, runtime, QDag(plan_id, plan_nodes, edges))


def build_corpus(spec: SyntheticSpec) -> Corpus:
    """Generate all documents in memory, deterministically from the seed."""
    rng = random.Random(spec.seed)
    documents = []
    for family in spec.families:
        builder = _BUILDERS[family.shape]
        templates = [
            builder(rng, family.node_range) for _ in range(_BASE_STRUCTURES_PER_FAMILY)
        ]
        for i in range(family.count):
            plan_id = f"{family.name}-{i:03d}"
            documents.append(
                _instantiate(
                    family,
                    templates[i % len(templates)],
                    plan_id,
                    rng,
                    spec.perturbation_rate,
                )
            )
    return Corpus(tuple(documents), source_path=f"synthetic:seed={spec.seed}")


def generate_corpus(spec: SyntheticSpec, out_dir: str | Path) -> Corpus:
    """Write one JSON file per generated document under out_dir."""
    corpus = build_corpus(spec)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for doc in corpus.documents:
        (out / f"{doc.plan_id}.json").write_text(
            render_plan_json(doc, indent=2) + "\n", encoding="utf-8"
        )
    return Corpus(corpus.documents, str(out))


# ---------------------------------------------------------------------------
# Controlled variations used in evaluation
# ---------------------------------------------------------------------------

def perturb_one_property(doc: PlanDocument, seed: int = 0) -> PlanDocument:
    """A variant of doc with exactly one numeric node property changed."""
    rng = random.Random(seed)
    candidates = [
        (i, key)
        for i, node in enumerate(doc.graph.nodes)
        for key in _PERTURBABLE
        if key in node.properties
    ]
    if not candidates:
        raise ValueError(f"document {doc.plan_id!r} has no perturbable properties")
    i, key = rng.choice(candidates)
    node = doc.graph.nodes[i]
    properties = dict(node.properties)
    old = properties[key]
    _mutate_property(properties, key, rng)

    token = f"{key}={old}"
    if token in node.fact:
        fact = node.fact.replace(token, f"{key}={properties[key]}", 1)
    else:
        fact = f"{node.fact} {key}={properties[key]}"

    nodes = list(doc.graph.nodes)
    nodes[i] = replace(node, fact=fact, properties=properties)
    return replace(doc, graph=QDag(doc.graph.id, nodes, doc.graph.edges))


_COLUMN_TOKEN = re.compile(r"\bc(\d+)\b")


def rename_columns(doc: PlanDocument, prefix: str = "renamed") -> PlanDocument:
    """Consistently rename every column identifier in the fact strings.

    Counts and types are untouched, so structured fingerprints must not
    move at all; only the n-gram view of the plan changes.
    """
    nodes = [
        replace(node, fact=_COLUMN_TOKEN.sub(rf"{prefix}\1", node.fact))
        for node in doc.graph.nodes
    ]
    return replace(doc, graph=QDag(doc.graph.id, nodes, doc.graph.edges))
