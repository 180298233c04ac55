"""Whole-graph fingerprinting: the 128-bit (edge, node) signature pair.

The edge signature is approach-independent; the node signature comes from
either the structured (feature-engineered, depth-weighted) or the n-gram
(fact-shingling, uniform-weight) algorithm.

fingerprint_documents takes plans in blocks of about BLOCK_CHARS fact
characters; only a block's plans are held at once. A block is profiled plan
by plan, then its nodes are walked once (edges.node_fields) into flat
per-node columns: operator code, the edge fields and depth. The edge
signatures of the whole block come from those columns in one numpy pass, and
so do the structured node hashes' codes and weights; the node hashes of a
block are computed in one pass and every plan's SimHash is tallied from one
bit matrix. fingerprint_document is the block of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence

from .edges import edge_signatures, node_fields
from .features import node_signatures_structured
from .ingest import PlanDocument
from .ngrams import NGramConfig, node_signatures_ngram
from .qdag import QDag, structural_profile
from .simhash import MASK64

APPROACH_STRUCTURED = "structured"
APPROACH_NGRAM = "ngram"
APPROACHES = (APPROACH_STRUCTURED, APPROACH_NGRAM)


@dataclass(frozen=True)
class Fingerprint128:
    """Edge signature S(G) and node signature N(G), 64 bits each."""

    edge_sig: int
    node_sig: int
    approach: str

    def __post_init__(self) -> None:
        for sig in (self.edge_sig, self.node_sig):
            if not 0 <= sig <= MASK64:
                raise ValueError(f"signature out of 64-bit range: {sig}")
        if self.approach not in APPROACHES:
            raise ValueError(f"unknown approach {self.approach!r}")

    @property
    def edge_hex(self) -> str:
        return f"{self.edge_sig:016x}"

    @property
    def node_hex(self) -> str:
        return f"{self.node_sig:016x}"


class FingerprintedPlan(NamedTuple):
    """What an index or an eval keeps of a plan file."""

    plan_id: str
    fingerprint: Fingerprint128
    runtime_seconds: float | None


@dataclass(frozen=True)
class FingerprintConfig:
    """Everything that determines fingerprint bits, minus the graph."""

    approach: str = APPROACH_STRUCTURED
    ngram: NGramConfig = field(default_factory=NGramConfig)

    def __post_init__(self) -> None:
        if self.approach not in APPROACHES:
            raise ValueError(f"unknown approach {self.approach!r}")


# Fact characters per block of plans: about five plans of the synthetic
# corpora, enough to spread the fixed cost of a hashing pass; twice that
# raised eval's peak RSS by 0.4 MB for little time (2-core Xeon VM).
BLOCK_CHARS = 4096


def _fingerprint_block(graphs: Sequence[QDag], config: FingerprintConfig) -> list[Fingerprint128]:
    profiles = [structural_profile(graph) for graph in graphs]
    fields = node_fields(graphs, profiles)
    edge_sigs = edge_signatures(fields, [len(graph.nodes) for graph in graphs])
    if config.approach == APPROACH_STRUCTURED:
        node_sigs = node_signatures_structured(graphs, fields)
    else:
        node_sigs = node_signatures_ngram(graphs, config.ngram)
    return [Fingerprint128(e, n, config.approach) for e, n in zip(edge_sigs, node_sigs)]


def fingerprint_graph(graph: QDag, config: FingerprintConfig | None = None) -> Fingerprint128:
    """Compute both signatures of a validated graph."""
    return _fingerprint_block([graph], config or FingerprintConfig())[0]


def fingerprint_document(
    doc: PlanDocument, config: FingerprintConfig | None = None
) -> Fingerprint128:
    return fingerprint_graph(doc.graph, config)


def fingerprint_documents(
    docs: Iterable[PlanDocument], config: FingerprintConfig | None = None
) -> Iterator[FingerprintedPlan]:
    """Each doc's FingerprintedPlan, in order, fingerprinted a block at a time.

    docs is read up to a block ahead, so an error in a plan (or in reading
    docs) may come before the plans of its block.
    """
    config = config or FingerprintConfig()
    remaining = iter(docs)
    while block := _next_block(remaining):
        fingerprints = _fingerprint_block([doc.graph for doc in block], config)
        for doc, fp in zip(block, fingerprints):
            yield FingerprintedPlan(doc.plan_id, fp, doc.runtime_seconds)


def _next_block(docs: Iterator[PlanDocument]) -> list[PlanDocument]:
    """The next docs, up to the one whose facts bring the block to BLOCK_CHARS."""
    block: list[PlanDocument] = []
    chars = 0
    for doc in docs:
        block.append(doc)
        chars += sum(len(node.fact) for node in doc.graph.nodes)
        if chars >= BLOCK_CHARS:
            break
    return block
