"""Whole-graph fingerprinting: the 128-bit (edge, node) signature pair.

The edge signature is approach-independent; the node signature comes from
either the structured (feature-engineered, depth-weighted) or the n-gram
(fact-shingling, uniform-weight) algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .edges import edge_signature
from .features import node_signature_structured
from .ingest import PlanDocument
from .ngrams import NGramConfig, node_signature_ngram
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


def fingerprint_graph(graph: QDag, config: FingerprintConfig | None = None) -> Fingerprint128:
    """Compute both signatures of a validated graph."""
    config = config or FingerprintConfig()
    profile = structural_profile(graph)
    edge_sig = edge_signature(graph, profile)
    if config.approach == APPROACH_STRUCTURED:
        node_sig = node_signature_structured(graph, profile)
    else:
        node_sig = node_signature_ngram(graph, config.ngram)
    return Fingerprint128(edge_sig, node_sig, config.approach)


def fingerprint_document(
    doc: PlanDocument, config: FingerprintConfig | None = None
) -> Fingerprint128:
    return fingerprint_graph(doc.graph, config)
