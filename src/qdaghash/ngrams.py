"""N-gram node fingerprinting (text-shingling approach).

Each node's fact line is treated as a character stream: normalize, slide a
length-n window, hash every gram, then combine the grams of all nodes with
uniform-weight SimHash. Repeated grams keep their multiplicity by default;
set dedupe for per-node set semantics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .errors import EmptyFact
from .qdag import PlanNode, QDag
from .simhash import simhash, string_hash64

# Per-instance expression ids ("x#12") would destroy cross-query similarity.
_ID_TOKEN = re.compile(r"#\d+")
_WS_RUN = re.compile(r"\s+")


@dataclass(frozen=True)
class NGramConfig:
    n: int = 3
    collapse_whitespace: bool = True
    strip_ids: bool = True
    lowercase: bool = False
    dedupe: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")

    def config_id(self) -> str:
        """Canonical identifier recorded in index headers."""
        return (
            f"n={self.n},strip_ids={int(self.strip_ids)},"
            f"collapse_ws={int(self.collapse_whitespace)},"
            f"lower={int(self.lowercase)},dedupe={int(self.dedupe)}"
        )

    @classmethod
    def from_id(cls, config_id: str) -> "NGramConfig":
        fields = dict(part.split("=", 1) for part in config_id.split(","))
        return cls(
            n=int(fields["n"]),
            strip_ids=bool(int(fields["strip_ids"])),
            collapse_whitespace=bool(int(fields["collapse_ws"])),
            lowercase=bool(int(fields["lower"])),
            dedupe=bool(int(fields["dedupe"])),
        )


def normalize_fact(fact: str, cfg: NGramConfig) -> str:
    if cfg.strip_ids:
        fact = _ID_TOKEN.sub("", fact)
    if cfg.collapse_whitespace:
        fact = _WS_RUN.sub(" ", fact).strip()
    if cfg.lowercase:
        fact = fact.lower()
    return fact


def ngrams(fact: str, cfg: NGramConfig | None = None) -> list[str]:
    """All length-n character windows of the normalized fact, in order.

    A fact shorter than n yields itself as the single gram; one that
    normalizes to the empty string is an error.
    """
    cfg = cfg or NGramConfig()
    text = normalize_fact(fact, cfg)
    if not text:
        raise EmptyFact(fact)
    if len(text) < cfg.n:
        return [text]
    return [text[i:i + cfg.n] for i in range(len(text) - cfg.n + 1)]


@lru_cache(maxsize=1 << 16)
def _gram_hash(gram: str) -> int:
    return string_hash64(gram)


def node_hashes_ngram(node: PlanNode, cfg: NGramConfig | None = None) -> list[int]:
    """64-bit hash per gram of the node's fact (multiset unless dedupe)."""
    cfg = cfg or NGramConfig()
    hashes = [_gram_hash(g) for g in ngrams(node.fact, cfg)]
    if cfg.dedupe:
        hashes = list(dict.fromkeys(hashes))
    return hashes


def node_signature_ngram(graph: QDag, cfg: NGramConfig | None = None) -> int:
    """N(G): uniform-weight SimHash over every gram hash of every node."""
    cfg = cfg or NGramConfig()
    all_hashes: list[int] = []
    for node in graph.nodes:
        all_hashes.extend(node_hashes_ngram(node, cfg))
    return simhash(all_hashes)
