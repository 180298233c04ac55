"""N-gram node fingerprinting (text-shingling approach).

Each node's fact line is treated as a character stream: normalize, slide a
length-n window, hash every gram, then combine the grams of all nodes with
uniform-weight SimHash. Normalizing strips expression ids and collapses
whitespace, unless turned off, and keeps case (lower=0 in the stamp); it
uses no regex for whitespace and none for ids in a fact without "#"; grams
keep their multiplicity unless dedupe asks for per-node set semantics.

A plan's grams are hashed in one numpy pass, with no loop over grams: the
normalized facts are joined and UTF-8-encoded once, every gram becomes a
(start, length) byte span of that buffer, and cityhash64_spans hashes all
spans at once. Each span is the UTF-8 encoding of its gram, so the hashes
are those of string_hash64 on each gram. node_signatures_ngram makes one
such pass for a block of plans, over the graphs' fact columns.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cityhash import cityhash64_spans
from .errors import EmptyFact
from .qdag import QDag
from .simhash import simhash_runs

# Per-instance expression ids ("x#12") would destroy cross-query similarity.
_ID_TOKEN = re.compile(r"#\d+")


@dataclass(frozen=True)
class NGramConfig:
    n: int = 3
    collapse_whitespace: bool = True
    strip_ids: bool = True
    dedupe: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")

    def config_id(self) -> str:
        """Canonical identifier recorded in index headers."""
        return (
            f"n={self.n},strip_ids={int(self.strip_ids)},"
            f"collapse_ws={int(self.collapse_whitespace)},"
            f"lower=0,dedupe={int(self.dedupe)}"
        )

    @classmethod
    def from_id(cls, config_id: str) -> "NGramConfig":
        fields = dict(part.split("=", 1) for part in config_id.split(","))
        if int(fields["lower"]):
            raise ValueError(f"facts are never lowercased: {config_id}")
        return cls(
            n=int(fields["n"]),
            strip_ids=bool(int(fields["strip_ids"])),
            collapse_whitespace=bool(int(fields["collapse_ws"])),
            dedupe=bool(int(fields["dedupe"])),
        )


def normalize_fact(fact: str, cfg: NGramConfig) -> str:
    """The fact with "#<digits>" ids removed and each whitespace run made one
    space, trimmed at both ends, as cfg asks.

    str.split() splits at exactly the characters the regex \\s matches, so
    the join equals re.sub(r"\\s+", " ", fact).strip(); the id regex runs
    only on a fact that holds a "#".
    """
    if cfg.strip_ids and "#" in fact:
        fact = _ID_TOKEN.sub("", fact)
    if cfg.collapse_whitespace:
        fact = " ".join(fact.split())
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


def _gram_hashes(facts: Sequence[str], cfg: NGramConfig) -> tuple[np.ndarray, np.ndarray]:
    """string_hash64 of every gram of every fact, fact by fact in gram order,
    and the number of hashes of each fact.

    With dedupe, a repeat of a hash earlier in the same fact is dropped.
    """
    texts = [normalize_fact(fact, cfg) for fact in facts]
    for fact, text in zip(facts, texts):
        if not text:
            raise EmptyFact(fact)
    joined = "".join(texts)
    data = joined.encode("utf-8")
    chars = np.fromiter(map(len, texts), np.int64, len(texts))
    # A fact shorter than n is one gram: the whole fact.
    grams = np.maximum(chars - (cfg.n - 1), 1)
    total = int(grams.sum())
    # Gram g of fact f starts at char offset (start of f) + (g - first gram of f).
    shift = (np.cumsum(chars) - chars) - (np.cumsum(grams) - grams)
    start = np.arange(total) + np.repeat(shift, grams)
    end = start + np.repeat(np.minimum(chars, cfg.n), grams)
    if not joined.isascii():
        # Char offset -> byte offset: the positions of the non-continuation
        # bytes, then the end of the buffer.
        raw = np.frombuffer(data, np.uint8)
        offsets = np.append(np.flatnonzero((raw & 0xC0) != 0x80), len(data))
        start, end = offsets[start], offsets[end]
    hashes = cityhash64_spans(data, start, end - start)
    if cfg.dedupe:
        fact_of = np.repeat(np.arange(len(texts)), grams)
        order = np.lexsort((hashes, fact_of))  # stable: ties keep gram order
        h, f = hashes[order], fact_of[order]
        first = np.ones(total, bool)
        first[1:] = (h[1:] != h[:-1]) | (f[1:] != f[:-1])
        kept = np.sort(order[first])
        return hashes[kept], np.bincount(fact_of[kept], minlength=len(texts))
    return hashes, grams


def node_signatures_ngram(graphs: Sequence[QDag], cfg: NGramConfig) -> list[int]:
    """N(G) of each graph: uniform-weight SimHash over every gram hash of
    every node."""
    hashes, grams = _gram_hashes([fact for graph in graphs for fact in graph.facts], cfg)
    nodes = np.array([len(graph.ids) for graph in graphs], np.int64)
    return simhash_runs(hashes, np.add.reduceat(grams, np.cumsum(nodes) - nodes))
