"""Fingerprint index: runtime labels, two-step matching, 1-NN prediction.

Matching is a linear scan in two steps: first keep the k records closest
to the probe by edge-signature Hamming distance, then rank those k by
node-signature distance. The top-k cut orders records by (edge distance,
node distance, plan_id) and the ranking by (node distance, edge distance,
plan_id); both are total orders, so results are fully deterministic.

The header stamps the configuration every stored fingerprint was computed
under. IndexHeader.for_config and IndexHeader.to_config map a
FingerprintConfig to that stamp and back, and require_compatible is the
one comparison between a stamp and a config.

The index allows many concurrent readers with exclusive writers: mutation
and snapshot-taking synchronize on one lock, and scans run on snapshots,
so a read sees either the pre- or post-write state, never a partial one.
"""

from __future__ import annotations

import enum
import heapq
import json
import math
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import (
    ConfigMismatch,
    EmptyIndex,
    IndexFormatError,
    NegativeRuntime,
    NonFiniteRuntime,
)
from .edges import EDGE_LAYOUT_VERSION
from .features import FEATURE_SCHEMA_VERSION
from .fingerprint import (
    APPROACH_NGRAM,
    APPROACH_STRUCTURED,
    APPROACHES,
    Fingerprint128,
    FingerprintConfig,
)
from .ngrams import NGramConfig
from .simhash import HASH_ALGORITHM_ID, hamming

INDEX_FORMAT_VERSION = 1

SIMPLE_MEDIUM_BOUNDARY_SECONDS = 5.0
MEDIUM_COMPLEX_BOUNDARY_SECONDS = 30.0


class ComplexityLabel(enum.IntEnum):
    """Runtime category; ordering follows expected cost."""

    SIMPLE = 0
    MEDIUM = 1
    COMPLEX = 2

    @property
    def display(self) -> str:
        return self.name.capitalize()

    @classmethod
    def parse(cls, text: str) -> "ComplexityLabel":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown complexity label {text!r}") from None


def classify_runtime(runtime_seconds: float) -> ComplexityLabel:
    """[0, 5) -> Simple, [5, 30) -> Medium, [30, inf) -> Complex."""
    value = float(runtime_seconds)
    if not math.isfinite(value):
        raise NonFiniteRuntime(value)
    if value < 0:
        raise NegativeRuntime(value)
    if value < SIMPLE_MEDIUM_BOUNDARY_SECONDS:
        return ComplexityLabel.SIMPLE
    if value < MEDIUM_COMPLEX_BOUNDARY_SECONDS:
        return ComplexityLabel.MEDIUM
    return ComplexityLabel.COMPLEX


@dataclass(frozen=True)
class IndexRecord:
    """One past execution: fingerprint, measured runtime, derived label."""

    plan_id: str
    fingerprint: Fingerprint128
    runtime_seconds: float
    label: ComplexityLabel

    def __post_init__(self) -> None:
        expected = classify_runtime(self.runtime_seconds)
        if self.label is not expected:
            raise ValueError(
                f"label {self.label.display} does not match runtime "
                f"{self.runtime_seconds} ({expected.display})"
            )

    @classmethod
    def from_runtime(
        cls, plan_id: str, fingerprint: Fingerprint128, runtime_seconds: float
    ) -> "IndexRecord":
        return cls(plan_id, fingerprint, float(runtime_seconds), classify_runtime(runtime_seconds))


@dataclass(frozen=True)
class MatchResult:
    plan_id: str
    edge_distance: int
    node_distance: int
    label: ComplexityLabel
    runtime_seconds: float


@dataclass(frozen=True)
class IndexHeader:
    version: int
    hash_algo: str
    approach: str
    node_config: str
    edge_layout_version: str

    @classmethod
    def for_config(cls, config: FingerprintConfig) -> "IndexHeader":
        """The stamp of every input that decides fingerprint bits under config."""
        if config.approach == APPROACH_STRUCTURED:
            node_config = FEATURE_SCHEMA_VERSION
        else:
            node_config = config.ngram.config_id()
        return cls(
            version=INDEX_FORMAT_VERSION,
            hash_algo=HASH_ALGORITHM_ID,
            approach=config.approach,
            node_config=node_config,
            edge_layout_version=EDGE_LAYOUT_VERSION,
        )

    def to_config(self) -> FingerprintConfig:
        """The config this header stamps; inverse of for_config."""
        if self.approach == APPROACH_STRUCTURED:
            return FingerprintConfig()
        try:
            ngram = NGramConfig.from_id(self.node_config)
        except (KeyError, ValueError) as exc:
            raise ConfigMismatch("ngram_config", self.node_config, str(exc)) from exc
        return FingerprintConfig(approach=APPROACH_NGRAM, ngram=ngram)

    def to_json_obj(self) -> dict[str, object]:
        obj: dict[str, object] = {
            "version": self.version,
            "hash_algo": self.hash_algo,
            "approach": self.approach,
            "edge_layout_version": self.edge_layout_version,
        }
        key = "feature_schema_version" if self.approach == APPROACH_STRUCTURED else "ngram_config"
        obj[key] = self.node_config
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict[str, object]) -> "IndexHeader":
        approach = str(obj["approach"])
        key = "feature_schema_version" if approach == APPROACH_STRUCTURED else "ngram_config"
        return cls(
            version=int(obj["version"]),  # type: ignore[arg-type]
            hash_algo=str(obj["hash_algo"]),
            approach=approach,
            node_config=str(obj[key]),
            edge_layout_version=str(obj["edge_layout_version"]),
        )


# Header fields whose mismatch makes the stored fingerprints meaningless to
# this build, so Index.load refuses them. Every other field, hash_algo
# included, is refused only at use, so such a file stays inspectable.
_REFUSED_AT_LOAD = ("feature_schema_version", "edge_layout_version")


def require_compatible(
    header: IndexHeader, config: FingerprintConfig, fields: Iterable[str] | None = None
) -> None:
    """Raise ConfigMismatch unless config fingerprints as header's index did.

    Compares the header with IndexHeader.for_config(config) key by key in
    header order (or only the given fields) and names the first key that
    differs.
    """
    got = IndexHeader.for_config(config).to_json_obj()
    for key, expected in header.to_json_obj().items():
        if (fields is None or key in fields) and got.get(key) != expected:
            raise ConfigMismatch(key, expected, got.get(key))


class Index:
    """In-memory store of IndexRecords behind a config-stamped header."""

    def __init__(self, header: IndexHeader, records: Iterable[IndexRecord] = ()):
        if header.approach not in APPROACHES:
            raise ConfigMismatch("approach", "|".join(APPROACHES), header.approach)
        self.header = header
        self._records: dict[str, IndexRecord] = {}
        self._lock = threading.Lock()
        for record in records:
            self.add(record)

    @classmethod
    def new(cls, config: FingerprintConfig | None = None) -> "Index":
        return cls(IndexHeader.for_config(config or FingerprintConfig()))

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> list[IndexRecord]:
        with self._lock:
            return list(self._records.values())

    def _require_approach(self, fingerprint: Fingerprint128) -> None:
        if fingerprint.approach != self.header.approach:
            raise ConfigMismatch("approach", self.header.approach, fingerprint.approach)

    def add(self, record: IndexRecord) -> None:
        """Insert a record; an existing plan_id is replaced in place."""
        self._require_approach(record.fingerprint)
        with self._lock:
            self._records[record.plan_id] = record

    def match(
        self, probe: Fingerprint128, k: int = 10, top_n: int | None = None
    ) -> list[MatchResult]:
        """Two-step fuzzy match; returns up to top_n results (default k)."""
        self._require_approach(probe)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if top_n is not None and top_n < 1:
            raise ValueError(f"top_n must be >= 1, got {top_n}")
        records = self.records()
        if not records:
            raise EmptyIndex()

        scored = [
            (
                hamming(probe.edge_sig, r.fingerprint.edge_sig),
                hamming(probe.node_sig, r.fingerprint.node_sig),
                r.plan_id,
                r,
            )
            for r in records
        ]
        candidates = heapq.nsmallest(k, scored, key=lambda s: s[:3])
        candidates.sort(key=lambda s: (s[1], s[0], s[2]))
        if top_n is not None:
            candidates = candidates[:top_n]
        return [
            MatchResult(r.plan_id, ed, nd, r.label, r.runtime_seconds)
            for ed, nd, _, r in candidates
        ]

    def predict(
        self, probe: Fingerprint128, k: int = 10
    ) -> tuple[ComplexityLabel, MatchResult]:
        """1-NN prediction: the nearest match's label, with its evidence."""
        nearest = self.match(probe, k=k, top_n=1)[0]
        return nearest.label, nearest

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        with self._lock:
            records = list(self._records.values())
        lines = [json.dumps(self.header.to_json_obj())]
        for r in records:
            lines.append(
                json.dumps(
                    {
                        "plan_id": r.plan_id,
                        "edge_fp": r.fingerprint.edge_hex,
                        "node_fp": r.fingerprint.node_hex,
                        "runtime_seconds": r.runtime_seconds,
                        "label": r.label.display,
                    }
                )
            )
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Index":
        try:
            text = Path(path).read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            line_no = exc.object.count(b"\n", 0, exc.start) + 1
            raise IndexFormatError(line_no, f"not valid UTF-8 at byte {exc.start}") from exc
        lines = text.splitlines()
        if not lines:
            raise IndexFormatError(1, "empty index file")
        try:
            header_obj = json.loads(lines[0])
            header = IndexHeader.from_json_obj(header_obj)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise IndexFormatError(1, f"bad header: {exc}") from exc
        if header.version != INDEX_FORMAT_VERSION:
            raise IndexFormatError(
                1, f"unsupported index version {header.version} (expected {INDEX_FORMAT_VERSION})"
            )
        index = cls(header)
        require_compatible(header, FingerprintConfig(approach=header.approach), _REFUSED_AT_LOAD)

        # Records are parsed under the header's approach, so they skip add()'s check.
        records = index._records
        for line_no, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            record = _parse_record_line(line, line_no, header.approach)
            if record.plan_id in records:
                raise IndexFormatError(line_no, f"duplicate plan_id {record.plan_id!r}")
            records[record.plan_id] = record
        return index


def _parse_record_line(line: str, line_no: int, approach: str) -> IndexRecord:
    try:
        obj = json.loads(line)
        plan_id = obj["plan_id"]
        edge_hex = obj["edge_fp"]
        node_hex = obj["node_fp"]
        runtime = obj["runtime_seconds"]
        label = ComplexityLabel.parse(obj["label"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise IndexFormatError(line_no, str(exc)) from exc
    if not isinstance(plan_id, str) or not plan_id:
        raise IndexFormatError(line_no, "plan_id must be a non-empty string")
    for name, value in (("edge_fp", edge_hex), ("node_fp", node_hex)):
        if not isinstance(value, str) or len(value) != 16:
            raise IndexFormatError(line_no, f"{name} must be 16 hex characters")
    try:
        fingerprint = Fingerprint128(int(edge_hex, 16), int(node_hex, 16), approach)
    except ValueError as exc:
        raise IndexFormatError(line_no, str(exc)) from exc
    if isinstance(runtime, bool) or not isinstance(runtime, (int, float)):
        raise IndexFormatError(line_no, "runtime_seconds must be a number")
    try:
        record = IndexRecord(plan_id, fingerprint, float(runtime), label)
    except (ValueError, NegativeRuntime, NonFiniteRuntime) as exc:
        raise IndexFormatError(line_no, str(exc)) from exc
    return record
