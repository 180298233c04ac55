"""Fingerprint index: runtime labels, two-step matching, 1-NN prediction.

An index holds its records as parallel columns in insertion order: edge
and node signatures (uint64), runtime (float64), label (uint8) and the
plan ids.

Matching is a linear scan in two steps: first keep the k records closest
to the probe by edge-signature Hamming distance, then rank those k by
node-signature distance. The top-k cut orders records by (edge distance,
node distance, plan_id) and the ranking by (node distance, edge distance,
plan_id); both are total orders, so results are fully deterministic.
_two_step is the one implementation of both orders, shared by Index.match
and the leave-one-out eval. It popcounts the whole edge column in numpy,
keeps every record within the k-th smallest edge distance (ties
included), and sorts only that small set in Python.

The header stamps the configuration every stored fingerprint was computed
under. IndexHeader.for_config and IndexHeader.to_config map a
FingerprintConfig to that stamp and back, and require_compatible is the
one comparison between a stamp and a config.

Index files (format v2) are the JSON header line, then fixed-width
little-endian blocks, in this order:

    counts   2 x <u8  record count n, id blob size m
    edge     n x <u8  edge signatures
    node     n x <u8  node signatures
    runtime  n x <f8  runtime seconds
    offsets  n x <u8  end of each plan id in the id blob
    label    n x u1   ComplexityLabel of each runtime
    ids      m bytes  the UTF-8 plan ids, concatenated

Index.load reads the blocks with np.frombuffer and checks every record
column-wise (see _read_v2), plan ids included, without a Python object per
record: the ids are valid UTF-8 when the whole blob decodes and no id
starts on a continuation byte, and they are distinct when no two ids of one
length share a 64-bit key of their bytes (a shared key falls back to an
exact check). The loaded ids stay in the blob and are decoded one at a
time when read, so a match decodes only its candidates; the first add
turns them into a list. Loading a 100,000-record index takes 12-20 ms
and lifts peak RSS from 30 MB after import to 42.5 MB (2-core Xeon VM,
BENCH_8.json).

Version 1 files, one JSON record per line after the header, still load;
save always writes version 2. Save writes a temporary file beside the
target, fsyncs it and renames it over the target, so a crash leaves either
the old file or the new one.

The index allows many concurrent readers with exclusive writers: mutation
and snapshot-taking synchronize on one lock, and scans run on snapshots,
so a read sees either the pre- or post-write state, never a partial one.
"""

from __future__ import annotations

import contextlib
import enum
import json
import math
import os
import stat
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence, overload

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
from .operators import REGISTRY_VERSION
from .simhash import HASH_ALGORITHM_ID

INDEX_FORMAT_VERSION = 2
_READABLE_VERSIONS = (1, INDEX_FORMAT_VERSION)

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
        except (AttributeError, KeyError):
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


def _classify_column(runtime: np.ndarray) -> np.ndarray:
    """classify_runtime of each finite, non-negative runtime, as label values."""
    bounds = (SIMPLE_MEDIUM_BOUNDARY_SECONDS, MEDIUM_COMPLEX_BOUNDARY_SECONDS)
    return np.searchsorted(bounds, runtime, side="right")


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


# The operator table of every index written before headers recorded it.
_UNSTAMPED_OPERATOR_REGISTRY = "ops1"


@dataclass(frozen=True)
class IndexHeader:
    version: int
    hash_algo: str
    approach: str
    node_config: str
    edge_layout_version: str
    operator_registry: str

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
            operator_registry=REGISTRY_VERSION,
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
        obj["operator_registry"] = self.operator_registry
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict[str, object]) -> "IndexHeader":
        """Inverse of to_json_obj; a missing key raises KeyError and a value
        of the wrong JSON type raises TypeError, nothing is coerced.

        A header without operator_registry predates the key and was written
        with the only table of that time.
        """
        approach = _json_str(obj, "approach")
        key = "feature_schema_version" if approach == APPROACH_STRUCTURED else "ngram_config"
        version = obj["version"]
        if isinstance(version, bool) or not isinstance(version, int):
            raise TypeError(f"'version' must be an integer, got {version!r}")
        return cls(
            version=version,
            hash_algo=_json_str(obj, "hash_algo"),
            approach=approach,
            node_config=_json_str(obj, key),
            edge_layout_version=_json_str(obj, "edge_layout_version"),
            operator_registry=(
                _json_str(obj, "operator_registry")
                if "operator_registry" in obj
                else _UNSTAMPED_OPERATOR_REGISTRY
            ),
        )


def _json_str(obj: dict[str, object], key: str) -> str:
    value = obj[key]
    if not isinstance(value, str):
        raise TypeError(f"{key!r} must be a string, got {value!r}")
    return value


# Header fields whose mismatch makes the stored fingerprints meaningless to
# this build, so Index.load refuses them. Every other field, hash_algo
# included, is refused only at use, so such a file stays inspectable.
_REFUSED_AT_LOAD = ("feature_schema_version", "edge_layout_version", "operator_registry")


def require_compatible(
    header: IndexHeader, config: FingerprintConfig, fields: Iterable[str] | None = None
) -> None:
    """Raise ConfigMismatch unless config fingerprints as header's index did.

    Compares the header with IndexHeader.for_config(config) key by key in
    header order (or only the given fields) and names the first key that
    differs. The file format version is not compared: it decides how the
    file is read, not the fingerprint bits.
    """
    got = IndexHeader.for_config(config).to_json_obj()
    for key, expected in header.to_json_obj().items():
        if key == "version" or (fields is not None and key not in fields):
            continue
        if got.get(key) != expected:
            raise ConfigMismatch(key, expected, got.get(key))


# -- columns and the ranking kernel --------------------------------------------

_U64 = np.dtype("<u8")
_F64 = np.dtype("<f8")
_U8 = np.dtype("u1")
# A record's row values: edge signature, node signature, runtime, label.
_ROW_DTYPES = (_U64, _U64, _F64, _U8)
# Larger than any Hamming distance between 64-bit words.
_EXCLUDED = 255


class _IdColumn(Sequence[str]):
    """The plan ids of a v2 file, each decoded from the id blob when read.

    Row i is blob[starts[i]:ends[i]]; _read_v2 has checked that every row
    decodes and that no two are equal.
    """

    def __init__(self, blob: bytes, starts: np.ndarray, ends: np.ndarray):
        self._blob = blob
        self._starts = starts
        self._ends = ends

    def __len__(self) -> int:
        return len(self._ends)

    @overload
    def __getitem__(self, row: int) -> str: ...

    @overload
    def __getitem__(self, row: slice) -> list[str]: ...

    def __getitem__(self, row: int | slice) -> str | list[str]:
        if isinstance(row, slice):
            return [self[i] for i in range(*row.indices(len(self)))]
        return self._blob[self._starts[row] : self._ends[row]].decode("utf-8")

    def __iter__(self) -> Iterator[str]:
        blob = self._blob
        for start, end in zip(self._starts.tolist(), self._ends.tolist()):
            yield blob[start:end].decode("utf-8")


class _Columns(NamedTuple):
    """A snapshot of an index's rows, in insertion order.

    ids may be the index's own list, which is only ever appended to, so it
    can run longer than the arrays; rows past len(edge) are not in the
    snapshot. After a load, until the first add, ids is an _IdColumn.
    """

    ids: Sequence[str]
    edge: np.ndarray
    node: np.ndarray
    runtime: np.ndarray
    label: np.ndarray

    @classmethod
    def of(cls, records: Sequence[IndexRecord]) -> "_Columns":
        return cls([r.plan_id for r in records], *_row_arrays([_row(r) for r in records]))


def _row(record: IndexRecord) -> tuple[int, int, float, int]:
    fp = record.fingerprint
    return fp.edge_sig, fp.node_sig, record.runtime_seconds, record.label


def _row_arrays(rows: Sequence[tuple[int, int, float, int]]) -> list[np.ndarray]:
    """The edge, node, runtime and label arrays of rows."""
    columns = list(zip(*rows)) or [()] * len(_ROW_DTYPES)
    return [np.array(values, dtype) for values, dtype in zip(columns, _ROW_DTYPES)]


def _two_step(
    columns: _Columns, probe_edge: int, probe_node: int, k: int, skip: int | None = None
) -> list[tuple[int, int, str, int]]:
    """The two-step match of a probe against columns.

    Returns (edge distance, node distance, plan_id, row) of the k rows first
    by (edge, node, plan_id), ranked by (node, edge, plan_id); k is capped
    at the row count. Row skip, if given, is left out. Requires k >= 1 and
    at least one row besides skip.
    """
    edge_d = np.bitwise_count(columns.edge ^ np.uint64(probe_edge))
    rows_in = len(edge_d)
    if skip is not None:
        edge_d[skip] = _EXCLUDED
        rows_in -= 1
    k = min(k, rows_in)
    # Every row within the k-th smallest edge distance is a candidate, so
    # the exact order below decides ties at the cut.
    cut = np.partition(edge_d, k - 1)[k - 1]
    rows = np.flatnonzero(edge_d <= cut)
    node_d = np.bitwise_count(columns.node[rows] ^ np.uint64(probe_node))
    ids = columns.ids
    row_list = rows.tolist()
    scored = sorted(
        zip(edge_d[rows].tolist(), node_d.tolist(), [ids[r] for r in row_list], row_list)
    )[:k]
    scored.sort(key=lambda s: (s[1], s[0], s[2]))
    return scored


class Index:
    """In-memory store of IndexRecords behind a config-stamped header."""

    def __init__(self, header: IndexHeader, records: Iterable[IndexRecord] = ()):
        if header.approach not in APPROACHES:
            raise ConfigMismatch("approach", "|".join(APPROACHES), header.approach)
        self.header = header
        self._lock = threading.Lock()
        # An _IdColumn after a load, a list from the first add on.
        self._ids: Sequence[str] = []
        # plan_id -> row; None after a load until the first add needs it.
        self._row_of: dict[str, int] | None = {}
        self._frozen = _Columns(self._ids, *_row_arrays(()))
        # Rows added or replaced since _frozen was built, folded in by _columns.
        self._pending: dict[int, tuple[int, int, float, int]] = {}
        for record in records:
            self.add(record)

    @classmethod
    def new(cls, config: FingerprintConfig | None = None) -> "Index":
        return cls(IndexHeader.for_config(config or FingerprintConfig()))

    def __len__(self) -> int:
        return len(self._ids)

    def _columns(self) -> _Columns:
        """A snapshot of every row; rows added since the last one are folded in."""
        with self._lock:
            if self._pending:
                n = len(self._ids)
                rows = np.fromiter(self._pending, np.intp, len(self._pending))
                arrays = []
                for old, new in zip(self._frozen[1:], _row_arrays(list(self._pending.values()))):
                    array = np.empty(n, old.dtype)
                    array[: len(old)] = old
                    array[rows] = new
                    arrays.append(array)
                self._frozen = _Columns(self._ids, *arrays)
                self._pending = {}
            return self._frozen

    def records(self) -> list[IndexRecord]:
        columns = self._columns()
        approach = self.header.approach
        return [
            IndexRecord(
                plan_id, Fingerprint128(edge, node, approach), runtime, ComplexityLabel(label)
            )
            for plan_id, edge, node, runtime, label in zip(
                columns.ids, *(array.tolist() for array in columns[1:])
            )
        ]

    def _require_approach(self, fingerprint: Fingerprint128) -> None:
        if fingerprint.approach != self.header.approach:
            raise ConfigMismatch("approach", self.header.approach, fingerprint.approach)

    def add(self, record: IndexRecord) -> None:
        """Insert a record; an existing plan_id is replaced in place."""
        self._require_approach(record.fingerprint)
        with self._lock:
            if self._row_of is None:
                self._ids = list(self._ids)
                self._row_of = {plan_id: row for row, plan_id in enumerate(self._ids)}
            row = self._row_of.setdefault(record.plan_id, len(self._ids))
            if row == len(self._ids):
                self._ids.append(record.plan_id)
            self._pending[row] = _row(record)

    def match(
        self, probe: Fingerprint128, k: int = 10, top_n: int | None = None
    ) -> list[MatchResult]:
        """Two-step fuzzy match; returns up to top_n results (default k)."""
        self._require_approach(probe)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if top_n is not None and top_n < 1:
            raise ValueError(f"top_n must be >= 1, got {top_n}")
        columns = self._columns()
        if not len(columns.edge):
            raise EmptyIndex()
        ranked = _two_step(columns, probe.edge_sig, probe.node_sig, k)[:top_n]
        return [
            MatchResult(
                plan_id,
                edge_d,
                node_d,
                ComplexityLabel(int(columns.label[row])),
                float(columns.runtime[row]),
            )
            for edge_d, node_d, plan_id, row in ranked
        ]

    def predict(
        self, probe: Fingerprint128, k: int = 10
    ) -> tuple[ComplexityLabel, MatchResult]:
        """1-NN prediction: the nearest match's label, with its evidence."""
        nearest = self.match(probe, k=k, top_n=1)[0]
        return nearest.label, nearest

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the index as a version 2 file; see the module docstring."""
        columns = self._columns()
        n = len(columns.edge)
        ids = [plan_id.encode("utf-8") for plan_id in columns.ids[:n]]
        blob = b"".join(ids)
        header = replace(self.header, version=INDEX_FORMAT_VERSION)
        _replace_file(
            Path(path),
            [
                json.dumps(header.to_json_obj()).encode("utf-8") + b"\n",
                np.array([n, len(blob)], _U64).tobytes(),
                columns.edge.tobytes(),
                columns.node.tobytes(),
                columns.runtime.tobytes(),
                np.cumsum(np.fromiter(map(len, ids), _U64, n), dtype=_U64).tobytes(),
                columns.label.tobytes(),
                blob,
            ],
        )

    @classmethod
    def load(cls, path: str | Path) -> "Index":
        data = Path(path).read_bytes()
        if not data:
            raise IndexFormatError(1, "empty index file")
        newline = data.find(b"\n")
        body = len(data) if newline < 0 else newline + 1
        header = _read_header(data[:body])
        index = cls(header)
        require_compatible(header, FingerprintConfig(approach=header.approach), _REFUSED_AT_LOAD)
        if header.version == INDEX_FORMAT_VERSION:
            columns = _read_v2(data, body)
        else:
            columns = _Columns.of(_read_v1(data, body, header.approach))
        index._ids = columns.ids
        index._frozen = columns
        index._row_of = None
        return index


def _replace_file(path: Path, parts: Iterable[bytes]) -> None:
    """Write parts to a temporary file beside path, fsync it, then rename it
    over path; on any failure the temporary file is removed, and an OSError
    names path rather than the temporary file."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as f:
            with contextlib.suppress(FileNotFoundError):
                os.fchmod(f.fileno(), stat.S_IMODE(os.stat(path).st_mode))
            for part in parts:
                f.write(part)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def _read_header(line: bytes) -> IndexHeader:
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IndexFormatError(1, f"not valid UTF-8 at byte {exc.start}") from exc
    try:
        header = IndexHeader.from_json_obj(json.loads(text))
    except (json.JSONDecodeError, KeyError, RecursionError, TypeError, ValueError) as exc:
        raise IndexFormatError(1, f"bad header: {exc}") from exc
    if header.version not in _READABLE_VERSIONS:
        raise IndexFormatError(
            1,
            f"unsupported index version {header.version} "
            f"(expected one of {', '.join(map(str, _READABLE_VERSIONS))})",
        )
    return header


def _block(data: bytes, pos: int, name: str, dtype: np.dtype, count: int) -> np.ndarray:
    size = dtype.itemsize * count
    if len(data) - pos < size:
        raise IndexFormatError(f"block {name!r}", f"truncated: {len(data) - pos} of {size} bytes")
    return np.frombuffer(data, dtype, count, pos)


def _first(mask: np.ndarray) -> int | None:
    """The 1-based number of the first record where mask is set."""
    rows = np.flatnonzero(mask)
    return int(rows[0]) + 1 if len(rows) else None


def _decodes(blob: bytes) -> bool:
    try:
        blob.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def _fold_multipliers(words: int) -> np.ndarray:
    """Distinct odd 64-bit multipliers, splitmix64 of 1..words."""
    z = np.arange(1, words + 1, dtype=_U64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31)) | np.uint64(1)


def _repeated_key(octets: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> bool:
    """Whether two ids of one byte length fold to the same 64-bit key.

    Every real duplicate gives a repeated key; a repeat of distinct ids only
    costs the caller its exact check. An id's key is the sum, mod 2**64, of
    its zero-padded little-endian 8-byte words, each times its own odd
    multiplier, so ids of up to 8 bytes never share one.
    """
    order = np.argsort(lengths, kind="stable")
    by_length = lengths[order]
    for rows in np.split(order, np.flatnonzero(by_length[1:] != by_length[:-1]) + 1):
        if len(rows) < 2:
            continue
        length = int(lengths[rows[0]])
        padded = np.zeros((len(rows), -(-length // 8) * 8), _U8)
        padded[:, :length] = sliding_window_view(octets, length)[starts[rows]]
        keys = np.sort(padded.view(_U64) @ _fold_multipliers(padded.shape[1] // 8))
        if (keys[1:] == keys[:-1]).any():
            return True
    return False


def _read_v2(data: bytes, pos: int) -> _Columns:
    """The columns of a v2 file whose blocks start at pos, every record checked."""
    n, blob_size = (int(c) for c in _block(data, pos, "counts", _U64, 2))
    pos += 2 * _U64.itemsize
    blocks = {}
    for name, dtype in (
        ("edge", _U64), ("node", _U64), ("runtime", _F64), ("offsets", _U64), ("label", _U8)
    ):
        blocks[name] = _block(data, pos, name, dtype, n)
        pos += blocks[name].nbytes
    blob = data[pos : pos + blob_size]
    if len(blob) < blob_size:
        raise IndexFormatError("block 'ids'", f"truncated: {len(blob)} of {blob_size} bytes")
    if len(data) > pos + blob_size:
        raise IndexFormatError(
            "block 'ids'", f"followed by {len(data) - pos - blob_size} trailing byte(s)"
        )

    runtime, label = blocks["runtime"], blocks["label"]
    bad = _first(~(np.isfinite(runtime) & (runtime >= 0)))
    if bad is not None:
        value = float(runtime[bad - 1])
        error = NonFiniteRuntime(value) if not math.isfinite(value) else NegativeRuntime(value)
        raise IndexFormatError(f"record {bad}", str(error))
    bad = _first(label != _classify_column(runtime))
    if bad is not None:
        value = float(runtime[bad - 1])
        raise IndexFormatError(
            f"record {bad}",
            f"label {label[bad - 1]} does not match runtime {value} "
            f"({classify_runtime(value).display})",
        )

    ends = blocks["offsets"]
    starts = np.zeros(n, _U64)
    starts[1:] = ends[:-1]
    bad = _first(ends <= starts)
    if bad is not None:
        raise IndexFormatError(
            f"record {bad}",
            f"plan_id offset {ends[bad - 1]} does not follow {starts[bad - 1]}",
        )
    last = int(ends[-1]) if n else 0
    if last != blob_size:
        raise IndexFormatError(
            "block 'offsets'", f"last offset {last} is not the id blob size {blob_size}"
        )
    ids = _IdColumn(blob, starts, ends)
    octets = np.frombuffer(blob, _U8)
    # Each id decodes on its own exactly when the whole blob decodes and no
    # id starts on a UTF-8 continuation byte (0b10xxxxxx).
    if not _decodes(blob) or (octets[starts] & 0xC0 == 0x80).any():
        for record, (start, end) in enumerate(zip(starts.tolist(), ends.tolist()), start=1):
            try:
                blob[start:end].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise IndexFormatError(
                    f"record {record}", f"plan_id is not valid UTF-8 at byte {exc.start}"
                ) from exc
    if _repeated_key(octets, starts, ends - starts):
        seen: set[str] = set()
        for record, plan_id in enumerate(ids, start=1):
            if plan_id in seen:
                raise IndexFormatError(f"record {record}", f"duplicate plan_id {plan_id!r}")
            seen.add(plan_id)
    return _Columns(ids, blocks["edge"], blocks["node"], runtime, label)


def _read_v1(data: bytes, pos: int, approach: str) -> list[IndexRecord]:
    """The records of a v1 file: one JSON object per line from pos on."""
    try:
        text = data[pos:].decode("utf-8")
    except UnicodeDecodeError as exc:
        at = pos + exc.start
        line_no = data.count(b"\n", 0, at) + 1
        raise IndexFormatError(line_no, f"not valid UTF-8 at byte {at}") from exc
    records: dict[str, IndexRecord] = {}
    for line_no, line in enumerate(text.splitlines(), start=2):
        if not line.strip():
            continue
        record = _parse_record_line(line, line_no, approach)
        if record.plan_id in records:
            raise IndexFormatError(line_no, f"duplicate plan_id {record.plan_id!r}")
        records[record.plan_id] = record
    return list(records.values())


def _parse_record_line(line: str, line_no: int, approach: str) -> IndexRecord:
    try:
        obj = json.loads(line)
        plan_id = obj["plan_id"]
        edge_hex = obj["edge_fp"]
        node_hex = obj["node_fp"]
        runtime = obj["runtime_seconds"]
        label = ComplexityLabel.parse(obj["label"])
    except (json.JSONDecodeError, KeyError, RecursionError, TypeError, ValueError) as exc:
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
