"""Fingerprint index: runtime labels, two-step matching, 1-NN prediction.

An index holds its records as parallel columns in insertion order: edge
and node signatures (uint64), runtime (float64) and the plan ids. A
record's label is not stored beside its runtime: classify_runtime and
_classify_column derive it from the runtime, through one bounds tuple.

Matching is a linear scan in two steps: first keep the k records closest
to the probe by edge-signature Hamming distance, then rank those k by
node-signature distance. The top-k cut orders records by (edge distance,
node distance, plan_id) and the ranking by (node distance, edge distance,
plan_id); both are total orders, so results are fully deterministic.
_two_step is the one implementation of both orders, for a block of probes
at once: Index.match is the block of one, and the leave-one-out eval scores
its folds in blocks. It popcounts the whole edge column for every probe,
keeps every record within a probe's k-th smallest edge distance (ties
included), reads the plan ids of only those candidates, and finds both
orders with numpy partitions over one int64 key per probe and candidate.

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

Save writes the label block from the runtimes, and load checks it against
them.

Index.load reads the blocks with np.frombuffer and checks every record
(see _read_v2), plan ids included, with no Python object per record and no
copy of a block: the id blob stays a view of the file bytes. The runtime,
label and offsets blocks are checked as whole columns, and beside the file
bytes a load holds at most 9 bytes per record at any time (the label
check's classification and mask, then the duplicate check's keys and the
mask of their sorted neighbours) plus the chunk-sized arrays of the id
walk. The ids are valid UTF-8 when the blob decodes, a chunk at a time,
and no id starts on a continuation byte. They are distinct when no two
share a 64-bit key mixed from their 8-byte words (_id_keys); only ids
whose key repeats are decoded for the exact check. The loaded ids are
decoded one at a time when read, so a match decodes only its candidates;
the first add turns them into a list. Loading a 100,000-record index of 4.2 MiB takes
9-13 ms and lifts peak RSS by 6.2-6.3 MiB over import; a 1M-record one
holds the file plus 10.0-10.1 MiB (2-core Xeon VM, BENCH_18.json).

Load refuses every other format version. Save writes a temporary file
beside the target, fsyncs it and renames it over the target, so a crash
leaves either the old file or the new one.

The index allows many concurrent readers with exclusive writers: mutation
and snapshot-taking synchronize on one lock, and scans run on snapshots,
so a read sees either the pre- or post-write state, never a partial one.
"""

from __future__ import annotations

import contextlib
import enum
import json
import os
import stat
import threading
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ConfigMismatch, EmptyIndex, IndexFormatError, InputError
from .edges import EDGE_LAYOUT_VERSION
from .features import FEATURE_SCHEMA_VERSION
from .fingerprint import (
    APPROACH_NGRAM,
    APPROACH_STRUCTURED,
    APPROACHES,
    Fingerprint128,
    FingerprintConfig,
)
from .ingest import check_plan_id, check_runtime
from .ngrams import NGramConfig
from .operators import REGISTRY_VERSION
from .simhash import HASH_ALGORITHM_ID

INDEX_FORMAT_VERSION = 2

# The Simple/Medium and Medium/Complex boundaries; a runtime on one is the
# heavier label.
LABEL_BOUNDS_SECONDS = (5.0, 30.0)


class ComplexityLabel(enum.IntEnum):
    """Runtime category; ordering follows expected cost."""

    SIMPLE = 0
    MEDIUM = 1
    COMPLEX = 2

    @property
    def display(self) -> str:
        return self.name.capitalize()


def classify_runtime(runtime_seconds: float) -> ComplexityLabel:
    """[0, 5) -> Simple, [5, 30) -> Medium, [30, inf) -> Complex."""
    return ComplexityLabel(bisect_right(LABEL_BOUNDS_SECONDS, check_runtime(runtime_seconds)))


def check_k(k: int) -> None:  # the edge step keeps at least one candidate
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def _classify_column(runtime: np.ndarray) -> np.ndarray:
    """classify_runtime of each finite, non-negative runtime, as label values."""
    return np.searchsorted(LABEL_BOUNDS_SECONDS, runtime, side="right")


@dataclass(frozen=True)
class IndexRecord:
    """One past execution: exactly what a row of an index file holds.

    The plan_id must pass check_plan_id, and the runtime check_runtime,
    whose float is what the record keeps; the label is derived from it.
    """

    plan_id: str
    fingerprint: Fingerprint128
    runtime_seconds: float

    def __post_init__(self) -> None:
        check_plan_id(self.plan_id)
        object.__setattr__(self, "runtime_seconds", check_runtime(self.runtime_seconds))

    @property
    def label(self) -> ComplexityLabel:
        return classify_runtime(self.runtime_seconds)

    @classmethod
    def from_runtime(
        cls, plan_id: str, fingerprint: Fingerprint128, runtime_seconds: float
    ) -> "IndexRecord":
        return cls(plan_id, fingerprint, runtime_seconds)


@dataclass(frozen=True)
class MatchResult:
    plan_id: str
    edge_distance: int
    node_distance: int
    label: ComplexityLabel
    runtime_seconds: float


@dataclass(frozen=True)
class IndexHeader:
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
            "version": INDEX_FORMAT_VERSION,
            "hash_algo": self.hash_algo,
            "approach": self.approach,
            "edge_layout_version": self.edge_layout_version,
        }
        key = "feature_schema_version" if self.approach == APPROACH_STRUCTURED else "ngram_config"
        obj[key] = self.node_config
        obj["operator_registry"] = self.operator_registry
        return obj

    @classmethod
    def from_json_obj(cls, obj: object) -> "IndexHeader":
        """Inverse of to_json_obj; a missing key raises KeyError and a value
        of the wrong JSON type raises TypeError, nothing is coerced. Any other
        format version, whatever the other keys, raises IndexFormatError."""
        if not isinstance(obj, dict):
            raise TypeError(f"header must be a JSON object, got {type(obj).__name__}")
        version = obj["version"]
        if isinstance(version, bool) or not isinstance(version, int):
            raise TypeError(f"'version' must be an integer, got {type(version).__name__}")
        if version != INDEX_FORMAT_VERSION:
            raise IndexFormatError(
                "line 1", f"unsupported index version {version} (expected {INDEX_FORMAT_VERSION})"
            )
        approach = _json_str(obj, "approach")
        key = "feature_schema_version" if approach == APPROACH_STRUCTURED else "ngram_config"
        return cls(
            hash_algo=_json_str(obj, "hash_algo"),
            approach=approach,
            node_config=_json_str(obj, key),
            edge_layout_version=_json_str(obj, "edge_layout_version"),
            operator_registry=_json_str(obj, "operator_registry"),
        )


def _json_str(obj: dict[str, object], key: str) -> str:
    value = obj[key]
    if not isinstance(value, str):
        raise TypeError(f"{key!r} must be a string, got {type(value).__name__}")
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
    header order (or only the given fields), naming the first that differs.
    """
    got = IndexHeader.for_config(config).to_json_obj()
    for key, expected in header.to_json_obj().items():
        if fields is not None and key not in fields:
            continue
        if got.get(key) != expected:
            raise ConfigMismatch(key, expected, got.get(key))


# -- columns and the ranking kernel --------------------------------------------

_U64 = np.dtype("<u8")
_F64 = np.dtype("<f8")
_U8 = np.dtype("u1")
# A record's row values: edge signature, node signature, runtime.
_ROW_DTYPES = (_U64, _U64, _F64)
# Larger than any Hamming distance between 64-bit words.
_EXCLUDED = 255
# Larger than any _two_step key.
_NOT_CANDIDATE = (1 << 63) - 1  # the largest int64


# Ids are checked and keyed a chunk of at most this many rows and id bytes
# at a time, which bounds the per-row temporaries of reading id bytes; the
# fixed-width blocks are checked as whole columns.
_CHUNK_ROWS = 1 << 13
_CHUNK_BYTES = 1 << 17


class _IdColumn(Sequence[str]):
    """The plan ids of a v2 file, each decoded from the id blob when read.

    Row i, for 0 <= i < n, is blob[ends[i - 1]:ends[i]], from 0 for row 0;
    blob is a view of the file bytes and ends its offsets block. _read_v2
    has checked that every row decodes and that no two are equal.
    """

    def __init__(self, blob: memoryview, ends: np.ndarray):
        self.blob = blob
        self.ends = ends

    def __len__(self) -> int:
        return len(self.ends)

    def __getitem__(self, row: int) -> str:  # type: ignore[override]
        row = range(len(self.ends))[row]
        start = self.ends[row - 1] if row else 0
        return str(self.blob[start : self.ends[row]], "utf-8")

    def __iter__(self) -> Iterator[str]:
        blob, start = self.blob, 0
        for end in self.ends.tolist():
            yield str(blob[start:end], "utf-8")
            start = end


class _Columns(NamedTuple):
    """A snapshot of an index's rows, in insertion order; after a load,
    until the first add, ids is an _IdColumn."""

    ids: Sequence[str]
    edge: np.ndarray
    node: np.ndarray
    runtime: np.ndarray

    @classmethod
    def of(cls, records: Sequence[IndexRecord]) -> "_Columns":
        return cls([r.plan_id for r in records], *_row_arrays([_row(r) for r in records]))


def _row(record: IndexRecord) -> tuple[int, int, float]:
    fp = record.fingerprint
    return fp.edge_sig, fp.node_sig, record.runtime_seconds


def _row_arrays(rows: Sequence[tuple[int, int, float]]) -> list[np.ndarray]:
    """The edge, node and runtime arrays of rows."""
    columns = list(zip(*rows)) or [()] * len(_ROW_DTYPES)
    return [np.array(values, dtype) for values, dtype in zip(columns, _ROW_DTYPES)]


def _two_step(
    columns: _Columns,
    probe_edge: Sequence[int] | np.ndarray,
    probe_node: Sequence[int] | np.ndarray,
    k: int,
    top: int,
    skip: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The two-step match of a block of probes against columns.

    Probe i's k rows first by (edge distance, node distance, plan_id), ranked
    by (node distance, edge distance, plan_id), are row i of the returned
    edge distance, node distance and row arrays, cut to the first top
    columns; an exact tie goes to the earlier row. k and top are capped at
    the row count, top also at k. Row skip[i], if given, is left out for
    probe i. Requires k, top >= 1 and at least one row besides skip.
    """
    edge_d = np.bitwise_count(columns.edge ^ np.asarray(probe_edge, np.uint64)[:, None])
    rows_in = edge_d.shape[1]
    if skip is not None:
        edge_d[np.arange(len(skip)), skip] = _EXCLUDED
        rows_in -= 1
    k = min(k, rows_in)
    top = min(top, k)
    # Every row within a probe's k-th smallest edge distance is its
    # candidate, so the exact order below decides ties at the cut. Only
    # the candidates' ids are read, in (plan_id, row) order.
    cut = np.partition(edge_d, k - 1, axis=1)[:, k - 1 : k]
    rows = np.flatnonzero((edge_d <= cut).any(axis=0))
    ids = [columns.ids[row] for row in rows.tolist()]
    rows = rows[sorted(range(len(rows)), key=ids.__getitem__)]
    edge_d = edge_d[:, rows]
    node_d = np.bitwise_count(columns.node[rows] ^ np.asarray(probe_node, np.uint64)[:, None])
    # Each order as one int64 key: two distances, then the place in id order.
    # Rows past the cut have larger first keys than the k within it.
    first = _keys(edge_d, node_d)
    outside = first > np.partition(first, k - 1, axis=1)[:, k - 1 : k]
    del first
    ranked = _keys(node_d, edge_d)
    ranked[outside] = _NOT_CANDIDATE
    ranked.partition(top - 1, axis=1)
    distances, place = np.divmod(np.sort(ranked[:, :top], axis=1), len(rows))
    return distances & 0x7F, distances >> 7, rows[place]


def _keys(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """(major * 128 + minor) * m + j at column j of m, as int64."""
    return (major.astype(np.int64) << 7 | minor) * major.shape[1] + np.arange(major.shape[1])


class Index:
    """In-memory store of IndexRecords behind a config-stamped header."""

    def __init__(self, header: IndexHeader):
        if header.approach not in APPROACHES:
            raise ConfigMismatch("approach", header.approach, "|".join(APPROACHES))
        self.header = header
        self._lock = threading.Lock()
        # An _IdColumn after a load, a list from the first add on.
        self._ids: Sequence[str] = []
        # plan_id -> row; None until the first add builds it.
        self._row_of: dict[str, int] | None = None
        self._frozen = _Columns.of(())
        # Rows added or replaced since _frozen was built, folded in by _columns.
        self._pending: dict[int, tuple[int, int, float]] = {}

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
                self._frozen = _Columns(list(self._ids), *arrays)
                self._pending = {}
            return self._frozen

    def records(self) -> list[IndexRecord]:
        columns = self._columns()
        approach = self.header.approach
        return [
            IndexRecord(plan_id, Fingerprint128(edge, node, approach), runtime)
            for plan_id, edge, node, runtime in zip(
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
        check_k(k)
        if top_n is not None and top_n < 1:
            raise ValueError(f"top_n must be >= 1, got {top_n}")
        columns = self._columns()
        if not len(columns.edge):
            raise EmptyIndex()
        edge_d, node_d, rows = _two_step(columns, [probe.edge_sig], [probe.node_sig], k, top_n or k)
        runtimes = columns.runtime[rows[0]].tolist()
        return [
            MatchResult(columns.ids[row], edge, node, classify_runtime(runtime), runtime)
            for edge, node, row, runtime in zip(
                edge_d[0].tolist(), node_d[0].tolist(), rows[0].tolist(), runtimes
            )
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
        ids = [plan_id.encode("utf-8") for plan_id in columns.ids]
        blob = b"".join(ids)
        _replace_file(
            Path(path),
            [
                json.dumps(self.header.to_json_obj()).encode("utf-8") + b"\n",
                np.array([n, len(blob)], _U64).tobytes(),
                columns.edge.tobytes(),
                columns.node.tobytes(),
                columns.runtime.tobytes(),
                np.cumsum(np.fromiter(map(len, ids), _U64, n), dtype=_U64).tobytes(),
                _classify_column(columns.runtime).astype(_U8).tobytes(),
                blob,
            ],
        )

    @classmethod
    def load(cls, path: str | Path) -> "Index":
        data = Path(path).read_bytes()
        if not data:
            raise IndexFormatError("line 1", "empty index file")
        newline = data.find(b"\n")
        body = len(data) if newline < 0 else newline + 1
        header = _read_header(data[:body])
        index = cls(header)
        require_compatible(header, FingerprintConfig(approach=header.approach), _REFUSED_AT_LOAD)
        columns = _read_v2(data, body)
        index._ids = columns.ids
        index._frozen = columns
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
        raise IndexFormatError("line 1", f"not valid UTF-8 at byte {exc.start}") from exc
    try:
        header = IndexHeader.from_json_obj(json.loads(text))
    except (json.JSONDecodeError, KeyError, RecursionError, TypeError, ValueError) as exc:
        raise IndexFormatError("line 1", f"bad header: {exc}") from exc
    return header


def _block(data: bytes, pos: int, name: str, dtype: np.dtype, count: int) -> np.ndarray:
    size = dtype.itemsize * count
    if len(data) - pos < size:
        raise IndexFormatError(f"block {name!r}", f"truncated: {len(data) - pos} of {size} bytes")
    return np.frombuffer(data, dtype, count, pos)


def _first_false(ok: np.ndarray) -> int | None:
    """The 1-based number of the first record whose entry in ok is False."""
    return None if ok.all() else int(ok.argmin()) + 1


def _chunks(ends: np.ndarray) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Rows lo..hi-1 of an id blob whose rows end at ends, with their start
    and end offsets as int64, in chunks of at most _CHUNK_ROWS rows and
    _CHUNK_BYTES bytes, or of one longer id."""
    lo = 0
    while lo < len(ends):
        first = int(ends[lo - 1]) if lo else 0
        limit = np.uint64(first + _CHUNK_BYTES)
        hi = min(lo + _CHUNK_ROWS, max(lo + 1, int(np.searchsorted(ends, limit, "right"))))
        end = ends[lo:hi].astype(np.int64)
        yield lo, hi, np.concatenate(([first], end[:-1])), end
        lo = hi


def _check_utf8(ids: _IdColumn) -> None:
    """Raise the IndexFormatError of the first plan id that does not decode
    on its own as UTF-8. The blob is decoded a chunk at a time, so an id
    longer than a chunk is decoded whole."""
    octets = np.frombuffer(ids.blob, _U8)
    # The ids of a chunk each decode exactly when the chunk's bytes decode
    # and none of them starts on a continuation byte (0b10xxxxxx).
    for lo, hi, start, end in _chunks(ids.ends):
        with contextlib.suppress(UnicodeDecodeError):
            str(ids.blob[start[0] : end[-1]], "utf-8")
            if not (octets[start] & 0xC0 == 0x80).any():
                continue
        for row in range(lo, hi):
            try:
                ids[row]
            except UnicodeDecodeError as exc:
                raise IndexFormatError(
                    f"record {row + 1}", f"plan_id is not valid UTF-8 at byte {exc.start}"
                ) from exc


# splitmix64's increment and finalizer multipliers.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer of each word, in place: a bijection of 64-bit
    words in which every input bit moves about half the output bits."""
    z ^= z >> np.uint64(30)
    z *= _MIX[0]
    z ^= z >> np.uint64(27)
    z *= _MIX[1]
    z ^= z >> np.uint64(31)
    return z


def _id_keys(data: bytes, pos: int, ends: np.ndarray) -> np.ndarray:
    """A 64-bit key of each plan id of the id blob at data[pos:], pos >= 8.

    Equal ids get equal keys; distinct ids share one with a chance of about
    2**-64. An id of L bytes has words 0..c-1, c = ceil(L / 8): word k is the
    8 bytes from byte 8k, but the last word is the 8 bytes that end the id,
    so no word reaches past it, and an id under 8 bytes is one word, zero
    above its bytes. Its key is L * _GOLDEN plus, over its words, the sum of
    _mix(word k + k * _GOLDEN), mod 2**64. So distinct ids of one length up
    to 8 bytes never share a key.

    Every word is read through one unaligned uint64 view of data. Keys are
    computed for chunks of at most _CHUNK_ROWS rows and _CHUNK_BYTES id
    bytes, or one longer id, whose middle words are summed _CHUNK_BYTES / 8
    at a time: a call holds the keys and chunk-sized arrays, and takes time
    linear in the blob size and row count.
    """
    n = len(ends)
    keys = np.empty(n, _U64)
    if not n:
        return keys
    # words[x] is the 8 bytes of data that end at byte x of the blob.
    words = np.ndarray((int(ends[-1]) + 1,), _U64, data, pos - 8, (1,))
    for lo, hi, start, end in _chunks(ends):
        length = end - start
        count = (length + 7) >> 3
        key = keys[lo:hi]
        np.multiply(length.astype(_U64), _GOLDEN, out=key)
        first = words[np.minimum(start + 8, end)]
        first >>= ((8 - np.minimum(length, 8)) << 3).astype(_U64)
        key += _mix(first)
        last = words[end]
        last += (count - 1).astype(_U64) * _GOLDEN
        key += np.where(count > 1, _mix(last), np.uint64(0))
        middle = count - 2
        step = _CHUNK_BYTES // 8
        for k0 in range(1, int(middle.max()) + 1, step):
            rows = np.flatnonzero(middle >= k0)
            taken = np.minimum(middle[rows] - (k0 - 1), step)
            stop = np.cumsum(taken)
            k = np.arange(k0, k0 + int(stop[-1])) - np.repeat(stop - taken, taken)
            word = words[np.repeat(start[rows] + 8, taken) + 8 * k]
            word += k.astype(_U64) * _GOLDEN
            sums = np.cumsum(_mix(word))[stop - 1]
            sums[1:] -= sums[:-1]
            key[rows] += sums
    return keys


def _check_distinct(ids: _IdColumn, data: bytes, pos: int) -> None:
    """Raise the IndexFormatError of the first plan id equal to an earlier
    one; ids is the id blob at data[pos:], every id valid UTF-8."""
    keys = _id_keys(data, pos, ids.ends)
    keys.sort()
    repeated = keys[1:][keys[1:] == keys[:-1]]
    del keys
    if len(repeated):
        _check_rows_distinct(ids, np.flatnonzero(np.isin(_id_keys(data, pos, ids.ends), repeated)))


def _check_rows_distinct(ids: Sequence[str], rows: np.ndarray) -> None:
    """The exact check: raise the IndexFormatError of the first of rows,
    ascending, whose id an earlier one of rows has."""
    seen: set[str] = set()
    for row in rows.tolist():
        plan_id = ids[row]
        if plan_id in seen:
            raise IndexFormatError(f"record {row + 1}", f"duplicate plan_id {_shown(plan_id)}")
        seen.add(plan_id)


def _shown(plan_id: str) -> str:
    """repr(plan_id), cut to its first 200 characters when longer."""
    if len(plan_id) <= 200:
        return repr(plan_id)
    return f"{plan_id[:200]!r}... ({len(plan_id)} characters)"


def _read_v2(data: bytes, pos: int) -> _Columns:
    """The columns of a v2 file whose blocks start at pos, every record
    checked. The id blob stays in data, as a memoryview."""
    n, blob_size = (int(c) for c in _block(data, pos, "counts", _U64, 2))
    pos += 2 * _U64.itemsize
    blocks = {}
    for name, dtype in (
        ("edge", _U64), ("node", _U64), ("runtime", _F64), ("offsets", _U64), ("label", _U8)
    ):
        blocks[name] = _block(data, pos, name, dtype, n)
        pos += blocks[name].nbytes
    _block(data, pos, "ids", _U8, blob_size)
    if len(data) > pos + blob_size:
        raise IndexFormatError(
            "block 'ids'", f"followed by {len(data) - pos - blob_size} trailing byte(s)"
        )

    runtime, label, ends = blocks["runtime"], blocks["label"], blocks["offsets"]
    # The mask is check_runtime over the column; check_runtime itself words
    # the first bad record's error.
    bad = _first_false(np.isfinite(runtime) & (runtime >= 0))
    if bad is not None:
        try:
            check_runtime(runtime[bad - 1])
        except InputError as exc:
            raise IndexFormatError(f"record {bad}", str(exc)) from exc
    bad = _first_false(label == _classify_column(runtime))
    if bad is not None:
        value = float(runtime[bad - 1])
        raise IndexFormatError(
            f"record {bad}",
            f"label {label[bad - 1]} does not match runtime {value} "
            f"({classify_runtime(value).display})",
        )
    bad = _first_false(np.concatenate((ends[:1] > 0, ends[1:] > ends[:-1])))
    if bad is not None:
        start = int(ends[bad - 2]) if bad > 1 else 0
        raise IndexFormatError(
            f"record {bad}", f"plan_id offset {ends[bad - 1]} does not follow {start}"
        )
    last = int(ends[-1]) if n else 0
    if last != blob_size:
        raise IndexFormatError(
            "block 'offsets'", f"last offset {last} is not the id blob size {blob_size}"
        )
    ids = _IdColumn(memoryview(data)[pos:], ends)
    _check_utf8(ids)
    _check_distinct(ids, data, pos)
    return _Columns(ids, blocks["edge"], blocks["node"], runtime)
