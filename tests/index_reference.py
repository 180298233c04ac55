"""Reference v2 id checks: a Python string and a set entry per record.

The plan-id part of reading a version 2 index file as it was before
Index.load checked ids column-wise: every id decoded to a str, one set
of them for the duplicate check. Tests compare `Index.load` against it.
"""

from __future__ import annotations

from qdaghash.errors import IndexFormatError
from qdaghash.index import _U64, _block, _shown


def reference_ids(data: bytes) -> list[str]:
    """The plan ids of a v2 file whose header line is valid and whose
    runtime and label blocks pass, or the IndexFormatError of its id part."""
    pos = data.index(b"\n") + 1
    n, blob_size = (int(c) for c in _block(data, pos, "counts", _U64, 2))
    pos += 2 * _U64.itemsize + 3 * 8 * n
    ends = _block(data, pos, "offsets", _U64, n).tolist()
    pos += 8 * n + n
    blob = data[pos : pos + blob_size]
    if len(blob) < blob_size or len(data) > pos + blob_size:
        raise ValueError("the id blob is not the rest of the file")

    starts = [0, *ends[:-1]]
    for record, (start, end) in enumerate(zip(starts, ends), start=1):
        if end <= start:
            raise IndexFormatError(
                f"record {record}", f"plan_id offset {end} does not follow {start}"
            )
    last = ends[-1] if n else 0
    if last != blob_size:
        raise IndexFormatError(
            "block 'offsets'", f"last offset {last} is not the id blob size {blob_size}"
        )
    ids = []
    for record, (start, end) in enumerate(zip(starts, ends), start=1):
        try:
            ids.append(blob[start:end].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise IndexFormatError(
                f"record {record}", f"plan_id is not valid UTF-8 at byte {exc.start}"
            ) from exc
    seen: set[str] = set()
    for record, plan_id in enumerate(ids, start=1):
        if plan_id in seen:
            raise IndexFormatError(f"record {record}", f"duplicate plan_id {_shown(plan_id)}")
        seen.add(plan_id)
    return ids


def _mix(z: int) -> int:
    z ^= z >> 30
    z = z * 0xBF58476D1CE4E5B9 % 2**64
    z ^= z >> 27
    z = z * 0x94D049BB133111EB % 2**64
    return z ^ z >> 31


def reference_key(plan_id: bytes) -> int:
    """The duplicate-check key of plan_id, word by word as _id_keys documents it."""
    golden = 0x9E3779B97F4A7C15
    key = len(plan_id) * golden
    for k in range(-(-len(plan_id) // 8)):
        at = max(min(8 * k, len(plan_id) - 8), 0)
        key += _mix((int.from_bytes(plan_id[at : at + 8], "little") + k * golden) % 2**64)
    return key % 2**64
