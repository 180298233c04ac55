"""Operator names mapped to 6-bit codes.

Codes come only from the packaged, versioned ``data/operators.tsv``, so
fingerprints stay stable across releases. Codes 1..31 belong to listed
operators; names not in the table fall back deterministically to the
32..62 band; code 63 is reserved; 0 is never a valid operator code (it
doubles as the absent sentinel in feature vectors).
"""

from __future__ import annotations

from functools import cache
from importlib import resources

from .simhash import string_hash64

REGISTRY_VERSION = "ops1"

_FALLBACK_BASE = 32
_FALLBACK_BUCKETS = 31


def operator_code(name: str) -> int:
    """6-bit code for an operator name; unknown names hash into 32..62."""
    known = _packaged_codes().get(name)
    if known is not None:
        return known
    return _FALLBACK_BASE + string_hash64(name) % _FALLBACK_BUCKETS


@cache
def _packaged_codes() -> dict[str, int]:
    """name -> code from operators.tsv, read once per process."""
    text = resources.files("qdaghash").joinpath("data/operators.tsv").read_text("utf-8")
    codes: dict[str, int] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, _, code = line.partition("\t")
        codes[name.strip()] = int(code)
        if not 1 <= int(code) <= 31:
            raise ValueError(f"registered code for {name.strip()!r} outside 1..31: {code}")
    return codes
