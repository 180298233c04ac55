"""Operator-name registry mapping plan operators to 6-bit codes.

The table ships as a versioned data file so fingerprints stay stable
across releases. Codes 1..31 belong to registered operators; names not in
the table fall back deterministically to the 32..62 band; code 63 is
reserved; 0 is never a valid operator code (it doubles as the absent
sentinel in feature vectors).
"""

from __future__ import annotations

from importlib import resources

from .simhash import string_hash64

REGISTRY_VERSION = "ops1"

_FALLBACK_BASE = 32
_FALLBACK_BUCKETS = 31


class OperatorRegistry:
    """Immutable name -> code map with a deterministic unknown-name rule."""

    def __init__(self, codes: dict[str, int]):
        for name, code in codes.items():
            if not 1 <= code <= 31:
                raise ValueError(f"registered code for {name!r} outside 1..31: {code}")
        self._codes = dict(codes)

    def code(self, name: str) -> int:
        """6-bit code for an operator name; unknown names hash into 32..62."""
        known = self._codes.get(name)
        if known is not None:
            return known
        return _FALLBACK_BASE + string_hash64(name) % _FALLBACK_BUCKETS

    def known_names(self) -> list[str]:
        return sorted(self._codes)

    def __contains__(self, name: str) -> bool:
        return name in self._codes

    def __len__(self) -> int:
        return len(self._codes)


def _load_packaged_table() -> dict[str, int]:
    text = resources.files("qdaghash").joinpath("data/operators.tsv").read_text("utf-8")
    codes: dict[str, int] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, _, code = line.partition("\t")
        codes[name.strip()] = int(code)
    return codes


_DEFAULT: OperatorRegistry | None = None


def default_registry() -> OperatorRegistry:
    """The registry built from the packaged operators.tsv (cached)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = OperatorRegistry(_load_packaged_table())
    return _DEFAULT
