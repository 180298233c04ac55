"""SimHash combiner and Hamming distance over 64-bit words.

Every input hash votes +weight on bit positions where it has a 1 and
-weight where it has a 0; output bit i is 1 exactly when the tally for
position i is strictly positive (ties go to 0). Similar input multisets
therefore produce words at small Hamming distance. Weights are integers
(node depths, or 1 per gram), so the tally is exact int64 arithmetic.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .cityhash import HASH_ALGORITHM_ID, cityhash64
from .errors import EmptyInput

__all__ = [
    "HASH_ALGORITHM_ID",
    "hamming",
    "simhash",
    "string_hash64",
]

MASK64 = 0xFFFFFFFFFFFFFFFF

# Keeps every int64 tally exact for fewer than 2**31 inputs.
_WEIGHT_LIMIT = 1 << 31


def string_hash64(data: str | bytes) -> int:
    """Pinned 64-bit hash of a string (algorithm id "cityhash64")."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return cityhash64(data)


def simhash(hashes: Sequence[int], weights: Sequence[int] | None = None) -> int:
    """Combine 64-bit hashes, hashes[i] voting weights[i] (default 1), into one.

    Bit i of the result is 1 iff the weighted tally over position i is
    strictly positive. The result is invariant under permutation of the
    input and under uniform positive scaling of the weights. Hashes must be
    ints in [0, 2**64); weights must be ints in [1, 2**31), one per hash.
    """
    n = len(hashes)
    if n == 0:
        raise EmptyInput("simhash input")
    # np.fromiter would truncate a float and take a bool as 0 or 1.
    if not set(map(type, hashes)) <= {int}:
        raise ValueError("hash must be an int")
    try:
        arr = np.fromiter(hashes, dtype=np.uint64, count=n)
    except OverflowError as exc:
        raise ValueError(f"hash out of 64-bit range: {exc}") from exc
    # (n, 64) matrix; column i holds bit i of each hash.
    bits = np.unpackbits(
        arr.astype("<u8").view(np.uint8).reshape(n, 8), axis=1, bitorder="little"
    )
    if weights is None:
        ones = bits.sum(axis=0, dtype=np.int64)
        total = n
    else:
        if len(weights) != n:
            raise ValueError(f"{len(weights)} weights for {n} hashes")
        if not all(type(w) is int and 1 <= w < _WEIGHT_LIMIT for w in weights):
            raise ValueError("weight must be an int in [1, 2**31)")
        votes = np.fromiter(weights, dtype=np.int64, count=n)
        ones = votes @ bits.astype(np.int64)  # per-bit sum of weights with bit set
        total = int(votes.sum())
    # tally_i = ones_i - (total - ones_i) > 0  <=>  2*ones_i > total
    return int(np.packbits(2 * ones > total, bitorder="little").view("<u8")[0])


def hamming(a: int, b: int) -> int:
    """Number of differing bit positions between two 64-bit words."""
    return ((a ^ b) & MASK64).bit_count()
