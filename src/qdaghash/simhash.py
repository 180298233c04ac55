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

from .cityhash import HASH_ALGORITHM_ID, cityhash64, cityhash64_spans

__all__ = [
    "HASH_ALGORITHM_ID",
    "hamming",
    "simhash_runs",
    "string_hash64",
    "string_hashes64",
]

MASK64 = 0xFFFFFFFFFFFFFFFF


def string_hash64(data: str | bytes) -> int:
    """Pinned 64-bit hash of a string (algorithm id "cityhash64")."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return cityhash64(data)


def string_hashes64(texts: Sequence[str]) -> np.ndarray:
    """string_hash64 of each text, as uint64, in one cityhash64_spans pass."""
    encoded = [text.encode("utf-8") for text in texts]
    lengths = np.fromiter(map(len, encoded), np.int64, len(encoded))
    return cityhash64_spans(b"".join(encoded), np.cumsum(lengths) - lengths, lengths)


def simhash_runs(
    hashes: np.ndarray, sizes: Sequence[int], weights: np.ndarray | None = None
) -> list[int]:
    """One SimHash word per run of consecutive hashes, run j being the next
    sizes[j], hashes[i] voting weights[i] (default 1). A run's word is
    invariant under permutation of the run and under uniform positive
    scaling of its weights.

    Unchecked: hashes is a 1-D uint64 array, every size is at least 1, and
    weights, if given, is an int64 array of values in [1, 2**31), which
    keeps every int64 tally exact for fewer than 2**31 inputs.
    """
    # (n, 64) matrix; column i holds bit i of each hash.
    bits = np.unpackbits(
        hashes.astype("<u8").view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
    )
    lengths = np.asarray(sizes, np.int64)
    starts = np.cumsum(lengths) - lengths
    ones = np.empty((len(lengths), 64), np.int64)  # per run and bit, the votes for a 1
    for run, (start, end) in enumerate(zip(starts.tolist(), (starts + lengths).tolist())):
        if weights is None:
            ones[run] = bits[start:end].sum(axis=0, dtype=np.int64)
        else:
            ones[run] = weights[start:end] @ bits[start:end].astype(np.int64)
    totals = lengths if weights is None else np.add.reduceat(weights, starts)
    # tally_i = ones_i - (total - ones_i) > 0  <=>  2*ones_i > total
    signs = np.packbits(2 * ones > totals[:, None], axis=1, bitorder="little")
    return signs.view("<u8").ravel().tolist()


def hamming(a: int, b: int) -> int:
    """Number of differing bit positions between two 64-bit words."""
    return ((a ^ b) & MASK64).bit_count()
