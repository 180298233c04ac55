"""CityHash64 (v1.1): a scalar reference and an array kernel for short keys.

This is the pinned string hash behind every fingerprint. Output must stay
bit-for-bit identical across platforms and releases; any change would
silently invalidate every persisted index, so the implementation is frozen
and guarded by golden test vectors. Algorithm identifier: "cityhash64".

cityhash64 hashes one byte string with Python ints; it is the reference.
cityhash64_spans hashes many slices of one buffer at once with uint64
numpy arithmetic, which wraps exactly as the reference's "& _M64" does.
Slices of up to 64 bytes, each length class under its own mask, never
leave the arrays; longer ones go through cityhash64.
"""

from __future__ import annotations

import numpy as np

HASH_ALGORITHM_ID = "cityhash64"

_M64 = 0xFFFFFFFFFFFFFFFF

# Primes between 2^63 and 2^64.
_K0 = 0xC3A5C85C97CB3127
_K1 = 0xB492B66FBE98F273
_K2 = 0x9AE16A3B2F90404F

_KMUL = 0x9DDFEA08EB382D69


def _f64(b: bytes, i: int = 0) -> int:
    return int.from_bytes(b[i:i + 8], "little")


def _f32(b: bytes, i: int = 0) -> int:
    return int.from_bytes(b[i:i + 4], "little")


def _rot(v: int, s: int) -> int:
    # s is never 0 at any call site
    return ((v >> s) | (v << (64 - s))) & _M64


def _bswap(v: int) -> int:
    return int.from_bytes(v.to_bytes(8, "little"), "big")


def _shift_mix(v: int) -> int:
    return (v ^ (v >> 47)) & _M64


def _hash16(u: int, v: int, mul: int) -> int:
    a = ((u ^ v) * mul) & _M64
    a ^= a >> 47
    b = ((v ^ a) * mul) & _M64
    b ^= b >> 47
    return (b * mul) & _M64


def _hash16_mul(u: int, v: int) -> int:
    return _hash16(u, v, _KMUL)


def _len_0_to_16(b: bytes) -> int:
    n = len(b)
    if n >= 8:
        mul = (_K2 + n * 2) & _M64
        a = (_f64(b) + _K2) & _M64
        c = (_rot(_f64(b, n - 8), 37) * mul + a) & _M64
        d = ((_rot(a, 25) + _f64(b, n - 8)) * mul) & _M64
        return _hash16(c, d, mul)
    if n >= 4:
        mul = (_K2 + n * 2) & _M64
        return _hash16(n + (_f32(b) << 3), _f32(b, n - 4), mul)
    if n > 0:
        y = b[0] + (b[n >> 1] << 8)
        z = n + (b[n - 1] << 2)
        return (_shift_mix((y * _K2 ^ z * _K0) & _M64) * _K2) & _M64
    return _K2


def _len_17_to_32(b: bytes) -> int:
    n = len(b)
    mul = (_K2 + n * 2) & _M64
    a = (_f64(b) * _K1) & _M64
    c = (_f64(b, n - 8) * mul) & _M64
    d = (_f64(b, n - 16) * _K2) & _M64
    return _hash16(
        (_rot((a + _f64(b, 8)) & _M64, 43) + _rot(c, 30) + d) & _M64,
        (a + _rot((_f64(b, 8) + _K2) & _M64, 18) + c) & _M64,
        mul,
    )


def _len_33_to_64(b: bytes) -> int:
    n = len(b)
    mul = (_K2 + n * 2) & _M64
    a = (_f64(b) * _K2) & _M64
    bb = _f64(b, 8)
    c = _f64(b, n - 24)
    d = _f64(b, n - 32)
    e = (_f64(b, 16) * _K2) & _M64
    f = (_f64(b, 24) * 9) & _M64
    g = _f64(b, n - 8)
    h = (_f64(b, n - 16) * mul) & _M64

    u = (_rot((a + g) & _M64, 43) + (_rot(bb, 30) + c) * 9) & _M64
    v = (((a + g) ^ d) + f + 1) & _M64
    w = (_bswap(((u + v) * mul) & _M64) + h) & _M64
    x = (_rot((e + f) & _M64, 42) + c) & _M64
    y = ((_bswap(((v + w) * mul) & _M64) + g) * mul) & _M64
    z = (e + f + c) & _M64
    a = (_bswap(((x + z) * mul + y) & _M64) + bb) & _M64
    bb = (_shift_mix(((z + a) * mul + d + h) & _M64) * mul) & _M64
    return (bb + x) & _M64


def _weak32(b: bytes, i: int, a: int, bm: int) -> tuple[int, int]:
    w = _f64(b, i)
    x = _f64(b, i + 8)
    y = _f64(b, i + 16)
    z = _f64(b, i + 24)
    a = (a + w) & _M64
    bm = _rot((bm + a + z) & _M64, 21)
    c = a
    a = (a + x + y) & _M64
    bm = (bm + _rot(a, 44)) & _M64
    return (a + z) & _M64, (bm + c) & _M64


def cityhash64(data: bytes) -> int:
    """Hash a byte string to an unsigned 64-bit integer."""
    n = len(data)
    if n <= 16:
        return _len_0_to_16(data)
    if n <= 32:
        return _len_17_to_32(data)
    if n <= 64:
        return _len_33_to_64(data)

    # For longer input, hash the tail first, then walk 64-byte chunks
    # carrying 56 bytes of state (v, w, x, y, z).
    x = _f64(data, n - 40)
    y = (_f64(data, n - 16) + _f64(data, n - 56)) & _M64
    z = _hash16_mul((_f64(data, n - 48) + n) & _M64, _f64(data, n - 24))
    v0, v1 = _weak32(data, n - 64, n, z)
    w0, w1 = _weak32(data, n - 32, (y + _K1) & _M64, x)
    x = (x * _K1 + _f64(data)) & _M64

    end = (n - 1) & ~63
    for pos in range(0, end, 64):
        x = (_rot((x + y + v0 + _f64(data, pos + 8)) & _M64, 37) * _K1) & _M64
        y = (_rot((y + v1 + _f64(data, pos + 48)) & _M64, 42) * _K1) & _M64
        x ^= w1
        y = (y + v0 + _f64(data, pos + 40)) & _M64
        z = (_rot((z + w0) & _M64, 33) * _K1) & _M64
        v0, v1 = _weak32(data, pos, (v1 * _K1) & _M64, (x + w0) & _M64)
        w0, w1 = _weak32(data, pos + 32, (z + w1) & _M64, (y + _f64(data, pos + 16)) & _M64)
        z, x = x, z

    return _hash16_mul(
        (_hash16_mul(v0, w0) + _shift_mix(y) * _K1 + z) & _M64,
        (_hash16_mul(v1, w1) + x) & _M64,
    )


# -- the array kernel -----------------------------------------------------------
#
# Each _spans_* function is the scalar function of its length class over
# arrays: words[p] is the 8 bytes from offset p as a little-endian uint64,
# s and end hold the span bounds (int64, for indexing) and n the lengths
# (uint64, for arithmetic).

_LOW8 = np.uint64(0xFF)
_LOW32 = np.uint64(0xFFFFFFFF)


def _rot_a(v: np.ndarray, s: int) -> np.ndarray:
    return (v >> s) | (v << (64 - s))


def _shift_mix_a(v: np.ndarray) -> np.ndarray:
    return v ^ (v >> 47)


def _hash16_a(u: np.ndarray, v: np.ndarray, mul: np.ndarray) -> np.ndarray:
    a = _shift_mix_a((u ^ v) * mul)
    b = _shift_mix_a((v ^ a) * mul)
    return b * mul


def _spans_0_to_3(words: np.ndarray, s: np.ndarray, end: np.ndarray, n: np.ndarray) -> np.ndarray:
    y = (words[s] & _LOW8) + ((words[s + (n >> 1).astype(np.int64)] & _LOW8) << 8)
    z = n + ((words[end - 1] & _LOW8) << 2)
    return np.where(n == 0, np.uint64(_K2), _shift_mix_a(y * _K2 ^ z * _K0) * _K2)


def _spans_4_to_7(words: np.ndarray, s: np.ndarray, end: np.ndarray, n: np.ndarray) -> np.ndarray:
    return _hash16_a(n + ((words[s] & _LOW32) << 3), words[end - 4] & _LOW32, _K2 + n * 2)


def _spans_8_to_16(words: np.ndarray, s: np.ndarray, end: np.ndarray, n: np.ndarray) -> np.ndarray:
    mul = _K2 + n * 2
    a = words[s] + _K2
    tail = words[end - 8]
    c = _rot_a(tail, 37) * mul + a
    d = (_rot_a(a, 25) + tail) * mul
    return _hash16_a(c, d, mul)


def _spans_17_to_32(words: np.ndarray, s: np.ndarray, end: np.ndarray, n: np.ndarray) -> np.ndarray:
    mul = _K2 + n * 2
    a = words[s] * _K1
    b = words[s + 8]
    c = words[end - 8] * mul
    d = words[end - 16] * _K2
    return _hash16_a(_rot_a(a + b, 43) + _rot_a(c, 30) + d, a + _rot_a(b + _K2, 18) + c, mul)


def _spans_33_to_64(words: np.ndarray, s: np.ndarray, end: np.ndarray, n: np.ndarray) -> np.ndarray:
    mul = _K2 + n * 2
    a = words[s] * _K2
    b = words[s + 8]
    c = words[end - 24]
    d = words[end - 32]
    e = words[s + 16] * _K2
    f = words[s + 24] * 9
    g = words[end - 8]
    h = words[end - 16] * mul

    u = _rot_a(a + g, 43) + (_rot_a(b, 30) + c) * 9
    v = ((a + g) ^ d) + f + 1
    w = ((u + v) * mul).byteswap() + h
    x = _rot_a(e + f, 42) + c
    y = (((v + w) * mul).byteswap() + g) * mul
    z = e + f + c
    a = ((x + z) * mul + y).byteswap() + b
    b = _shift_mix_a((z + a) * mul + d + h) * mul
    return b + x


# The length classes hashed in arrays, by their longest span.
_SPAN_KERNELS = ((3, _spans_0_to_3), (7, _spans_4_to_7), (16, _spans_8_to_16),
                 (32, _spans_17_to_32), (64, _spans_33_to_64))


def cityhash64_spans(buf: bytes, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """cityhash64(buf[s:s + l]) for each s, l of starts and lengths, as uint64.

    Every span must lie inside buf.
    """
    starts = np.asarray(starts, np.int64)
    lengths = np.asarray(lengths, np.int64)
    # Eight zero bytes of padding, so a window can start at any offset up to len(buf).
    padded = np.concatenate([np.frombuffer(buf, np.uint8), np.zeros(8, np.uint8)])
    words = np.lib.stride_tricks.sliding_window_view(padded, 8).copy().view("<u8").ravel()
    classes = np.searchsorted([bound for bound, _ in _SPAN_KERNELS], lengths)
    out = np.empty(len(starts), np.uint64)
    for c, (_, kernel) in enumerate(_SPAN_KERNELS):
        rows = np.flatnonzero(classes == c)
        if len(rows):
            s, n = starts[rows], lengths[rows]
            out[rows] = kernel(words, s, s + n, n.astype(np.uint64))
    for row in np.flatnonzero(classes == len(_SPAN_KERNELS)).tolist():
        start = int(starts[row])
        out[row] = cityhash64(buf[start:start + int(lengths[row])])
    return out
