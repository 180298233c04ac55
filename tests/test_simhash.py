"""SimHash combiner vs an independent per-bit counting oracle, plus the
kernel invariants: permutation, scale, and concatenation behavior, input
validation, and the metric laws of Hamming distance."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import weighted_hash_lists
from qdaghash.errors import EmptyInput
from qdaghash.simhash import hamming, simhash


def simhash_oracle(hashes: list[int], weights: list[int] | None = None) -> int:
    """Brute force: materialize the 64-column tally table, then take signs."""
    if weights is None:
        weights = [1] * len(hashes)
    word = 0
    for i in range(64):
        tally = 0
        for h, w in zip(hashes, weights):
            tally += w if (h >> i) & 1 else -w
        if tally > 0:
            word |= 1 << i
    return word


def hamming_oracle(a: int, b: int) -> int:
    return sum(((a >> i) & 1) != ((b >> i) & 1) for i in range(64))


def random_items(rng: random.Random, n: int) -> tuple[list[int], list[int]]:
    hashes = [rng.getrandbits(64) for _ in range(n)]
    return hashes, [rng.randint(1, 50) for _ in range(n)]


# -- simhash ------------------------------------------------------------------

def test_single_input_passes_through():
    h = 0xDEADBEEF12345678
    assert simhash([h]) == h
    assert simhash([h], [1]) == h
    assert simhash([h], [7]) == h


def test_complementary_equal_weights_tie_to_zero():
    h = 0x0F0F0F0F0F0F0F0F
    assert simhash([h, h ^ 0xFFFFFFFFFFFFFFFF], [2, 2]) == 0
    assert simhash([h, h ^ 0xFFFFFFFFFFFFFFFF]) == 0


def test_empty_input_rejected():
    with pytest.raises(EmptyInput):
        simhash([])
    with pytest.raises(EmptyInput):
        simhash([], [])


def test_matches_oracle_on_random_inputs():
    rng = random.Random(42)
    for trial in range(300):
        hashes, weights = random_items(rng, rng.randint(1, 32))
        if trial % 2:
            assert simhash(hashes, weights) == simhash_oracle(hashes, weights), f"trial {trial}"
        else:
            assert simhash(hashes) == simhash_oracle(hashes), f"trial {trial}"


def test_uint64_array_equals_int_list():
    rng = random.Random(44)
    for _ in range(100):
        hashes, weights = random_items(rng, rng.randint(1, 40))
        array = np.array(hashes, np.uint64)
        assert simhash(array) == simhash(hashes)
        assert simhash(array, weights) == simhash(hashes, weights)


def test_array_of_other_dtype_or_shape_rejected():
    for bad in (np.array([1, 2], np.int64), np.array([1.0]), np.zeros((2, 2), np.uint64)):
        with pytest.raises(ValueError, match="1-D uint64"):
            simhash(bad)
    with pytest.raises(EmptyInput):
        simhash(np.array([], np.uint64))


def test_uniform_path_equals_general_combiner():
    rng = random.Random(43)
    for _ in range(100):
        hashes = [rng.getrandbits(64) for _ in range(rng.randint(1, 40))]
        assert simhash(hashes) == simhash(hashes, [1] * len(hashes))


@settings(max_examples=200)
@given(weighted_hash_lists(), st.randoms(use_true_random=False))
def test_permutation_invariance(items, rng):
    hashes, weights = items
    order = list(range(len(hashes)))
    rng.shuffle(order)
    shuffled = [hashes[i] for i in order], [weights[i] for i in order]
    assert simhash(*shuffled) == simhash(hashes, weights)
    assert simhash(shuffled[0]) == simhash(hashes)


@settings(max_examples=100)
@given(weighted_hash_lists(), st.integers(min_value=1, max_value=1000))
def test_scale_invariance(items, scale):
    hashes, weights = items
    assert simhash(hashes, [w * scale for w in weights]) == simhash(hashes, weights)


@settings(max_examples=100)
@given(weighted_hash_lists())
def test_concatenation_with_itself_is_identity(items):
    hashes, weights = items
    assert simhash(hashes + hashes, weights + weights) == simhash(hashes, weights)
    assert simhash(hashes + hashes) == simhash(hashes)


def test_weight_validation():
    for bad in (0, -2, 1.5, True, 2**31):
        with pytest.raises(ValueError, match="weight must be"):
            simhash([1, 2], [1, bad])
    with pytest.raises(ValueError, match="2 weights for 3 hashes"):
        simhash([1, 2, 3], [1, 1])
    for bad_hash in (2**64, -1):
        with pytest.raises(ValueError, match="64-bit range"):
            simhash([1, bad_hash])
    for bad_hashes in ([1.5], [True, 3], [2.9, 7], [3, "4"]):
        with pytest.raises(ValueError, match="hash must be an int"):
            simhash(bad_hashes)
        with pytest.raises(ValueError, match="hash must be an int"):
            simhash(bad_hashes, [1] * len(bad_hashes))
    assert simhash([1, 2], [1, 2**31 - 1]) == 2


# -- hamming ------------------------------------------------------------------

def test_hamming_edges():
    assert hamming(0x123456789ABCDEF0, 0x123456789ABCDEF0) == 0
    assert hamming(0, 0xFFFFFFFFFFFFFFFF) == 64


def test_hamming_matches_bit_loop_oracle():
    rng = random.Random(7)
    for _ in range(500):
        a, b = rng.getrandbits(64), rng.getrandbits(64)
        assert hamming(a, b) == hamming_oracle(a, b)


@settings(max_examples=200)
@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_hamming_is_a_metric(a, b, c):
    assert hamming(a, b) == hamming(b, a)
    assert (hamming(a, b) == 0) == (a == b)
    assert hamming(a, c) <= hamming(a, b) + hamming(b, c)
