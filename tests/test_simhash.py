"""SimHash kernel vs an independent per-bit counting oracle, plus the
kernel invariants: permutation, scale, and concatenation behavior, and the
metric laws of Hamming distance."""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import weighted_hash_lists
from qdaghash.simhash import hamming, simhash_runs


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


def tally(runs: list[tuple[list[int], list[int] | None]]) -> list[int]:
    """simhash_runs over several (hashes, weights) runs in one call. A run
    whose weights are None votes 1 per hash; a call in which every run's are
    passes no weights at all."""
    hashes = np.array([h for run, _ in runs for h in run], np.uint64)
    sizes = [len(run) for run, _ in runs]
    if all(weights is None for _, weights in runs):
        return simhash_runs(hashes, sizes)
    votes = [w for run, weights in runs for w in (weights or [1] * len(run))]
    return simhash_runs(hashes, sizes, np.array(votes, np.int64))


def random_items(rng: random.Random, n: int) -> tuple[list[int], list[int]]:
    hashes = [rng.getrandbits(64) for _ in range(n)]
    return hashes, [rng.randint(1, 50) for _ in range(n)]


# -- simhash_runs ---------------------------------------------------------------

def test_single_input_passes_through():
    h = 0xDEADBEEF12345678
    assert tally([([h], None), ([h], [1]), ([h], [7]), ([h], [2**31 - 1])]) == [h] * 4
    assert tally([([h], None), ([h], None)]) == [h, h]


def test_complementary_equal_weights_tie_to_zero():
    h = 0x0F0F0F0F0F0F0F0F
    pair = [h, h ^ 0xFFFFFFFFFFFFFFFF]
    assert tally([(pair, [2, 2]), (pair, None), (pair, [1, 2**31 - 1])]) == [0, 0, pair[1]]
    assert tally([(pair, None), (pair, None)]) == [0, 0]


def test_matches_oracle_on_random_inputs():
    rng = random.Random(42)
    for call in range(30):
        # Ten runs per call, weighted and unweighted in turn; the unweighted
        # ones again in a call without weights.
        runs = []
        for trial in range(10):
            hashes, weights = random_items(rng, rng.randint(1, 32))
            runs.append((hashes, weights if trial % 2 else None))
        expected = [simhash_oracle(hashes, weights) for hashes, weights in runs]
        assert tally(runs) == expected, f"call {call}"
        assert tally(runs[::2]) == expected[::2], f"call {call}"


def test_uint64_array_equals_int_list():
    # Any 1-D uint64 array: big-endian, or a strided view.
    rng = random.Random(44)
    for _ in range(100):
        runs = [random_items(rng, rng.randint(1, 40)) for _ in range(3)]
        flat = [h for hashes, _ in runs for h in hashes]
        sizes = [len(hashes) for hashes, _ in runs]
        votes = np.array([w for _, weights in runs for w in weights], np.int64)
        expected = [simhash_oracle(hashes, weights) for hashes, weights in runs]
        strided = np.array([h for h in flat for _ in range(2)], np.uint64)[::2]
        for array in (np.array(flat, ">u8"), strided):
            assert simhash_runs(array, sizes, votes) == expected


def test_uniform_path_equals_general_combiner():
    rng = random.Random(43)
    for _ in range(100):
        runs = [[rng.getrandbits(64) for _ in range(rng.randint(1, 40))] for _ in range(4)]
        assert tally([(hashes, None) for hashes in runs]) == \
            tally([(hashes, [1] * len(hashes)) for hashes in runs])


@settings(max_examples=200)
@given(weighted_hash_lists(), st.randoms(use_true_random=False))
def test_permutation_invariance(items, rng):
    hashes, weights = items
    order = list(range(len(hashes)))
    rng.shuffle(order)
    shuffled = [hashes[i] for i in order], [weights[i] for i in order]
    words = tally([items, shuffled, (hashes, None), (shuffled[0], None)])
    assert words[0] == words[1] and words[2] == words[3]


@settings(max_examples=100)
@given(weighted_hash_lists(), st.integers(min_value=1, max_value=1000))
def test_scale_invariance(items, scale):
    hashes, weights = items
    words = tally([items, (hashes, [w * scale for w in weights])])
    assert words[0] == words[1]


@settings(max_examples=100)
@given(weighted_hash_lists())
def test_concatenation_with_itself_is_identity(items):
    hashes, weights = items
    words = tally([items, (hashes + hashes, weights + weights), (hashes, None),
                   (hashes + hashes, None)])
    assert words[0] == words[1] and words[2] == words[3]


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
