"""Golden vectors and stability checks for the pinned 64-bit hash."""

import json
import random
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qdaghash.cityhash import HASH_ALGORITHM_ID, cityhash64, cityhash64_spans
from qdaghash.simhash import string_hash64

GOLDEN_PATH = Path(__file__).parent / "data" / "cityhash_golden.json"


def load_golden() -> list[dict]:
    return json.loads(GOLDEN_PATH.read_text())


def test_algorithm_identifier():
    assert HASH_ALGORITHM_ID == "cityhash64"


def test_golden_vectors():
    vectors = load_golden()
    assert len(vectors) == 20
    for vec in vectors:
        assert f"{string_hash64(vec['input']):016x}" == vec["hash"], vec["input"]


def test_empty_input_is_the_known_constant():
    # Publicly known CityHash64 value for the empty string.
    assert cityhash64(b"") == 0x9AE16A3B2F90404F


def test_known_short_vectors():
    # Widely published CityHash64 (v1.1) values.
    assert cityhash64(b"a") == 0xB3454265B6DF75E3
    assert cityhash64(b"ab") == 0xAA8D6E5242ADA51E
    assert cityhash64(b"abc") == 0x24A5B3A074E7F369


def test_deterministic_across_calls():
    assert string_hash64("Scan lineitem") == string_hash64("Scan lineitem")


def test_near_identical_inputs_collide_nowhere_obvious():
    assert string_hash64("Scan lineitem") != string_hash64("Scan lineitems")


def test_str_and_utf8_bytes_agree():
    assert string_hash64("Schön") == string_hash64("Schön".encode("utf-8"))


def test_all_length_classes_produce_64_bit_values():
    rng = random.Random(17)
    for length in (0, 1, 3, 4, 7, 8, 15, 16, 17, 31, 32, 33, 63, 64, 65, 128, 1000):
        data = bytes(rng.randrange(256) for _ in range(length))
        value = cityhash64(data)
        assert 0 <= value < 2**64
        assert cityhash64(data) == value


# -- the array kernel against the scalar reference -------------------------------

@st.composite
def buffers_with_spans(draw):
    """A random buffer and 1..12 spans inside it of 0..80 bytes each, which
    covers every length class of the kernel and the scalar path past 64."""
    buf = draw(st.binary(max_size=200))
    spans = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        start = draw(st.integers(min_value=0, max_value=len(buf)))
        length = draw(st.integers(min_value=0, max_value=min(80, len(buf) - start)))
        spans.append((start, length))
    return buf, spans


@settings(max_examples=400, deadline=None)
@given(buffers_with_spans())
def test_spans_kernel_equals_scalar_reference(case):
    buf, spans = case
    starts, lengths = (np.array(column, np.int64) for column in zip(*spans))
    got = cityhash64_spans(buf, starts, lengths)
    assert got.dtype == np.uint64
    assert got.tolist() == [cityhash64(buf[s:s + n]) for s, n in spans]


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=1, max_size=80))
def test_spans_kernel_on_one_whole_buffer(data):
    # Also the span that ends exactly at the end of the buffer.
    assert cityhash64_spans(data, [0], [len(data)]).tolist() == [cityhash64(data)]


def test_spans_kernel_on_every_golden_vector():
    vectors = [vec["input"].encode("utf-8") for vec in load_golden()]
    buf = b"".join(vectors)
    starts = np.cumsum([0] + [len(v) for v in vectors[:-1]])
    got = cityhash64_spans(buf, starts, [len(v) for v in vectors])
    assert [f"{h:016x}" for h in got.tolist()] == [vec["hash"] for vec in load_golden()]


def test_spans_kernel_on_no_spans():
    assert cityhash64_spans(b"abc", [], []).tolist() == []
