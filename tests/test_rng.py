"""Counter-based generator: known-answer vectors, determinism, layout.

The known-answer vectors are the published Philox4x32-10 test vectors from
the Random123 distribution (Salmon et al., SC 2011), frozen here so any
drift in the round function, round count, or key schedule is caught
exactly.  A from-scratch scalar implementation cross-checks the
vectorized one on random inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_sssi import rng

U32 = st.integers(min_value=0, max_value=2**32 - 1)
U64 = st.integers(min_value=0, max_value=2**64 - 1)

# (counter, key) -> output, all 32-bit words
RANDOM123_KAT = [
    ((0x00000000,) * 4, (0x00000000,) * 2, (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
    (
        (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
        (0xA4093822, 0x299F31D0),
        (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
    ),
]


def _philox_scalar(ctr, key):
    """Independent plain-Python Philox4x32-10 for cross-checking."""
    M0, M1 = 0xD2511F53, 0xCD9E8D57
    W0, W1 = 0x9E3779B9, 0xBB67AE85
    mask = 0xFFFFFFFF
    x0, x1, x2, x3 = ctr
    k0, k1 = key
    for r in range(10):
        if r > 0:
            k0 = (k0 + W0) & mask
            k1 = (k1 + W1) & mask
        p0 = (M0 * x0) & 0xFFFFFFFFFFFFFFFF
        p1 = (M1 * x2) & 0xFFFFFFFFFFFFFFFF
        hi0, lo0 = p0 >> 32, p0 & mask
        hi1, lo1 = p1 >> 32, p1 & mask
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    return x0, x1, x2, x3


def test_known_answer_vectors():
    for ctr, key, expected in RANDOM123_KAT:
        got = rng.philox4x32(*ctr, *key)
        assert tuple(int(w) for w in got) == expected


def test_scalar_reference_agrees_on_kat():
    for ctr, key, expected in RANDOM123_KAT:
        assert _philox_scalar(ctr, key) == expected


@given(st.tuples(U32, U32, U32, U32), st.tuples(U32, U32))
@settings(max_examples=50)
def test_vectorized_matches_scalar_reference(ctr, key):
    got = tuple(int(w) for w in rng.philox4x32(*ctr, *key))
    assert got == _philox_scalar(ctr, key)


def test_vectorized_over_counter_array():
    idx = np.arange(100, dtype=np.uint64)
    block = rng.philox4x32(idx, 7, 9, 11, 123, 456)
    singles = [rng.philox4x32(int(i), 7, 9, 11, 123, 456) for i in range(100)]
    for w in range(4):
        assert np.array_equal(block[w], np.array([int(s[w]) for s in singles], dtype=np.uint64))


def test_block_words_layout():
    # words 0-1 fuse into the uniform u64, word 2 carries the sign bit
    w = rng.block_words(5, 2, 3, np.arange(4, dtype=np.uint64))
    u64, sign = rng.uniform_words(5, 2, 3, np.arange(4, dtype=np.uint64))
    assert np.array_equal(u64, (w[0] << np.uint64(32)) | w[1])
    assert np.array_equal(sign, w[2])


def test_uniform_ranges():
    idx = np.arange(4096, dtype=np.uint64)
    u64, _ = rng.uniform_words(1, 0, 0, idx)
    u_oc = rng.uniform_open_closed(u64)
    u_oo = rng.uniform_open(u64)
    assert np.all(u_oc > 0) and np.all(u_oc <= 1)
    assert np.all(u_oo > 0) and np.all(u_oo < 1)
    # 53-bit mantissa spacing
    assert np.all(u_oc * 2**53 == np.round(u_oc * 2**53))


def test_uniform_endpoints():
    zero = np.array([0], dtype=np.uint64)
    top = np.array([2**64 - 1], dtype=np.uint64)
    assert rng.uniform_open_closed(zero)[0] == 2.0**-53
    assert rng.uniform_open_closed(top)[0] == 1.0
    assert rng.uniform_open(zero)[0] == 2.0**-54
    assert rng.uniform_open(top)[0] < 1.0


def test_signs_are_plus_minus_one_and_balanced():
    _, sign_word = rng.uniform_words(9, 1, 1, np.arange(20000, dtype=np.uint64))
    s = rng.signs(sign_word)
    assert set(np.unique(s)) == {-1.0, 1.0}
    assert abs(float(np.mean(s))) < 0.02


def test_determinism_and_seed_sensitivity():
    idx = np.arange(100, dtype=np.uint64)
    a, _ = rng.uniform_words(42, 1, 2, idx)
    b, _ = rng.uniform_words(42, 1, 2, idx)
    c, _ = rng.uniform_words(43, 1, 2, idx)
    d, _ = rng.uniform_words(42, 2, 2, idx)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


@given(U64, st.integers(min_value=0, max_value=2**20 - 1), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30)
def test_derive_seed_scalar_vs_array(master, purpose, index):
    single = rng.derive_seed(master, purpose, index)
    block = rng.derive_seed(master, purpose, np.array([index], dtype=np.uint64))
    assert int(block[0]) == int(single)
    assert 0 <= int(single) < 2**64


def test_derive_seed_distinct_purposes_and_indices():
    seeds = {int(rng.derive_seed(1, p, i)) for p in (0, 1, 2) for i in range(50)}
    assert len(seeds) == 150


def test_derive_seed_rejects_bad_purpose():
    with pytest.raises(ValueError):
        rng.derive_seed(1, -1, 0)

