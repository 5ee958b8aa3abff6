"""Counter-based random streams for addressable, reproducible sampling.

Every noise value used by this package is addressed rather than drawn in
sequence: the value associated with (master seed, stream tag, draw index)
is a pure function of those integers, evaluated through the Philox-4x32-10
block cipher of Salmon, Moraes, Dror and Shaw (SC 2011).  Addressing makes
draws independent of evaluation order, lets two processes that share a seed
agree on every value without communicating, and vectorizes over either the
index axis or the seed axis with plain numpy integer arithmetic.

Layout of one block:

    counter = (draw_index, tag0, tag1_low32, tag1_high32)
    key     = (seed_low32, seed_high32)

The four 32-bit output words are consumed with a fixed convention so that a
value never changes when an unrelated feature starts consuming more words:
words 0 and 1 form the 64-bit uniform source, word 2 supplies the sign bit.
"""

from __future__ import annotations

import numpy as np

# Philox-4x32 round constants (Random123 reference values).
_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = np.uint64(0x9E3779B9)
_W1 = np.uint64(0xBB67AE85)
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_ROUNDS = 10

_U32_MAX = (1 << 32) - 1

# tag0 values at or above this offset are reserved for internal seed
# derivation; tree levels use tag0 = level index, far below it.
DERIVE_TAG_BASE = 1 << 20


def philox4x32(c0, c1, c2, c3, k0, k1) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run the 10-round Philox-4x32 bijection elementwise.

    All six inputs broadcast against each other (32-bit lanes); returns the
    four output words as uint64 arrays holding 32-bit values.  The hot loop
    works in uint64 so the 32x32 widening products need no dtype casts, and
    rotates six preallocated buffers so rounds allocate nothing.
    """
    shape = np.broadcast_shapes(
        *(np.shape(a) for a in (c0, c1, c2, c3, k0, k1))
    )
    lanes = []
    for a in (c0, c1, c2, c3):
        arr = np.asarray(a, dtype=np.uint64) & _MASK32
        lanes.append(np.broadcast_to(arr, shape).astype(np.uint64))
    x0, x1, x2, x3 = lanes
    # keys stay compact (often scalar while counters are wide); arithmetic
    # broadcasts them against the counter lanes on demand
    k0 = np.array(np.asarray(k0, dtype=np.uint64) & _MASK32, dtype=np.uint64)
    k1 = np.array(np.asarray(k1, dtype=np.uint64) & _MASK32, dtype=np.uint64)
    s0 = np.empty(shape, dtype=np.uint64)
    s1 = np.empty(shape, dtype=np.uint64)
    for rnd in range(_ROUNDS):
        if rnd:
            np.add(k0, _W0, out=k0)
            np.bitwise_and(k0, _MASK32, out=k0)
            np.add(k1, _W1, out=k1)
            np.bitwise_and(k1, _MASK32, out=k1)
        np.multiply(x0, _M0, out=x0)  # p0; old x0 dead
        np.multiply(x2, _M1, out=x2)  # p1; old x2 dead
        np.right_shift(x2, _SHIFT32, out=s0)  # hi(p1)
        np.bitwise_xor(s0, x1, out=s0)
        np.bitwise_xor(s0, k0, out=s0)  # new x0
        np.bitwise_and(x2, _MASK32, out=x2)  # new x1 = lo(p1)
        np.right_shift(x0, _SHIFT32, out=s1)  # hi(p0)
        np.bitwise_xor(s1, x3, out=s1)
        np.bitwise_xor(s1, k1, out=s1)  # new x2
        np.bitwise_and(x0, _MASK32, out=x0)  # new x3 = lo(p0)
        x0, x1, x2, x3, s0, s1 = s0, x2, s1, x0, x1, x3
    return x0, x1, x2, x3


def _split64(value) -> tuple[np.ndarray, np.ndarray]:
    v = np.asarray(value, dtype=np.uint64)
    return v.astype(np.uint32), (v >> np.uint64(32)).astype(np.uint32)


def block_words(seed, tag0, tag1, index) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Philox output words for draw `index` of stream (seed, (tag0, tag1)).

    seed and tag1 are 64-bit, tag0 and index 32-bit; any of them may be an
    array, and they broadcast together.
    """
    k0, k1 = _split64(seed)
    t1lo, t1hi = _split64(tag1)
    return philox4x32(
        np.asarray(index, dtype=np.uint32),
        np.asarray(tag0, dtype=np.uint32),
        t1lo,
        t1hi,
        k0,
        k1,
    )


def uniform_words(seed, tag0, tag1, index) -> tuple[np.ndarray, np.ndarray]:
    """Return (uniform64, sign_word) for the addressed draws.

    uniform64 packs output words 0 (high) and 1 (low) into uint64; sign_word
    is output word 2.  Word 3 is reserved.
    """
    w0, w1, w2, _ = block_words(seed, tag0, tag1, index)
    # philox4x32 returns fresh uint64 buffers, so w0 can hold the result
    np.left_shift(w0, _SHIFT32, out=w0)
    np.bitwise_or(w0, w1, out=w0)
    return w0, w2


def uniform_open_closed(u64: np.ndarray) -> np.ndarray:
    """Map uint64 words to doubles in (0, 1]; every value is representable."""
    return ((u64 >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0 ** -53)


def uniform_open(u64: np.ndarray) -> np.ndarray:
    """Map uint64 words to doubles in the open interval (0, 1).

    The midpoint formula rounds to exactly 1.0 at the maximal word (the
    +0.5 lands halfway between floats and ties go to even), so the result
    is clamped to the largest double below 1; openness is a contract, not
    a rounding accident.
    """
    u = ((u64 >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0 ** -53)
    return np.minimum(u, 1.0 - 2.0 ** -53)


def signs(sign_word: np.ndarray) -> np.ndarray:
    """Map the sign word to +-1.0 using its low bit."""
    return (sign_word & np.uint64(1)).astype(np.float64) * 2.0 - 1.0


def derive_seed(master_seed: int, purpose: int, index) -> np.ndarray:
    """Derive child 64-bit seeds from a master seed.

    Children for distinct (purpose, index) pairs are statistically
    independent of each other and of every tree-level stream, because the
    purpose tag lives above DERIVE_TAG_BASE while level streams tag below it.
    `index` may be an array.
    """
    if purpose < 0 or DERIVE_TAG_BASE + purpose > _U32_MAX:
        raise ValueError(f"purpose {purpose} out of range")
    u64, _ = uniform_words(master_seed, DERIVE_TAG_BASE + purpose, index, 0)
    return u64
