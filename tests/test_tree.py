"""Hierarchical tree construction: paths, fields, truncation, storage."""

import io
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_sssi import laws, tree
from padic_sssi.errors import ResourceCapError
from padic_sssi.laws import Gaussian, Rademacher, SymmetricPareto
from padic_sssi.tree import TreeSpec


def make_spec(p=2, hurst=1.0, kmax=3, law=None, seed=12345, dim=1):
    return TreeSpec(p=p, hurst=hurst, kmax=kmax, law=law or Rademacher(), seed=seed, dim=dim)


def dense_sum(spec, levels, points, base=0, k_lo=0):
    """The level sum over build_levels' dense arrays: the bitwise oracle.

    A box slice(0, r) reads levels[k][:r, ..., :r]; at dim >= 2 an array of
    residues indexes every axis.
    """

    def xi(k, r):
        if isinstance(r, slice) or spec.dim == 1:
            return levels[k][(r,) * spec.dim]
        return levels[k][np.ix_(*[np.atleast_1d(r)] * spec.dim)]

    return tree.level_sum(spec, xi, points, base=base, k_lo=k_lo)


def test_level_sizes_example():
    spec = make_spec(p=2, kmax=3)
    assert [spec.level_modulus(k) for k in range(4)] == [2, 4, 8, 16]
    assert [a.shape for a in tree.build_levels(spec)] == [(2,), (4,), (8,), (16,)]
    spec2 = make_spec(p=3, kmax=2, dim=2)
    assert [a.shape for a in tree.build_levels(spec2)] == [(3, 3), (9, 9), (27, 27)]


def test_spec_validation():
    with pytest.raises(ValueError):
        make_spec(p=4)
    with pytest.raises(ValueError):
        make_spec(hurst=0.0)
    with pytest.raises(ValueError):
        make_spec(hurst=-1.0)
    for hurst in (math.inf, math.nan):
        with pytest.raises(ValueError, match="hurst"):
            make_spec(hurst=hurst)
    with pytest.raises(ValueError):
        make_spec(kmax=-1)
    with pytest.raises(ValueError):
        make_spec(dim=0)
    with pytest.raises(ValueError):
        make_spec(seed=-1)
    with pytest.raises(ValueError):
        make_spec(seed=2**64)
    with pytest.raises(ValueError):
        make_spec(law=SymmetricPareto(0.9))  # integrability gate
    with pytest.raises(OverflowError):
        make_spec(p=2, kmax=63)
    with pytest.raises(OverflowError):
        make_spec(p=2, kmax=33, dim=2)


def test_spec_weights():
    spec = make_spec(p=2, hurst=0.5, kmax=4)
    for k in range(5):
        assert spec.weight(k) == pytest.approx(2.0 ** (-0.5 * k))
    assert spec.weight(0) == 1.0


def test_spec_dict_roundtrip():
    for spec in (
        make_spec(),
        make_spec(p=3, hurst=0.7, kmax=5, law=Gaussian(2.0), seed=9, dim=2),
        make_spec(law=SymmetricPareto(1.5)),
    ):
        assert TreeSpec.from_dict(spec.to_dict()) == spec


def test_path_starts_at_zero():
    x = tree.lazy_path(make_spec(law=Gaussian(1.0), kmax=5), 64)
    assert x.values[0] == 0.0
    assert x.values.shape == (64,)
    assert np.all(np.isfinite(x.values))


def test_rademacher_single_level_support():
    # Kmax = 0: X_1 = xi_{0,1} - xi_{0,0} with xi = +-1
    seen = set()
    for seed in range(40):
        spec = make_spec(kmax=0, seed=seed)
        x = tree.lazy_path(spec, 2)
        seen.add(float(x.values[1]))
    assert seen <= {-2.0, 0.0, 2.0}
    assert len(seen) == 3


@given(
    st.sampled_from([2, 3, 5]),
    st.integers(min_value=0, max_value=5),
    st.sampled_from([Gaussian(1.0), SymmetricPareto(1.25), Rademacher()]),
    st.booleans(),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_lazy_matches_dense_bitwise(p, kmax, law, beyond_period, data):
    # horizons on both sides of the deepest period p**(kmax+1): the deepest
    # levels' boxes are cut short, or every level adds whole periods
    spec = make_spec(p=p, kmax=kmax, law=law, hurst=0.7, seed=data.draw(st.integers(0, 2**64 - 1)))
    period = spec.level_modulus(kmax)
    horizon = data.draw(st.integers(period + 1, 2 * period) if beyond_period else st.integers(1, period))
    levels = tree.build_levels(spec)
    assert np.array_equal(tree.lazy_path(spec, horizon).values, dense_sum(spec, levels, np.arange(horizon)))

    # keyed sublattice increments against a level-by-level sum of scalar lookups
    K = data.draw(st.integers(0, kmax))
    r = data.draw(st.integers(0, 3 * period))
    steps = data.draw(st.integers(1, 12))
    got = tree.level_sum(spec, tree.keyed_lookup(spec), r + p**K * np.arange(steps), base=r, k_lo=K)
    for u in range(steps):
        acc = 0.0
        for k in range(kmax, K - 1, -1):
            m = spec.level_modulus(k)
            acc += spec.weight(k) * (levels[k][(r + p**K * u) % m] - levels[k][r % m])
        assert got[u] == acc


@given(
    st.sampled_from([2, 3, 5]),
    st.sampled_from([2, 3]),
    st.sampled_from([Gaussian(1.0), SymmetricPareto(1.25), Rademacher()]),
    st.booleans(),
    st.data(),
)
@settings(max_examples=30, deadline=None)
def test_field_matches_dense_bitwise(p, dim, law, beyond_period, data):
    # box sides on both sides of the deepest period p**(kmax+1)
    kmax = data.draw(st.integers(0, 2 if p ** (3 * dim) <= 5**4 else 1))
    spec = make_spec(p=p, kmax=kmax, law=law, hurst=0.7, dim=dim, seed=data.draw(st.integers(0, 2**64 - 1)))
    period = spec.level_modulus(kmax)
    side = data.draw(st.integers(period, 2 * period) if beyond_period else st.integers(0, period - 1))
    got = tree.field(spec, side).values
    assert got.shape == (side + 1,) * dim
    assert np.array_equal(got, dense_sum(spec, tree.build_levels(spec), np.arange(side + 1)))


@given(
    st.sampled_from([2, 3, 5]),
    st.sampled_from([1, 2]),
    st.sampled_from([Gaussian(1.0), SymmetricPareto(1.25)]),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_level_sum_range_matches_gather_bitwise(p, dim, law, data):
    # range(n) adds each level once per period; the gather over np.arange(n)
    # is its reference, for n below p and off every period, at any lowest
    # level, through the dense oracle and the keyed lookup alike (a range is
    # taken at base 0 only)
    kmax = data.draw(st.integers(0, 4 if dim == 1 else 2 if p < 5 else 1))
    spec = make_spec(p=p, kmax=kmax, law=law, hurst=0.7, dim=dim, seed=data.draw(st.integers(0, 2**64 - 1)))
    period = spec.level_modulus(kmax)
    n = data.draw(st.one_of(st.integers(1, p - 1), st.integers(p, 2 * period + p)))
    k_lo = data.draw(st.integers(0, kmax))
    levels = tree.build_levels(spec)
    want = dense_sum(spec, levels, np.arange(n), k_lo=k_lo)
    assert want.shape == (n,) * dim
    for got in (
        dense_sum(spec, levels, range(n), k_lo=k_lo),
        tree.level_sum(spec, tree.keyed_lookup(spec), range(n), k_lo=k_lo),
    ):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_level_sum_range_must_start_at_zero():
    spec = make_spec()
    with pytest.raises(ValueError, match="range"):
        tree.level_sum(spec, tree.keyed_lookup(spec), range(1, 5))
    with pytest.raises(ValueError, match="base 0"):
        tree.level_sum(spec, tree.keyed_lookup(spec), range(5), base=3)


@pytest.mark.parametrize("p, dim, kmax, n", [(2, 1, 4, 1), (2, 1, 4, 11), (3, 1, 2, 40), (2, 2, 3, 5), (3, 2, 1, 12)])
def test_level_sum_asks_each_level_once_for_its_box(p, dim, kmax, n):
    # on range(n), level k is asked once, for slice(0, min(p**(k+1), n)),
    # from kmax down to k_lo
    spec = make_spec(p=p, kmax=kmax, dim=dim)
    lookup = tree.keyed_lookup(spec)
    for k_lo in range(kmax + 1):
        asked = []

        def spy(k, residues):
            asked.append((k, residues))
            return lookup(k, residues)

        tree.level_sum(spec, spy, range(n), k_lo=k_lo)
        assert asked == [(k, slice(0, min(p ** (k + 1), n))) for k in range(kmax, k_lo - 1, -1)]


def test_keyed_lookup_refusals():
    # residue arrays are dim 1 only; a box is drawn at spec.seed only
    with pytest.raises(ValueError, match="dim=1"):
        tree.keyed_lookup(make_spec(dim=2))(1, np.arange(3))
    with pytest.raises(ValueError, match="seed arrays"):
        tree.keyed_lookup(make_spec(), seeds=np.arange(4))(1, slice(0, 4))


def test_path_against_naive_differencing():
    # direct per-index accumulation with scalar lookups
    spec = make_spec(law=Gaussian(1.0), kmax=4, hurst=0.6, seed=5)
    levels = tree.build_levels(spec)
    x = tree.lazy_path(spec, 50)
    for n in range(50):
        acc = 0.0
        for k in range(spec.kmax, -1, -1):
            m = spec.level_modulus(k)
            acc += spec.weight(k) * (levels[k][n % m] - levels[k][0])
        assert abs(acc - x.values[n]) <= 1e-9 * max(1.0, abs(acc))


def test_xi_periodicity():
    # keyed lookups of the periodically extended residues read the dense level
    spec = make_spec(law=Gaussian(1.0), kmax=3, seed=21)
    levels = tree.build_levels(spec)
    for k in range(4):
        m = spec.level_modulus(k)
        n = np.arange(-m, 2 * m)
        assert np.array_equal(tree.keyed_lookup(spec)(k, n % m), levels[k][n % m])
        assert np.array_equal(levels[k][n % m], np.tile(levels[k], 3))


def test_truncation_extension_stability():
    # adding levels beyond kmax changes the path by at most the extension's
    # own tail; for Rademacher each level contributes at most 2 * weight
    base = make_spec(kmax=3, hurst=1.0, seed=3)
    ext = make_spec(kmax=5, hurst=1.0, seed=3)
    xb = tree.lazy_path(base, 64).values
    xe = tree.lazy_path(ext, 64).values
    cap = 2.0 * (base.weight(4) + base.weight(5)) + 1e-12
    assert float(np.max(np.abs(xe - xb))) <= cap


def test_determinism_across_builds():
    spec = make_spec(law=SymmetricPareto(1.5), kmax=5, seed=44)
    a = tree.lazy_path(spec, 128).values
    b = dense_sum(spec, tree.build_levels(spec), np.arange(128))
    c = tree.lazy_path(spec, 128).values
    assert np.array_equal(a, b) and np.array_equal(a, c)
    other = tree.lazy_path(make_spec(law=SymmetricPareto(1.5), kmax=5, seed=45), 128).values
    assert not np.array_equal(a, other)


def test_truncation_tail_bound_examples():
    # E|xi| = 1, p = 2, H = 1, Kmax = 3: 2 * 2**-4 / (1 - 1/2) = 0.25
    assert tree.truncation_tail_bound(make_spec(kmax=3, hurst=1.0)) == pytest.approx(0.25)
    # each extra level halves the bound at H = 1, p = 2
    b3 = tree.truncation_tail_bound(make_spec(kmax=3, hurst=1.0))
    b4 = tree.truncation_tail_bound(make_spec(kmax=4, hurst=1.0))
    assert b4 == pytest.approx(b3 / 2.0)
    # bound vanishes as the truncation deepens
    assert tree.truncation_tail_bound(make_spec(kmax=40, hurst=1.0)) < 1e-11
    # Gaussian E|xi| enters linearly
    g1 = tree.truncation_tail_bound(make_spec(law=Gaussian(1.0), kmax=3, hurst=1.0))
    g2 = tree.truncation_tail_bound(make_spec(law=Gaussian(2.0), kmax=3, hurst=1.0))
    assert g2 == pytest.approx(2.0 * g1)


def test_path_bounded_by_weighted_tail_sum():
    # Rademacher: |X_n| <= 2 * sum_k w_k deterministically
    spec = make_spec(kmax=6, hurst=0.5, seed=10)
    x = tree.lazy_path(spec, 128).values
    cap = 2.0 * sum(spec.weight(k) for k in range(7)) + 1e-12
    assert float(np.max(np.abs(x))) <= cap


def test_sublattice_path_identity_case():
    # levels below K cancel on p**K sublattices: the k >= K sum is the path difference
    spec = make_spec(law=Gaussian(1.0), kmax=4, hurst=0.7, seed=8)
    x = tree.lazy_path(spec, 64).values
    for r, K in ((0, 0), (3, 2), (5, 4)):
        u = np.arange((63 - r) // spec.p**K + 1)
        sub = tree.level_sum(spec, tree.keyed_lookup(spec), r + spec.p**K * u, base=r, k_lo=K)
        assert np.allclose(sub, x[r + spec.p**K * u] - x[r], atol=1e-12)


def test_sublattice_path_matches_decimated_construction():
    # Y_u = sum_{k >= K} w_k (xi_{k, (r + p**K u) mod m} - xi_{k, r mod m})
    spec = make_spec(law=Gaussian(1.0), kmax=4, hurst=0.7, seed=8)
    levels = tree.build_levels(spec)
    r, K, horizon = 3, 2, 16
    pK = spec.p**K
    got = dense_sum(spec, levels, r + pK * np.arange(horizon), base=r, k_lo=K)
    for u in range(horizon):
        acc = 0.0
        for k in range(spec.kmax, K - 1, -1):
            m = spec.level_modulus(k)
            acc += spec.weight(k) * (levels[k][(r + pK * u) % m] - levels[k][r % m])
        assert abs(acc - got[u]) <= 1e-9 * max(1.0, abs(acc))


def test_field_zero_at_deep_lattice_points():
    spec = make_spec(law=Gaussian(1.0), kmax=1, dim=2, seed=17)
    fp = tree.field(spec, 8)
    grid = fp.grid()
    step = spec.p ** (spec.kmax + 1)  # both coords multiples of 4
    assert grid[0, 0] == 0.0
    assert grid[step, 0] == 0.0
    assert grid[0, step] == 0.0
    assert grid[step, step] == 0.0
    assert grid[2 * step, 2 * step] == 0.0
    assert grid[1, 0] != 0.0


def test_field_diagonal_consistency():
    # the d = 1 path and the d = 2 field are driven by different level
    # tables, but both must vanish at the origin and be finite everywhere
    spec = make_spec(law=Gaussian(1.0), kmax=2, dim=2, seed=33)
    fp = tree.field(spec, 10)
    assert fp.grid().shape == (11, 11)
    assert np.all(np.isfinite(fp.grid()))


def test_path_values_matches_lazy_path():
    spec = make_spec(law=Gaussian(1.0), kmax=5, hurst=0.7, seed=66)
    x = tree.lazy_path(spec, 40).values
    idx = np.array([0, 1, 7, 39])
    got = tree.path_values(spec, idx)
    assert np.allclose(got, x[idx], atol=0, rtol=0)


def test_path_values_broadcasts_over_seeds():
    spec = make_spec(law=Gaussian(1.0), kmax=4, hurst=0.7, seed=66)
    seeds = np.array([100, 200, 300], dtype=np.uint64)
    got = tree.path_values(spec, np.array([5]), seeds=seeds)
    for j, s in enumerate(seeds):
        alone = tree.lazy_path(make_spec(law=Gaussian(1.0), kmax=4, hurst=0.7, seed=int(s)), 6).values[5]
        assert got.ravel()[j] == alone


def test_memory_cap_error_names_level():
    spec = make_spec(law=Gaussian(1.0), kmax=12, dim=2)
    with pytest.raises(ResourceCapError) as err:
        tree.build_levels(spec)
    assert "level" in str(err.value)


def test_memory_cap_refuses_before_drawing(monkeypatch):
    drawn = []
    monkeypatch.setattr("padic_sssi.laws.keyed_values", lambda *a: drawn.append(a))
    with pytest.raises(ResourceCapError) as err:
        tree.build_levels(make_spec(law=Gaussian(1.0), kmax=12, dim=2))
    assert str(err.value) == "level 12 pushes stored entries to 89478484, above the cap of 33554432"
    assert drawn == []


def test_keyed_requests_refuse_over_cap_before_drawing(monkeypatch):
    drawn = []
    monkeypatch.setattr("padic_sssi.laws.keyed_values", lambda *a: drawn.append(a))
    # the output box alone exceeds the cap
    with pytest.raises(ResourceCapError) as err:
        tree.field(make_spec(kmax=0, dim=2), 99999)
    assert str(err.value) == "level 0 pushes stored entries to 10000000004, above the cap of 33554432"
    # 6000**2 output entries, then the draws of levels 0..12
    with pytest.raises(ResourceCapError, match="level 0"):
        tree.field(make_spec(kmax=12, dim=2), 5999)
    with pytest.raises(ResourceCapError, match="level 0"):
        tree.lazy_path(make_spec(kmax=3), 1 << 25)
    assert drawn == []


@pytest.mark.parametrize(
    "p, dim, kmax, extent",
    [(2, 1, 16, 1 << 12), (3, 1, 4, 100), (2, 2, 4, 64), (2, 2, 12, 16), (3, 2, 2, 20), (2, 3, 2, 5)],
)
def test_one_keyed_draw_per_level(monkeypatch, p, dim, kmax, extent):
    # each level draws the box [0, min(p**(k+1), extent))**dim once; its
    # base is the box corner, so no address is drawn twice
    calls = []
    real = laws.keyed_values

    def spy(law, seed, level, residue):
        calls.append((level, np.size(residue)))
        return real(law, seed, level, residue)

    monkeypatch.setattr(laws, "keyed_values", spy)
    spec = make_spec(p=p, kmax=kmax, dim=dim, law=Gaussian(1.0))
    if dim == 1:
        tree.lazy_path(spec, extent)
    else:
        tree.field(spec, extent - 1)
    assert calls == [(k, min(p ** (k + 1), extent) ** dim) for k in range(kmax, -1, -1)]


def test_level_arrays_read_only():
    levels = tree.build_levels(make_spec(kmax=2))
    with pytest.raises(ValueError):
        levels[0][0] = 99.0


def test_csv_roundtrip_path():
    spec = make_spec(law=Gaussian(1.0), kmax=3, seed=2)
    x = tree.lazy_path(spec, 17)
    buf = io.StringIO()
    tree.write_path_csv(x, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "index,value"
    assert len(lines) == 18
    parsed = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
    assert np.array_equal(parsed, x.values)  # repr round-trips exactly


def unravel_field_csv(f):
    """The per-value np.unravel_index writer: the byte reference for write_field_csv."""
    lines = [",".join(f"i{a}" for a in range(f.spec.dim)) + ",value\n"]
    for pos, v in enumerate(f.values.ravel()):
        coords = np.unravel_index(pos, f.values.shape)
        lines.append(",".join(str(int(c)) for c in coords) + f",{float(v)!r}\n")
    return "".join(lines)


@pytest.mark.parametrize("dim, side", [(2, 0), (2, 1), (2, 37), (3, 0), (3, 9), (1, 12)])
def test_field_csv_bytes_match_unravel_writer(dim, side):
    fp = tree.field(make_spec(law=SymmetricPareto(1.5), kmax=3, seed=8, dim=dim), side)
    buf = io.StringIO()
    tree.write_field_csv(fp, buf)
    assert buf.getvalue() == unravel_field_csv(fp)


def test_binary_roundtrip_path_and_field():
    spec = make_spec(law=SymmetricPareto(1.5), kmax=3, seed=2)
    x = tree.lazy_path(spec, 23)
    buf = io.BytesIO()
    tree.write_binary(x, buf)
    buf.seek(0)
    back = tree.read_binary(buf)
    assert back.spec == spec
    assert back.horizon == 23
    assert np.array_equal(back.values, x.values)

    fspec = make_spec(law=Gaussian(1.0), kmax=1, dim=2, seed=4)
    fp = tree.field(fspec, 6)
    buf = io.BytesIO()
    tree.write_binary(fp, buf)
    buf.seek(0)
    fback = tree.read_binary(buf)
    assert fback.spec == fspec
    assert np.array_equal(np.asarray(fback.grid()), np.asarray(fp.grid()))


class _Pipe(io.RawIOBase):
    """A readable, non-seekable byte source, like a pipe."""

    def __init__(self, data: bytes) -> None:
        self._src = io.BytesIO(data)

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        return self._src.readinto(b)


def test_binary_rejects_corrupt_stream():
    buf = io.BytesIO()
    tree.write_binary(tree.lazy_path(make_spec(kmax=2, seed=3), 9), buf)
    good = buf.getvalue()
    # record layout: magic 4, version 1, then <BIQQ: kind, blob_len at 6, extent, count at 18
    (blob_len,) = struct.unpack_from("<I", good, 6)
    corrupt = [
        b"NOPE" + b"\x00" * 64,
        good[:4],  # ends before the version byte
        good[:15],  # ends inside the record header
        good[:6] + struct.pack("<I", 2**32 - 1) + good[10:],  # blob_len past the end
        good[:18] + struct.pack("<Q", 2**61) + good[26:],  # count past the end
        good[:6] + struct.pack("<I", 2) + good[10:26] + b"[]" + good[26 + blob_len :],  # spec not an object
        good[:-3],  # truncated value block
    ]
    for data in corrupt:
        for stream in (io.BytesIO(data), io.BufferedReader(_Pipe(data))):
            with pytest.raises(ValueError):
                tree.read_binary(stream)
    piped = tree.read_binary(io.BufferedReader(_Pipe(good)))
    assert np.array_equal(piped.values, tree.read_binary(io.BytesIO(good)).values)


@given(
    st.sampled_from([2, 3, 5]),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=25, deadline=None)
def test_path_zero_invariant_any_spec(p, kmax, seed):
    spec = TreeSpec(p=p, hurst=0.8, kmax=kmax, law=Gaussian(1.0), seed=seed, dim=1)
    assert tree.lazy_path(spec, 4).values[0] == 0.0
