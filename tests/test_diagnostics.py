"""Almost-periodicity estimators on sequences with known-by-hand answers."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_sssi import diagnostics as dg
from padic_sssi.errors import ConfigError
from padic_sssi.padic import PadicContext

CTX2 = PadicContext(2)
CTX3 = PadicContext(3)


def indicator3(n_points: int) -> np.ndarray:
    n = np.arange(n_points)
    return (n % 3 == 0).astype(np.float64)


def alternating(n_points: int) -> np.ndarray:
    n = np.arange(n_points)
    return np.where(n % 2 == 0, 1.0, -1.0)


def test_series_view_validation():
    with pytest.raises(ValueError):
        dg.SeriesView(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        dg.SeriesView(np.array([]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            dg.SeriesView(np.array([0.0, bad, 1.0]))
    view = dg.SeriesView(np.arange(4.0))
    assert view.horizon == 4
    with pytest.raises(ValueError):
        view.values[0] = 1.0  # stored read-only


def sup_translate_distance(f, tau):
    """max |f(n+tau) - f(n)| over the horizon: the one-shift oracle for translate_sup_profile."""
    return float(np.max(np.abs(dg.translate_diff(f, tau).values)))


def test_sup_translate_distance_indicator():
    f = indicator3(300)
    profile = dg.translate_sup_profile(f, 6)
    for tau, want in ((3, 0.0), (1, 1.0), (6, 0.0), (2, 1.0)):
        assert sup_translate_distance(f, tau) == profile[tau - 1] == want


def test_translate_sup_profile_matches_scalar():
    f = np.sin(np.arange(100) * 0.7) + indicator3(100)
    profile = dg.translate_sup_profile(f, 20)
    assert profile.shape == (20,)
    for tau in range(1, 21):
        assert profile[tau - 1] == sup_translate_distance(f, tau)


def test_bohr_set_indicator_example():
    rep = dg.bohr_translation_set(indicator3(300), 0.5, 30)
    assert rep.taus == tuple(range(3, 31, 3))
    assert rep.max_gap == 3
    assert rep.epsilon == 0.5
    assert rep.horizon == 300


def test_bohr_set_alternating_example():
    rep = dg.bohr_translation_set(alternating(200), 0.5, 10)
    assert rep.taus == (2, 4, 6, 8, 10)
    assert rep.max_gap == 2


def test_bohr_strictness_and_empty_set():
    # distances equal to epsilon are rejected (strict <)
    f = indicator3(120)
    rep = dg.bohr_translation_set(f, 1.0, 8)
    assert rep.taus == (3, 6)
    rep_empty = dg.bohr_translation_set(np.arange(50.0), 0.5, 10)
    assert rep_empty.taus == ()
    assert rep_empty.max_gap == 11  # tau_max + 1 marks an empty set


def test_bohr_boundary_gap_counted():
    # accepted taus {3, 6} in tau_max = 10: gaps are 3, 3, and 10 - 6 = 4
    f = indicator3(40)
    rep = dg.bohr_translation_set(f, 0.5, 10)
    assert rep.taus == (3, 6, 9)
    assert rep.max_gap == 3
    rep2 = dg.bohr_translation_set(f, 0.5, 11)
    assert rep2.taus == (3, 6, 9)
    assert rep2.max_gap == 3  # trailing gap 11 - 9 = 2 < 3


def test_bohr_accepts_precomputed_distances():
    f = np.cos(np.arange(128) * 0.3)
    dist = dg.translate_sup_profile(f, 32)
    a = dg.bohr_translation_set(f, 0.7, 32)
    b = dg.bohr_translation_set(f, 0.7, 32, distances=dist)
    assert a == b


def test_translation_report_json():
    rep = dg.bohr_translation_set(indicator3(60), 0.5, 12)
    d = rep.to_dict()
    assert d["taus"] == [3, 6, 9, 12]


def test_weyl_profile_spike():
    # single unit spike: the worst window of length L averages 1/L
    f = np.zeros(1024)
    f[0] = 1.0
    grid = [1, 4, 16, 64, 256, 1024]
    prof = dg.weyl_profile(f, 1.0, grid)
    for L, est in zip(grid, prof.estimates):
        assert est == pytest.approx(1.0 / L)
    assert prof.headline == pytest.approx(1.0 / 1024.0)


def test_weyl_profile_takes_max_over_starts():
    # mass away from the origin is still found by the sliding window
    f = np.zeros(64)
    f[40:44] = 1.0
    prof = dg.weyl_profile(f, 1.0, [4])
    assert prof.estimates[0] == pytest.approx(1.0)


def test_besicovitch_profile_spike():
    f = np.zeros(1024)
    f[0] = 1.0
    prof = dg.besicovitch_profile(f, 1.0, [1, 32, 1024])
    assert prof.estimates == pytest.approx([1.0, 1.0 / 32.0, 1.0 / 1024.0])
    assert prof.headline == pytest.approx(1.0 / 1024.0)


def test_besicovitch_below_weyl():
    rng = np.random.default_rng(7)
    f = rng.standard_normal(512)
    grid = [2, 8, 32, 128, 512]
    w = dg.weyl_profile(f, 2.0, grid)
    b = dg.besicovitch_profile(f, 2.0, grid)
    for wv, bv in zip(w.estimates, b.estimates):
        assert bv <= wv + 1e-12


def test_weyl_q_scaling_constant():
    f = np.full(100, 3.0)
    for q in (1.0, 2.0, 3.5):
        prof = dg.weyl_profile(f, q, [10, 100])
        assert prof.estimates == pytest.approx([3.0, 3.0])


# reference definitions: each profile computes its own running sums of |u|**q
def _weyl_reference(values, q, grid):
    csum = np.concatenate([[0.0], np.cumsum(np.abs(values) ** q)])
    return [float((np.max(csum[L:] - csum[:-L]) / L) ** (1.0 / q)) for L in grid]


def _besicovitch_reference(values, q, grid):
    csum = np.cumsum(np.abs(values) ** q)
    return [float((csum[L - 1] / L) ** (1.0 / q)) for L in grid]


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=200), st.floats(1.0, 8.0), st.data())
@settings(max_examples=60, deadline=None)
def test_profiles_match_separate_pass_definitions(values, q, data):
    values = np.array(values)
    grid = sorted(data.draw(st.sets(st.integers(1, values.size), min_size=1)))
    for profile, reference in ((dg.weyl_profile, _weyl_reference), (dg.besicovitch_profile, _besicovitch_reference)):
        got, want = profile(values, q, grid), reference(values, q, grid)
        assert [repr(v) for v in got.estimates] == [repr(v) for v in want]
        assert repr(got.headline) == repr(want[-1])


@pytest.mark.parametrize(
    "u, q",
    [
        (np.where(np.arange(64) % 3 == 0, -2.0, 2.0), 2000.0),  # each |u|**q overflows
        (np.full(64, 1e307), 1.0),  # each |u|**q is finite, their sum is not
    ],
)
def test_profiles_refuse_overflowing_q_without_warning(u, q):
    grid = [1, 8, 64]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for profile in (dg.weyl_profile, dg.besicovitch_profile):
            with pytest.raises(ConfigError, match=f"q={q}"):
                profile(u, q, grid)


def test_profiles_below_overflow_match_separate_pass_definitions():
    u = np.random.default_rng(3).uniform(-2.0, 2.0, 256)
    grid = [1, 8, 64, 256]
    pairs = ((dg.weyl_profile, _weyl_reference), (dg.besicovitch_profile, _besicovitch_reference))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for profile, reference in pairs:
            got = profile(u, 100.0, grid).estimates
            assert [repr(v) for v in got] == [repr(v) for v in reference(u, 100.0, grid)]


def test_padic_modulus_indicator():
    f = indicator3(256)
    for K in range(0, 7):
        assert dg.padic_modulus(f, CTX2, K) == 1.0


def test_padic_modulus_exact_period():
    # f(n) = xi(n mod 8) is exactly constant on classes mod 8 and beyond
    base = np.array([3.0, -1.0, 2.0, 0.0, 5.0, 5.0, -2.0, 1.0])
    f = np.tile(base, 32)
    assert dg.padic_modulus(f, CTX2, 3) == 0.0
    assert dg.padic_modulus(f, CTX2, 4) == 0.0
    assert dg.padic_modulus(f, CTX2, 0) == pytest.approx(np.ptp(base[0::2]).max())


def test_padic_modulus_linear_bruteforce():
    # f(n) = n: the class of r mod 2**K spans r .. r + m * (count - 1)
    for n_points in (17, 33, 64):
        f = np.arange(float(n_points))
        for K in range(0, 5):
            m = 2**K
            if m >= n_points:
                break
            expected = max(
                (np.max(f[r::m]) - np.min(f[r::m])) for r in range(m)
            )
            assert dg.padic_modulus(f, CTX2, K) == expected


def test_padic_modulus_monotone_in_k():
    rng = np.random.default_rng(3)
    f = rng.standard_normal(512)
    oms = [dg.padic_modulus(f, CTX2, K) for K in range(0, 9)]
    for a, b in zip(oms, oms[1:]):
        assert b <= a + 1e-12


def test_padic_modulus_requires_room():
    with pytest.raises(ValueError):
        dg.padic_modulus(np.arange(8.0), CTX2, 3)


def test_padic_modulus_field_matches_series_when_flat():
    # a field constant along the second axis reduces to the 1-D modulus
    f = np.arange(32.0)
    cube = np.tile(f[:, None], (1, 32))
    got = dg.padic_modulus_field(cube, CTX2, 2)
    want = dg.padic_modulus(f, CTX2, 2)
    assert got == want


def test_padic_modulus_field_exact_period():
    base = np.arange(16.0).reshape(4, 4)
    cube = np.tile(base, (8, 8))
    assert dg.padic_modulus_field(cube, CTX2, 2) == 0.0
    assert dg.padic_modulus_field(cube, CTX2, 1) > 0.0


def test_limit_periodic_approx_examples():
    ctx = CTX2
    base = np.array([1.0, -2.0, 0.5, 3.0])
    f = np.tile(base, 16)
    assert dg.limit_periodic_approx(f, ctx, 2) == 0.0
    # K too coarse leaves a nonzero error, the sup distance to g(n) = f(n mod 1)
    err0 = dg.limit_periodic_approx(f, ctx, 0)
    assert err0 > 0.0
    assert err0 == np.max(np.abs(f - f[np.arange(f.size) % 1]))
    # p**K >= horizon: the periodization is the series itself
    assert dg.limit_periodic_approx(np.arange(10.0), ctx, 4) == 0.0


def test_limit_periodic_error_equals_half_modulus_bound():
    # the best m-periodic approximation errs at most the class range; our
    # representative construction stays within the full modulus
    rng = np.random.default_rng(11)
    f = rng.standard_normal(256)
    for K in (0, 2, 4):
        err = dg.limit_periodic_approx(f, CTX2, K)
        assert err <= dg.padic_modulus(f, CTX2, K) + 1e-12


def test_running_max_example():
    n = np.arange(8)
    f = np.where(n % 2 == 0, 1.0, -1.0) * n
    grid, vals = dg.running_max(f)
    assert grid == (1, 2, 4, 8)
    assert vals.tolist() == [0.0, 1.0, 3.0, 7.0]


def test_running_max_custom_grid_and_monotonicity():
    rng = np.random.default_rng(5)
    f = rng.standard_normal(100)
    grid, vals = dg.running_max(f, [1, 10, 50, 100])
    assert len(vals) == 4
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(np.max(np.abs(f)))
    assert dg.sup_norm(f) == pytest.approx(np.max(np.abs(f)))


def test_running_max_appends_horizon():
    grid, _ = dg.running_max(np.ones(100))
    assert grid[-1] == 100
    assert grid[:-1] == (1, 2, 4, 8, 16, 32, 64)


def test_field_translations_constant():
    cube = np.zeros((9, 9))
    rep = dg.translation_vectors_field(cube, 0.5, 4)
    assert rep.dim == 2
    assert rep.worst_empty_side == 0
    assert rep.covering_side == 0
    assert len(rep.accepted) == 25  # all of {0..4}**2


def test_field_translations_checkerboard():
    # alternating stripes: translations with h0 even work; odd ones break
    n = np.arange(16)
    cube = np.tile(np.where(n % 2 == 0, 1.0, -1.0)[:, None], (1, 16))
    rep = dg.translation_vectors_field(cube, 0.5, 5)
    accepted = set(map(tuple, rep.accepted))
    assert all(h[0] % 2 == 0 for h in accepted)
    assert (2, 1) in accepted and (2, 5) in accepted
    assert rep.covering_side == 1  # every side-1 box contains an even-h0 vector


def test_field_translations_match_bohr_in_1d():
    # broadcast a series along the second axis: the accepted h0 components
    # must reproduce the 1-D Bohr set (plus the trivial zero shift)
    f = indicator3(32)
    rep1 = dg.bohr_translation_set(f, 0.5, 18)
    cube = f[:, None] * np.ones((1, 32))
    rep2 = dg.translation_vectors_field(cube, 0.5, 18)
    h0s = sorted({h[0] for h in rep2.accepted if h[1] == 0})
    assert h0s == [0] + list(rep1.taus)


def test_translate_diff_offsets():
    f = np.arange(10.0)
    u = dg.translate_diff(f, 3)
    assert u.horizon == 7
    assert np.array_equal(u.values, np.full(7, 3.0))
    with pytest.raises(ValueError):
        dg.translate_diff(f, 0)
    with pytest.raises(ValueError):
        dg.translate_diff(f, 10)


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=8, max_size=64), st.integers(1, 6))
@settings(max_examples=40)
def test_modulus_never_below_deeper_level(xs, K):
    f = np.asarray(xs)
    if 2**K >= f.size or 2 ** (K - 1) >= f.size:
        return
    deep = dg.padic_modulus(f, CTX2, K)
    shallow = dg.padic_modulus(f, CTX2, K - 1)
    assert deep <= shallow + 1e-9


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=4, max_size=64))
@settings(max_examples=40)
def test_bohr_gap_bounded_by_accepted_spacing(xs):
    f = np.asarray(xs)
    tau_max = f.size - 1
    rep = dg.bohr_translation_set(f, 1.0, tau_max)
    if rep.taus:
        spac = np.diff(np.concatenate(([0], rep.taus)))
        expected = max(int(spac.max()), tau_max - rep.taus[-1])
        assert rep.max_gap == expected
    else:
        assert rep.max_gap == tau_max + 1


# -- the shift-distance and class-range kernels against brute force ----------


def _box_points(grid):
    return np.array(list(itertools.product(*(range(n) for n in grid.shape))), dtype=np.int64).reshape(-1, grid.ndim)


def brute_shift_distance(grid, h):
    """max |f(n+h) - f(n)| over every point n of the box with n+h in it."""
    pts = _box_points(grid)
    base = pts[np.all(pts + np.asarray(h) < grid.shape[0], axis=1)]
    return float(np.max(np.abs(grid[tuple((base + h).T)] - grid[tuple(base.T)])))


def brute_modulus(grid, modulus):
    """max |f(a) - f(b)| over every pair of box points with a = b mod modulus."""
    pts = _box_points(grid)
    vals = grid[tuple(pts.T)]
    same = np.all((pts[:, None, :] - pts[None, :, :]) % modulus == 0, axis=2)
    return float(np.max(np.abs(vals[:, None] - vals[None, :])[same]))


def brute_covering_side(acc):
    """Smallest L with an accepted vector in every box a + {0..L}**d of the range."""
    n = acc.shape[0]
    for L in range(n):
        corners = itertools.product(range(n - L), repeat=acc.ndim)
        if all(acc[tuple(slice(c, c + L + 1) for c in a)].any() for a in corners):
            return L
    return n


@st.composite
def cubes(draw):
    d = draw(st.integers(1, 3))
    side = draw(st.integers(1, (12, 6, 4)[d - 1]))
    values = draw(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False) | st.sampled_from([0.0, 1.0]),
            min_size=(side + 1) ** d,
            max_size=(side + 1) ** d,
        )
    )
    return np.array(values, dtype=np.float64).reshape((side + 1,) * d)


@given(cubes(), st.sampled_from([CTX2, CTX3]), st.data())
@settings(max_examples=60, deadline=None)
def test_field_kernels_match_brute_force(grid, ctx, data):
    side = grid.shape[0] - 1
    h_max = data.draw(st.integers(0, side), label="h_max")
    dist = dg.translation_distances_field(grid, h_max)
    assert dist.shape == (h_max + 1,) * grid.ndim
    for h in itertools.product(range(h_max + 1), repeat=grid.ndim):
        assert dist[h] == brute_shift_distance(grid, h)

    positive = sorted({float(x) for x in dist.flat if x > 0})
    eps = data.draw(st.sampled_from(positive) if positive else st.just(1.0), label="epsilon")
    rep = dg.translation_vectors_field(grid, eps, h_max)
    acc = dist < eps  # strict: a distance equal to epsilon is rejected
    assert rep.accepted == tuple(tuple(int(c) for c in h) for h in np.argwhere(acc))
    assert rep.covering_side == brute_covering_side(acc)
    assert rep.dim == grid.ndim and rep.h_max == h_max
    # distances over a wider shift range serve every narrower h_max
    wide = dg.translation_distances_field(grid, side)
    assert dg.translation_vectors_field(grid, eps, h_max, distances=wide) == rep
    if h_max > 0:
        with pytest.raises(ValueError, match="fewer shift vectors"):
            dg.translation_vectors_field(grid, eps, h_max, distances=dist[(slice(0, h_max),) * grid.ndim])

    K = 0
    while ctx.p**K <= side:
        assert dg.padic_modulus_field(grid, ctx, K) == brute_modulus(grid, ctx.p**K)
        K += 1
    with pytest.raises(ValueError):
        dg.padic_modulus_field(grid, ctx, K)

    if grid.ndim == 1:
        # the field kernels at d = 1 are the path kernels, bit for bit
        for t in range(1, side + 1):
            assert np.array_equal(dg.translation_distances_field(grid, t)[1:], dg.translate_sup_profile(grid, t))
        for k in range(K):
            assert dg.padic_modulus_field(grid, ctx, k) == dg.padic_modulus(grid, ctx, k)


@st.composite
def class_cases(draw):
    """A prime, a box of values with ties (signed zeros too) and an unsorted K list with repeats."""
    d = draw(st.integers(1, 3))
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2, (40, 12, 6)[d - 1]))
    values = draw(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3) | st.sampled_from([-0.0, 0.0, 1.0, 2.5]),
            min_size=n**d,
            max_size=n**d,
        )
    )
    usable = [K for K in range(n) if p**K < n]
    ks = draw(st.lists(st.sampled_from(usable), min_size=1, max_size=6))
    return PadicContext(p), np.array(values, dtype=np.float64).reshape((n,) * d), ks


@given(class_cases())
@settings(max_examples=60, deadline=None)
def test_modulus_curve_matches_per_k_brute_force(case):
    ctx, grid, ks = case
    n, d = grid.shape[0], grid.ndim
    omegas, errors = dg.modulus_curve(grid, ctx, ks)
    assert len(omegas) == len(errors) == len(ks)
    for K, om, err in zip(ks, omegas, errors):
        m = ctx.p**K
        periodized = grid[np.ix_(*[np.arange(n) % m] * d)]  # g(n) = f(n mod p**K), componentwise
        # repr tells -0.0 from 0.0, so the check is bit for bit
        assert repr(om) == repr(brute_modulus(grid, m))
        assert repr(err) == repr(float(np.max(np.abs(grid - periodized))))
    if d == 1:
        assert dg.modulus_curve(dg.SeriesView(grid), ctx, ks) == (omegas, errors)
        assert [dg.limit_periodic_approx(grid, ctx, K) for K in ks] == errors
    assert dg.modulus_curve(grid, ctx, []) == ([], [])


def test_modulus_curve_refuses_classes_without_pairs():
    with pytest.raises(ValueError, match="admits no pairs inside horizon 8"):
        dg.modulus_curve(dg.SeriesView(np.arange(8.0)), CTX2, [0, 3])
    with pytest.raises(ValueError, match="exceeds box side 3"):
        dg.modulus_curve(np.zeros((4, 4)), CTX2, [2, 1])
    with pytest.raises(ValueError, match="non-negative"):
        dg.modulus_curve(np.arange(8.0), CTX2, [1, -1])


def test_field_distances_validation():
    cube = np.zeros((5, 5))
    with pytest.raises(ValueError, match="cube"):
        dg.translation_distances_field(np.zeros((5, 4)), 2)
    with pytest.raises(ValueError, match="h_max"):
        dg.translation_distances_field(cube, 5)
    with pytest.raises(ValueError, match="exceeds cap"):
        dg.translation_distances_field(np.broadcast_to(0.0, (2049, 2049)), 2048)
    with pytest.raises(ValueError, match="fewer shift vectors"):
        dg.translation_vectors_field(cube, 0.5, 2, distances=np.zeros(3))
    for bad in (np.nan, np.inf, -np.inf):
        hole = cube.copy()
        hole[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            dg.translation_distances_field(hole, 2)
        with pytest.raises(ValueError, match="finite"):
            dg.padic_modulus_field(hole, CTX2, 1)
