"""Distributional identity tests and their analytic ingredients."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_sssi import identity, tree
from padic_sssi.errors import ConfigError
from padic_sssi.laws import Gaussian, Rademacher, SymmetricPareto
from padic_sssi.padic import PadicContext
from padic_sssi.tree import TreeSpec


def make_spec(p=2, hurst=0.7, kmax=8, law=None, seed=321, dim=1):
    return TreeSpec(p=p, hurst=hurst, kmax=kmax, law=law or Gaussian(1.0), seed=seed, dim=dim)


# -- two-sample statistic ----------------------------------------------------


def test_ks_statistic_examples():
    assert identity.ks_statistic([0.0, 1.0], [0.5]) == 0.5
    assert identity.ks_statistic([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert identity.ks_statistic([0.0, 0.0], [1.0, 1.0]) == 1.0


def test_ks_statistic_symmetry_and_shuffle_invariance():
    rng = np.random.default_rng(0)
    xs = rng.standard_normal(257)
    ys = rng.standard_normal(300) + 0.3
    d1 = identity.ks_statistic(xs, ys)
    d2 = identity.ks_statistic(ys, xs)
    assert d1 == d2
    d3 = identity.ks_statistic(rng.permutation(xs), rng.permutation(ys))
    assert d3 == d1


def test_ks_statistic_monotone_transform_invariance():
    rng = np.random.default_rng(1)
    xs = rng.standard_normal(200)
    ys = rng.standard_normal(150) * 2
    d_raw = identity.ks_statistic(xs, ys)
    g = np.tanh  # strictly increasing
    d_mapped = identity.ks_statistic(g(xs), g(ys))
    assert d_mapped == pytest.approx(d_raw, abs=1e-15)


def test_ks_threshold_value():
    assert identity.ks_threshold_1pct(100, 100) == pytest.approx(1.628 * math.sqrt(0.02))
    assert identity.ks_threshold_1pct(10**4, 10**4) == pytest.approx(1.628 * math.sqrt(2.0 / 10**4))


@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=60),
    st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=60),
)
@settings(max_examples=40)
def test_ks_statistic_matches_bruteforce(xs, ys):
    xs, ys = np.asarray(xs), np.asarray(ys)
    ts = np.concatenate([xs, ys])
    brute = max(
        abs(np.mean(xs <= t) - np.mean(ys <= t)) for t in ts
    )
    assert identity.ks_statistic(xs, ys) == pytest.approx(brute, abs=1e-12)


# -- level averages and Weyl tail bound --------------------------------------


def test_level_average_rademacher_is_one():
    levels = tree.build_levels(make_spec(kmax=6, law=Rademacher()))
    for k in range(7):
        for q in (1.0, 2.0, 5.0):
            assert identity.level_average_B(levels[k], q) == 1.0
    with pytest.raises(ValueError, match="q"):
        identity.level_average_B(levels[0], 0.5)


def test_level_average_gaussian_homogeneity():
    a = tree.build_levels(make_spec(kmax=4, law=Gaussian(1.0), seed=9))
    b = tree.build_levels(make_spec(kmax=4, law=Gaussian(2.0), seed=9))
    for k in range(5):
        assert identity.level_average_B(b[k], 1.0) == pytest.approx(2.0 * identity.level_average_B(a[k], 1.0))


def test_level_average_refuses_overflowing_q_without_warning():
    values = tree.build_levels(make_spec(kmax=3, law=Gaussian(1.0), seed=4))[3]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="q=2000.0"):
            identity.level_average_B(np.full(16, 2.0), 2000.0)  # 2**2000 overflows
        with pytest.raises(ConfigError, match="q=1.0"):
            identity.level_average_B(np.full(16, 1e308), 1.0)  # each term is finite, their sum is not
        want = float(np.mean(np.abs(values) ** 100.0) ** (1.0 / 100.0))
        assert repr(identity.level_average_B(values, 100.0)) == repr(want)


def level_averages(spec, q):
    return [identity.level_average_B(arr, q) for arr in tree.build_levels(spec)]


def test_weyl_tail_bound_rademacher_closed_form():
    # B_k = 1 for all k, so the bound telescopes to 2 * sum_k 2**-k
    spec = make_spec(kmax=10, hurst=1.0, law=Rademacher())
    b = level_averages(spec, 1.0)
    assert identity.weyl_tail_bound(spec, b, 0) == pytest.approx(3.998046875)
    # closed form at every cut; above kmax no level survives
    for K in range(11):
        want = 2.0 * sum(2.0**-k for k in range(K, 11))
        assert identity.weyl_tail_bound(spec, b, K) == pytest.approx(want)
    assert identity.weyl_tail_bound(spec, b, 11) == 0.0
    with pytest.raises(ValueError, match="K"):
        identity.weyl_tail_bound(spec, b, -1)


def test_weyl_tail_bound_monotone_in_cut_and_hurst():
    spec = make_spec(kmax=8, hurst=0.7, law=SymmetricPareto(1.25))
    b = level_averages(spec, 1.0)
    bounds = [identity.weyl_tail_bound(spec, b, K) for K in range(9)]
    for x, y in zip(bounds, bounds[1:]):
        assert y < x
    lo = make_spec(kmax=8, hurst=0.5, law=Rademacher())
    hi = make_spec(kmax=8, hurst=1.5, law=Rademacher())
    assert identity.weyl_tail_bound(hi, level_averages(hi, 1.0), 0) < identity.weyl_tail_bound(
        lo, level_averages(lo, 1.0), 0
    )


# -- Gaussian variance oracle -------------------------------------------------


def test_variance_oracle_values():
    spec = make_spec(p=2, hurst=0.7, kmax=6, law=Gaussian(1.0))
    # independent evaluation of 2 sum_{k=j}^{6} 2**(-1.4 k) at j = 0
    want = 2.0 * sum(2.0 ** (-1.4 * k) for k in range(7))
    got = identity.gaussian_variance_oracle(spec, 1)
    assert got == pytest.approx(want)
    assert got == pytest.approx(3.2166320824660577)
    assert identity.gaussian_variance_oracle(spec, 0) == 0.0
    assert identity.gaussian_variance_oracle(spec, 3) == got  # v_2(3) = 0


def test_variance_oracle_tracks_padic_norm():
    spec = make_spec(p=2, hurst=0.7, kmax=20, law=Gaussian(1.0))
    v1 = identity.gaussian_variance_oracle(spec, 1)
    # with deep truncation, Var(X_{2**j}) ~ |2**j|_p**(2H) * Var(X_1)
    for j in (1, 2, 3):
        vj = identity.gaussian_variance_oracle(spec, 2**j)
        exact = 2.0 ** (-1.4 * j) * (
            sum(2.0 ** (-1.4 * k) for k in range(0, 21 - j))
            / sum(2.0 ** (-1.4 * k) for k in range(21))
        )
        assert vj / v1 == pytest.approx(2.0 ** (-1.4 * j) * exact / 2.0 ** (-1.4 * j))
        assert vj / v1 == pytest.approx(2.0 ** (-1.4 * j), rel=0.01)  # truncation is deep


def test_variance_oracle_sigma_scaling_and_guards():
    s1 = make_spec(kmax=5, law=Gaussian(1.0))
    s3 = make_spec(kmax=5, law=Gaussian(3.0))
    assert identity.gaussian_variance_oracle(s3, 5) == pytest.approx(
        9.0 * identity.gaussian_variance_oracle(s1, 5)
    )
    with pytest.raises(ValueError):
        identity.gaussian_variance_oracle(make_spec(law=Rademacher()), 1)
    with pytest.raises(ValueError):
        identity.gaussian_variance_oracle(s1, -2)


def test_variance_oracle_against_monte_carlo():
    spec = make_spec(p=2, hurst=0.7, kmax=6, law=Gaussian(1.0), seed=505)
    seeds = identity._replica_seeds(spec, 31, 4000, 0)
    vals = tree.path_values(spec, np.array([1]), seeds=seeds).ravel()
    mc = float(np.var(vals))
    want = identity.gaussian_variance_oracle(spec, 1)
    se = want * math.sqrt(2.0 / 4000)
    assert abs(mc - want) <= 4 * se


# -- Monte Carlo identity tests ----------------------------------------------


def test_scaling_identity_passes():
    spec = make_spec(kmax=10, hurst=0.7, law=Gaussian(1.0), seed=2024)
    rep = identity.scaling_identity_test(spec, 2, 1, 4000)
    assert rep.identity == "scaling"
    assert rep.m == rep.n == 4000
    assert rep.passed
    assert rep.statistic < rep.threshold
    assert rep.params["a"] == 2


def test_scaling_identity_json_and_repetition():
    spec = make_spec(kmax=8, law=SymmetricPareto(1.5), seed=11)
    r0 = identity.scaling_identity_test(spec, 2, 3, 1500, repetition=0)
    r1 = identity.scaling_identity_test(spec, 2, 3, 1500, repetition=1)
    assert r0.statistic != r1.statistic  # fresh replica seeds
    payload = r0.to_dict()
    assert payload["identity"] == "scaling"
    assert payload["passed"] is True


def test_scaling_identity_catches_wrong_exponent():
    # deliberately feeding a != p**j scalings that the law does not satisfy
    # is outside the contract; instead corrupt the comparison by scaling
    # the index with an extra factor and verify the statistic blows up
    spec = make_spec(kmax=10, hurst=0.7, law=Gaussian(1.0), seed=2024)
    seeds = 4000
    left = identity._marginal_sample(spec, 4, identity._replica_seeds(spec, 11, seeds, 0))
    wrong_scale = float(spec.p) ** (-0.1) * identity._marginal_sample(
        spec, 1, identity._replica_seeds(spec, 12, seeds, 0)
    )
    d = identity.ks_statistic(left, wrong_scale)
    assert d > identity.ks_threshold_1pct(seeds, seeds)


def test_stationarity_identity_passes():
    spec = make_spec(kmax=9, hurst=0.6, law=Gaussian(1.0), seed=77)
    for shift in (1, 4):
        rep = identity.increment_stationarity_test(spec, shift, 2, 3000)
        assert rep.passed, (shift, rep.statistic, rep.threshold)


def test_stationarity_full_period_shift_exact():
    # shifting by the full tree period reuses every residue: X_{n+m} - X_m
    # equals X_n pathwise, not just in law
    spec = make_spec(kmax=3, hurst=0.8, law=Gaussian(1.0), seed=13)
    period = spec.p ** (spec.kmax + 1)
    x = tree.lazy_path(spec, period + 10).values
    for n in range(1, 10):
        assert x[n + period] - x[period] == pytest.approx(x[n], abs=1e-12)


def test_sublattice_matched_passes_and_unmatched_diverges():
    spec = make_spec(kmax=10, hurst=0.7, law=Gaussian(1.0), seed=500)
    matched = identity.sublattice_law_test(spec, 0, 2, 1, 4000, mode="matched")
    assert matched.passed
    assert matched.params["mode"] == "matched"
    # unmatched truncation keeps extra shallow levels on the right, which
    # shows up as a distributional mismatch at this sample size
    unmatched = identity.sublattice_law_test(spec, 0, 2, 1, 4000, mode="unmatched")
    assert unmatched.statistic > matched.statistic


def test_sublattice_rejects_bad_mode():
    spec = make_spec(kmax=4)
    with pytest.raises(ValueError):
        identity.sublattice_law_test(spec, 0, 1, 1, 100, mode="bogus")
    with pytest.raises(ValueError):
        identity.sublattice_law_test(spec, 0, spec.kmax + 1, 1, 100)


def test_projection_probe_passes():
    spec = make_spec(kmax=10, hurst=0.7, law=Gaussian(1.0), seed=321)
    rep = identity.projection_probe_test(spec, (1, 3), (1.0, 0.5), 2, 4000)
    assert rep.identity == "projection-probe"
    assert rep.passed


def test_replica_seed_isolation():
    spec = make_spec()
    a = identity._replica_seeds(spec, 11, 100, 0)
    b = identity._replica_seeds(spec, 12, 100, 0)
    c = identity._replica_seeds(spec, 11, 100, 1)
    assert len(set(map(int, a)) | set(map(int, b)) | set(map(int, c))) == 300


def test_report_threshold_formula():
    spec = make_spec(kmax=6, seed=40)
    rep = identity.scaling_identity_test(spec, 2, 1, 500)
    assert rep.threshold == pytest.approx(1.628 * math.sqrt(2.0 / 500))
