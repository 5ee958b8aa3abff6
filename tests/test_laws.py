"""Increment laws: transforms, closed-form moments, tails, validation."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from padic_sssi import laws, rng
from padic_sssi.laws import Gaussian, Rademacher, SymmetricPareto


def test_pareto_magnitude_example():
    # U = 1/16, alpha = 0.5 -> |xi| = 16**2
    assert laws.pareto_magnitude(1.0 / 16.0, 0.5) == 256.0
    assert laws.pareto_magnitude(1.0, 2.0) == 1.0


def test_mean_abs_closed_forms():
    assert laws.mean_abs(SymmetricPareto(2.0)) == 2.0
    assert laws.mean_abs(Gaussian(1.0)) == pytest.approx(math.sqrt(2.0 / math.pi))
    assert laws.mean_abs(Gaussian(1.0)) == pytest.approx(0.7978845608028654)
    assert laws.mean_abs(Gaussian(3.0)) == pytest.approx(3.0 * math.sqrt(2.0 / math.pi))
    assert laws.mean_abs(Rademacher()) == 1.0
    assert laws.mean_abs(SymmetricPareto(1.5)) == pytest.approx(3.0)


def test_max_abs_bounds_the_extreme_words():
    words = np.array([0, 2**64 - 1], dtype=np.uint64)
    lo, hi = ndtri(rng.uniform_open(words))
    assert (round(lo, 4), round(hi, 4)) == (-8.2924, 8.2095)
    assert laws.max_abs(Gaussian(1.0)) == 8.30
    for law in (Gaussian(3.0), SymmetricPareto(1.5), SymmetricPareto(1.01), Rademacher()):
        drawn = np.abs(laws._transform(law, words, words))
        assert drawn.max() <= laws.max_abs(law) * (1 + 1e-12)
    assert laws.max_abs(SymmetricPareto(1.5)) == pytest.approx(2.0 ** (53 / 1.5))
    assert laws.max_abs(Rademacher()) == 1.0
    assert laws.max_abs(SymmetricPareto(0.05)) == math.inf  # 2**1060


def test_mean_abs_infinite_for_heavy_tail():
    for alpha in (1.0, 0.75, 0.5):
        with pytest.raises(ValueError):
            laws.mean_abs(SymmetricPareto(alpha))


def test_pareto_tail_survival():
    # P(|xi| > t) = t**-alpha for t >= 1; check at t in {2, 8, 32} within
    # three Monte Carlo standard errors over 10**6 draws
    alpha = 1.5
    n = 10**6
    x = laws.keyed_values(SymmetricPareto(alpha), 2024, 1, np.arange(n, dtype=np.int64))
    for t in (2.0, 8.0, 32.0):
        p = t**-alpha
        se = math.sqrt(p * (1 - p) / n)
        observed = float(np.mean(np.abs(x) > t))
        assert abs(observed - p) <= 3 * se, (t, observed, p, se)


def test_pareto_magnitudes_at_least_one():
    x = laws.keyed_values(SymmetricPareto(0.8), 7, 0, np.arange(10**4, dtype=np.int64))
    assert np.all(np.abs(x) >= 1.0)


def test_rademacher_values_and_mean():
    x = laws.keyed_values(Rademacher(), 99, 2, np.arange(10**5, dtype=np.int64))
    assert set(np.unique(x)) == {-1.0, 1.0}
    assert abs(float(np.mean(x))) < 0.02


def test_gaussian_moments():
    x = laws.keyed_values(Gaussian(2.0), 55, 3, np.arange(10**6, dtype=np.int64))
    assert abs(float(np.mean(x))) < 0.01
    assert abs(float(np.std(x)) - 2.0) < 0.01
    assert np.all(np.isfinite(x))


def test_symmetry_of_signed_laws():
    for law in (SymmetricPareto(1.5), Gaussian(1.0)):
        x = laws.keyed_values(law, 11, 4, np.arange(2 * 10**5, dtype=np.int64))
        t = np.median(np.abs(x))
        pos = float(np.mean(x > t))
        neg = float(np.mean(x < -t))
        assert abs(pos - neg) < 0.01


def test_sampling_determinism():
    idx = np.arange(10**4, dtype=np.int64)
    for law in (SymmetricPareto(1.2), Gaussian(0.5), Rademacher()):
        a = laws.keyed_values(law, 31, 5, idx)
        b = laws.keyed_values(law, 31, 5, idx)
        assert np.array_equal(a, b)


def test_keyed_values_broadcast_over_seeds():
    law = Gaussian(1.0)
    seeds = np.arange(10, dtype=np.uint64) + np.uint64(100)
    block = laws.keyed_values(law, seeds, 3, 7)
    singles = np.array([laws.keyed_values(law, int(s), 3, 7) for s in seeds])
    assert np.array_equal(block, singles)
    by_residue = laws.keyed_values(law, 100, 3, np.arange(5, dtype=np.int64))
    assert by_residue.shape == (5,)
    assert by_residue[0] != by_residue[1]


_CHUNK = laws._CHUNK


@pytest.mark.parametrize("law", [SymmetricPareto(1.3), Gaussian(0.7), Rademacher()])
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    level=st.integers(min_value=0, max_value=40),
    offset=st.integers(min_value=0, max_value=2**40),
)
@settings(max_examples=4, deadline=None)
def test_keyed_values_blocks_match_whole_array(law, seed, level, offset):
    # blocked draws must equal one whole-array pass, bit for bit, on both
    # sides of the block size and on the seed-axis shape of projection_probe_test
    seeds = np.uint64(seed) + np.arange(10**4, dtype=np.uint64).reshape(1, -1)
    cases = [(seeds, np.arange(2, dtype=np.int64).reshape(2, 1) + offset)]
    for n in (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7):
        residues = np.arange(3 * n, dtype=np.int64) + offset
        cases += [(seed, residues[:n]), (seed, residues.reshape(3, n))]
    for s, residues in cases:
        expected = laws._transform(law, *rng.uniform_words(s, level, residues, 0))
        with mock.patch.object(rng, "uniform_words", wraps=rng.uniform_words) as spy:
            got = laws.keyed_values(law, s, level, residues)
        lanes = expected.size
        assert spy.call_count == max(1, -(-lanes // _CHUNK)), lanes
        assert got.dtype == np.float64 and got.shape == expected.shape
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), (lanes, got.shape)


def test_json_roundtrip():
    for law in (SymmetricPareto(1.25), Gaussian(2.5), Rademacher()):
        d = laws.law_to_dict(law)
        json.dumps(d)
        assert laws.law_from_dict(d) == law


def test_law_from_dict_rejects_unknown():
    with pytest.raises(ValueError):
        laws.law_from_dict({"variant": "cauchy"})
    with pytest.raises(ValueError):
        laws.law_from_dict({"variant": "pareto"})


def test_validate_law_examples():
    assert laws.validate_law(SymmetricPareto(1.5)) is None
    assert laws.validate_law(SymmetricPareto(1.5), for_tree=True) is None
    assert laws.validate_law(SymmetricPareto(0.75)) is None

    issue = laws.validate_law(SymmetricPareto(0.75), for_tree=True)
    assert issue is not None
    assert issue.parameter == "alpha"
    assert issue.value == 0.75

    issue = laws.validate_law(Gaussian(0.0))
    assert issue is not None
    assert issue.parameter == "sigma"

    assert laws.validate_law(Gaussian(1.0)) is None
    assert laws.validate_law(Rademacher(), for_tree=True) is None

    assert laws.validate_law(SymmetricPareto(-1.0)) is not None
    assert laws.validate_law(SymmetricPareto(float("nan"))) is not None
    assert laws.validate_law(Gaussian(float("inf"))) is not None


def test_require_valid_raises_with_parameter_name():
    with pytest.raises(ValueError) as err:
        laws.require_valid(SymmetricPareto(1.0), for_tree=True)
    assert "alpha" in str(err.value)


def test_pareto_alpha_window():
    lo, hi = laws.pareto_alpha_window(1.0, 1.0)
    assert lo == pytest.approx(0.5)
    assert hi == pytest.approx(1.0)
    lo, hi = laws.pareto_alpha_window(0.7, 1.0)
    assert lo == pytest.approx(1.0 / 1.7)
    assert hi == pytest.approx(1.0 / 0.7)
    assert lo < 1.25 < hi


@given(st.floats(min_value=0.05, max_value=4.0), st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=60)
def test_pareto_magnitude_inverts_tail(alpha, u):
    x = laws.pareto_magnitude(u, alpha)
    assert x >= 1.0
    assert x**-alpha == pytest.approx(u, rel=1e-12)

