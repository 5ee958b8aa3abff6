"""Monte Carlo checks of the distributional identities of the process.

The scaling law says (X_{a n})_n has the law of |a|_p^H (X_n)_n; increment
stationarity says X_{n+l} - X_l has the law of X_n; the sublattice law
says the recentered stride-p**K path has the law of p**(-K H) X.  Each
check simulates the two sides over disjoint, independently derived seed
sets and compares marginals with a two-sample Kolmogorov-Smirnov test at
the 1% level, so the null of equal laws is tested honestly rather than by
construction.

Truncation note for the sublattice law: the simulated left side carries
levels K..Kmax while a fresh simulation of the right side carries levels
0..Kmax.  Reindexing j = k - K shows the left side equals, in law,
p**(-K H) times a tree truncated at Kmax - K.  "matched" mode therefore
truncates the right side to Kmax - K for an exact finite-truncation
identity; "unmatched" mode keeps the full right side and measures the
truncation-induced gap instead.

Deterministic closed forms live here too: the per-level q-means B_{k,q}
and the Weyl tail bound they give for every translate tau in p**K N, and
the exact Gaussian variance of the truncated process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import laws, rng, tree
from .padic import PadicContext
from .tree import TreeSpec

# 1% large-sample two-sample Kolmogorov-Smirnov coefficient:
# threshold = KS_COEFF_1PCT * sqrt((m+n)/(m*n)).
KS_COEFF_1PCT = 1.628

# purpose codes for deriving independent replicate seed sets
_PURPOSE_LEFT = 11
_PURPOSE_RIGHT = 12


def ks_statistic(xs, ys) -> float:
    """Two-sample KS distance sup_t |F_xs(t) - F_ys(t)| via a merged sweep."""
    xs = np.sort(np.asarray(xs, dtype=np.float64))
    ys = np.sort(np.asarray(ys, dtype=np.float64))
    if xs.size == 0 or ys.size == 0:
        raise ValueError("both samples must be nonempty")
    merged = np.concatenate([xs, ys])
    cdf_x = np.searchsorted(xs, merged, side="right") / xs.size
    cdf_y = np.searchsorted(ys, merged, side="right") / ys.size
    return float(np.max(np.abs(cdf_x - cdf_y)))


def ks_threshold_1pct(m: int, n: int) -> float:
    """Large-sample 1% critical value for sample sizes m and n."""
    if m < 1 or n < 1:
        raise ValueError("sample sizes must be positive")
    return KS_COEFF_1PCT * np.sqrt((m + n) / (m * n))


@dataclass(frozen=True)
class IdentityTestReport:
    """Outcome of one two-sample identity check."""

    identity: str
    m: int
    n: int
    statistic: float
    threshold: float
    passed: bool
    params: dict
    seed_count: int

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "m": self.m,
            "n": self.n,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "passed": self.passed,
            "params": self.params,
            "seed_count": self.seed_count,
        }


def _replica_seeds(spec: TreeSpec, purpose: int, count: int, salt: int) -> np.ndarray:
    """Independent 64-bit seeds for `count` replicas of one test side.

    The salt (repetition index) and the replica index share the derivation
    tag, so repeated runs of a test draw disjoint seed material.
    """
    if count < 1:
        raise ValueError("seed count must be positive")
    if not 0 <= salt < (1 << 32):
        raise ValueError(f"salt must fit in 32 bits, got {salt}")
    idx = (np.uint64(salt) << np.uint64(32)) | np.arange(count, dtype=np.uint64)
    return rng.derive_seed(spec.seed, purpose, idx)


def _marginal_sample(spec: TreeSpec, index: int, seeds: np.ndarray) -> np.ndarray:
    """X_index across replica seeds, one simulation per seed, vectorized."""
    return tree.path_values(spec, np.int64(index), seeds=seeds)


def _report(identity: str, left: np.ndarray, right: np.ndarray, params: dict, seeds: int) -> IdentityTestReport:
    d = ks_statistic(left, right)
    thr = ks_threshold_1pct(left.size, right.size)
    return IdentityTestReport(
        identity=identity,
        m=int(left.size),
        n=int(right.size),
        statistic=d,
        threshold=thr,
        passed=bool(d < thr),
        params=params,
        seed_count=seeds,
    )


def scaling_identity_test(spec: TreeSpec, a: int, index: int, seeds: int, repetition: int = 0) -> IdentityTestReport:
    """Compare X_{a n} against |a|_p**H * X_n across independent seed sets."""
    if a < 1:
        raise ValueError(f"a must be a positive integer, got {a}")
    if index < 0:
        raise ValueError(f"index must be non-negative, got {index}")
    ctx = PadicContext(spec.p)
    left_seeds = _replica_seeds(spec, _PURPOSE_LEFT, seeds, repetition)
    right_seeds = _replica_seeds(spec, _PURPOSE_RIGHT, seeds, repetition)
    left = _marginal_sample(spec, a * index, left_seeds)
    scale = float(spec.p) ** (-ctx.valuation(a) * spec.hurst)
    right = scale * _marginal_sample(spec, index, right_seeds)
    return _report(
        "scaling",
        left,
        right,
        params={"a": a, "index": index, "spec": spec.to_dict(), "repetition": repetition},
        seeds=seeds,
    )


def increment_stationarity_test(spec: TreeSpec, shift: int, index: int, seeds: int, repetition: int = 0) -> IdentityTestReport:
    """Compare X_{n+shift} - X_shift against X_n across independent seed sets."""
    if shift < 0 or index < 0:
        raise ValueError("shift and index must be non-negative")
    left_seeds = _replica_seeds(spec, _PURPOSE_LEFT, seeds, repetition)
    right_seeds = _replica_seeds(spec, _PURPOSE_RIGHT, seeds, repetition)
    pair = tree.path_values(
        spec,
        np.array([[index + shift], [shift]], dtype=np.int64),
        seeds=left_seeds[np.newaxis, :],
    )
    left = pair[0] - pair[1]
    right = _marginal_sample(spec, index, right_seeds)
    return _report(
        "stationarity",
        left,
        right,
        params={"shift": shift, "index": index, "spec": spec.to_dict(), "repetition": repetition},
        seeds=seeds,
    )


def sublattice_law_test(
    spec: TreeSpec,
    r: int,
    K: int,
    index: int,
    seeds: int,
    mode: str = "matched",
    repetition: int = 0,
) -> IdentityTestReport:
    """Compare the stride-p**K recentered value against p**(-K H) X_index.

    mode="matched" truncates the right side to kmax - K levels, making the
    two sides exactly equal in law at finite truncation; mode="unmatched"
    keeps the full right side, leaving a gap bounded by the truncation
    tail of the discarded levels.
    """
    if mode not in ("matched", "unmatched"):
        raise ValueError(f"mode must be 'matched' or 'unmatched', got {mode!r}")
    if not 0 <= K <= spec.kmax:
        raise ValueError(f"K must lie in 0..kmax={spec.kmax}, got {K}")
    if r < 0 or index < 0:
        raise ValueError("r and index must be non-negative")
    left_seeds = _replica_seeds(spec, _PURPOSE_LEFT, seeds, repetition)
    right_seeds = _replica_seeds(spec, _PURPOSE_RIGHT, seeds, repetition)

    # left: sum over levels K..kmax of w_k (xi_{k, r+p**K index} - xi_{k, r})
    left = tree.level_sum(spec, tree.keyed_lookup(spec, left_seeds), r + spec.p ** K * index, base=r, k_lo=K)

    right_spec = spec if mode == "unmatched" else TreeSpec(
        p=spec.p, hurst=spec.hurst, kmax=spec.kmax - K, law=spec.law, seed=spec.seed, dim=spec.dim
    )
    scale = float(spec.p) ** (-K * spec.hurst)
    right = scale * _marginal_sample(right_spec, index, right_seeds)
    return _report(
        f"sublattice-{mode}",
        left,
        right,
        params={"r": r, "K": K, "index": index, "mode": mode, "spec": spec.to_dict(), "repetition": repetition},
        seeds=seeds,
    )


def projection_probe_test(
    spec: TreeSpec,
    indices: tuple[int, int],
    weights: tuple[float, float],
    a: int,
    seeds: int,
    repetition: int = 0,
) -> IdentityTestReport:
    """Joint-law probe: compare c1 X_{a n1} + c2 X_{a n2} with |a|_p**H (c1 X_{n1} + c2 X_{n2}).

    A fixed linear functional of a pair of indices; agreement across probes
    is necessary (not sufficient) for the joint scaling identity.
    """
    n1, n2 = (int(i) for i in indices)
    c1, c2 = (float(w) for w in weights)
    if min(n1, n2) < 0 or a < 1:
        raise ValueError("indices must be non-negative and a positive")
    ctx = PadicContext(spec.p)
    left_seeds = _replica_seeds(spec, _PURPOSE_LEFT, seeds, repetition)
    right_seeds = _replica_seeds(spec, _PURPOSE_RIGHT, seeds, repetition)
    pair_l = tree.path_values(spec, np.array([[a * n1], [a * n2]], dtype=np.int64), seeds=left_seeds[np.newaxis, :])
    left = c1 * pair_l[0] + c2 * pair_l[1]
    pair_r = tree.path_values(spec, np.array([[n1], [n2]], dtype=np.int64), seeds=right_seeds[np.newaxis, :])
    scale = float(spec.p) ** (-ctx.valuation(a) * spec.hurst)
    right = scale * (c1 * pair_r[0] + c2 * pair_r[1])
    return _report(
        "projection-probe",
        left,
        right,
        params={
            "indices": [n1, n2],
            "weights": [c1, c2],
            "a": a,
            "spec": spec.to_dict(),
            "repetition": repetition,
        },
        seeds=seeds,
    )


# ---------------------------------------------------------------------------
# deterministic level statistics


def level_average_B(values, q: float) -> float:
    """B_{k,q} = (p**-(k+1) sum_r |xi_{k, r}|**q)**(1/q) over one level's full period of values."""
    if not q >= 1:
        raise ValueError(f"q must be at least 1, got {q}")
    return float(np.mean(np.abs(values) ** q) ** (1.0 / q))


def weyl_tail_bound(spec: TreeSpec, b, K: int) -> float:
    """2 sum_{k=K}^{kmax} p**(-k H) b[k]: Weyl bound for translates in p**K N.

    `b[k]` is the level q-mean B_{k,q} (level_average_B).  For any translate
    tau divisible by p**K, levels below K cancel and each surviving level's
    windowed q-mean is at most 2 B_{k,q}, so this bound dominates the Weyl
    estimate of the translate difference; above kmax no level survives.
    """
    if K < 0:
        raise ValueError(f"K must be non-negative, got {K}")
    return 2.0 * sum(spec.weight(k) * b[k] for k in range(spec.kmax, K - 1, -1))


def gaussian_variance_oracle(spec: TreeSpec, index: int) -> float:
    """Exact Var(X_index) for Gaussian increments at finite truncation.

    Level k contributes 2 sigma**2 p**(-2kH) iff p**(k+1) does not divide
    the index, i.e. for k >= valuation(index); X_0 has variance 0.
    """
    if not isinstance(spec.law, laws.Gaussian):
        raise ValueError(f"oracle applies to Gaussian increments only, got {spec.law!r}")
    if index < 0:
        raise ValueError(f"index must be non-negative, got {index}")
    if index == 0:
        return 0.0
    ctx = PadicContext(spec.p)
    j = min(ctx.valuation(index), spec.kmax + 1)
    sigma2 = spec.law.sigma ** 2
    ratio = float(spec.p) ** (-2.0 * spec.hurst)
    return 2.0 * sigma2 * sum(ratio ** k for k in range(j, spec.kmax + 1))
