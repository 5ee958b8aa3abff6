"""Finite-horizon estimators of almost-periodicity and p-adic continuity.

Every notion in the classical hierarchy gets a concrete estimator on a
finite slice f(0..N-1) of a real sequence:

* Bohr: sup-distance under a shift tau, and the set of tau with distance
  below epsilon together with its worst gap (relative density proxy);
* limit periodicity: the least-residue periodization g(n) = f(n mod p**K)
  and its uniform error;
* Weyl / Besicovitch: windowed q-means of a translate difference, with the
  window either sliding (Weyl, worst window) or anchored at 0 (Besicovitch);
  a q at which the sum of |u|**q overflows float64 raises ConfigError
  naming q, the one rule every caller shares;
* p-adic continuity: the modulus omega(K) = worst |f(n + p**K u) - f(n)|,
  from the per-class (max, min) over residue classes mod p**K.

The sup-distance and the class extrema each have one kernel
(_shift_distances, modulus_curve) that serves sequences and fields over
{0..side}**d alike; modulus_curve gives the modulus and the
limit-periodic error at every K from one pass over the values.

Estimates are exact functions of the input array; the only approximation
relative to the limit notions is the finite horizon, which every report
records.  No randomness enters here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .padic import PadicContext, checked_modulus

# refuse field translation searches over more candidate vectors than this
_ENUM_CAP = 1 << 22


@dataclass(frozen=True)
class SeriesView:
    """A finite slice f(0..N-1) of a sequence, as float64."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"series must be one-dimensional, got shape {arr.shape}")
        if arr.size < 1:
            raise ValueError("series must be nonempty")
        if not np.isfinite(arr).all():
            raise ValueError("series values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def horizon(self) -> int:
        return int(self.values.size)


def _as_series(f) -> SeriesView:
    if isinstance(f, SeriesView):
        return f
    return SeriesView(values=np.asarray(f, dtype=np.float64))


@dataclass(frozen=True)
class TranslationReport:
    """Accepted shift set {tau <= tau_max : sup-distance < epsilon}.

    max_gap includes the boundary gaps from 0 to the first accepted tau and
    from the last accepted tau to tau_max; an empty set reports
    tau_max + 1, so "relatively dense up to the horizon" is monotone in the
    acceptance set and never vacuously small.
    """

    epsilon: float
    tau_max: int
    taus: tuple[int, ...]
    max_gap: int
    horizon: int

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "tau_max": self.tau_max,
            "taus": list(self.taus),
            "max_gap": self.max_gap,
            "horizon": self.horizon,
        }


@dataclass(frozen=True)
class SeminormProfile:
    """Windowed q-mean estimates over a grid of window lengths.

    headline is the value at the largest window, the finite-horizon proxy
    for the limiting seminorm; the full profile is kept so stabilization
    can be inspected instead of extrapolated.
    """

    q: float
    window_grid: tuple[int, ...]
    estimates: tuple[float, ...]
    headline: float
    horizon: int


def translate_diff(f, tau: int) -> SeriesView:
    """The difference sequence u(n) = f(n+tau) - f(n), n = 0..N-1-tau."""
    f = _as_series(f)
    if tau < 1:
        raise ValueError(f"tau must be a positive integer, got {tau}")
    if tau >= f.horizon:
        raise ValueError(f"tau={tau} leaves no pairs inside horizon {f.horizon}")
    v = f.values
    return SeriesView(values=v[tau:] - v[:-tau])


def _shift_distances(values: np.ndarray, h_max: int) -> np.ndarray:
    """max |f(n+h) - f(n)| over in-box pairs, for every h in {0..h_max}**d.

    Entry h of the result holds the distance for shift vector h; entry 0 is
    0.  One scratch buffer serves every shift (subtract, abs and max run in
    place), so the loop allocates nothing per shift.
    """
    shape = values.shape
    out = np.empty((h_max + 1,) * values.ndim, dtype=np.float64)
    scratch = np.empty(values.size, dtype=np.float64)
    for h in itertools.product(range(h_max + 1), repeat=values.ndim):
        overlap = tuple(n - c for n, c in zip(shape, h))
        b = scratch[: math.prod(overlap)].reshape(overlap)
        np.subtract(values[tuple(slice(c, None) for c in h)], values[tuple(slice(None, n) for n in overlap)], out=b)
        np.abs(b, out=b)
        out[h] = b.max()
    return out


def translate_sup_profile(f, tau_max: int) -> np.ndarray:
    """max |f(n+tau) - f(n)| over the horizon for every tau = 1..tau_max, as one array.

    Shared by translation-set queries at many epsilon values; index t-1
    holds the distance for shift t.
    """
    f = _as_series(f)
    if not 1 <= tau_max < f.horizon:
        raise ValueError(f"tau_max must lie in 1..{f.horizon - 1}, got {tau_max}")
    return _shift_distances(f.values, tau_max)[1:]


def bohr_translation_set(f, epsilon: float, tau_max: int, distances: np.ndarray | None = None) -> TranslationReport:
    """Accepted shifts {tau : sup-distance < epsilon} and their gap statistic.

    Acceptance is strict (< epsilon); ties at exactly epsilon are rejected.
    Pass `distances` from translate_sup_profile to amortize over epsilons.
    """
    f = _as_series(f)
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if distances is None:
        distances = translate_sup_profile(f, tau_max)
    elif len(distances) < tau_max:
        raise ValueError("precomputed distances cover fewer shifts than tau_max")
    accepted = tuple(int(t) for t in range(1, tau_max + 1) if distances[t - 1] < epsilon)
    if accepted:
        anchored = (0,) + accepted
        gaps = [b - a for a, b in zip(anchored, anchored[1:])]
        gaps.append(tau_max - accepted[-1])
        max_gap = max(gaps)
    else:
        max_gap = tau_max + 1
    return TranslationReport(
        epsilon=float(epsilon), tau_max=int(tau_max), taus=accepted, max_gap=int(max_gap), horizon=f.horizon
    )


def _window_grid_ok(grid, limit: int) -> tuple[int, ...]:
    grid = tuple(int(L) for L in grid)
    if not grid:
        raise ValueError("window grid must be nonempty")
    if any(L < 1 for L in grid):
        raise ValueError("window lengths must be positive")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("window grid must be strictly increasing")
    if grid[-1] > limit:
        raise ValueError(f"largest window {grid[-1]} exceeds series length {limit}")
    return grid


def _q_mean_profile(u, q: float, window_grid, window_sum) -> SeminormProfile:
    """Per window length L, (window_sum(csum, L) / L)**(1/q), with csum the
    running sums of |u|**q from a leading 0 (csum[L] sums the first L).

    The running sums never decrease, so every window is finite exactly when
    csum[-1] is; if it overflows, ConfigError names q before any window forms.
    """
    u = _as_series(u)
    if not q >= 1:
        raise ValueError(f"q must be at least 1, got {q}")
    grid = _window_grid_ok(window_grid, u.horizon)
    with np.errstate(over="ignore"):
        csum = np.concatenate([[0.0], np.cumsum(np.abs(u.values) ** q)])
    if not np.isfinite(csum[-1]):
        raise ConfigError(f"q={float(q)}: the sum of |u|**q overflows float64; choose a smaller q")
    estimates = tuple(float((window_sum(csum, L) / L) ** (1.0 / q)) for L in grid)
    return SeminormProfile(q=float(q), window_grid=grid, estimates=estimates, headline=estimates[-1], horizon=u.horizon)


def weyl_profile(u, q: float, window_grid) -> SeminormProfile:
    """Worst windowed q-mean of |u| per window length L.

    For each L the estimate is max over starts S of
    ((1/L) sum_{n=S}^{S+L-1} |u(n)|**q)**(1/q); the sliding max is the
    finite-horizon stand-in for the sup over all starts.  Raises
    ConfigError naming q when the sum of |u|**q overflows float64.
    """
    return _q_mean_profile(u, q, window_grid, lambda csum, L: np.max(csum[L:] - csum[:-L]))


def besicovitch_profile(u, q: float, window_grid) -> SeminormProfile:
    """Prefix q-means of |u|, the window anchored at 0; refuses q exactly as weyl_profile does."""
    return _q_mean_profile(u, q, window_grid, lambda csum, L: csum[L])


def padic_modulus(f, ctx: PadicContext, K: int) -> float:
    """omega(K): worst |f(n + p**K u) - f(n)| over in-horizon pairs."""
    return modulus_curve(_as_series(f), ctx, [K])[0][0]


def _cube(grid_values) -> np.ndarray:
    """The values of a FieldPath, or an array over the box {0..side}**d."""
    grid = grid_values.grid() if hasattr(grid_values, "grid") else np.asarray(grid_values, dtype=np.float64)
    if grid.ndim < 1:
        raise ValueError("field must have at least one axis")
    if any(s != grid.shape[0] for s in grid.shape):
        raise ValueError(f"field grid must be a cube, got shape {grid.shape}")
    if not np.isfinite(grid).all():
        raise ValueError("field values must be finite")
    return grid


def padic_modulus_field(grid_values, ctx: PadicContext, K: int) -> float:
    """Field modulus: worst |f(n + p**K m) - f(n)| over in-box pairs, of a FieldPath or a box array."""
    return modulus_curve(grid_values, ctx, [K])[0][0]


def modulus_curve(f, ctx: PadicContext, ks) -> tuple[list[float], list[float]]:
    """omega(K) and the limit-periodic error at every K in ks, in the order of ks.

    `f` is a SeriesView, or a FieldPath or array over the box {0..side}**d
    with componentwise residue classes; each K needs p**K below the points
    per axis.  The class (max, min) is taken once at the largest K and folded
    down, as a class mod p**K is the union of p classes mod p**(K+1) per
    axis.  omega(K) is the largest class range; the error of g(n) =
    f(n mod p**K) is the largest max(hi_r - f(r), f(r) - lo_r), which equals
    max |f(n) - g(n)| bit for bit because rounding is monotone.
    """
    values = f.values if isinstance(f, SeriesView) else _cube(f)
    ks = list(ks)
    if not ks:
        return [], []
    d, n, top = values.ndim, values.shape[0], max(ks)
    modulus = {K: checked_modulus(ctx.p, K) for K in ks}
    if modulus[top] >= n:
        where = f"admits no pairs inside horizon {n}" if isinstance(f, SeriesView) else f"exceeds box side {n - 1}"
        raise ValueError(f"p**K = {modulus[top]} {where}")
    axes = tuple(range(0, 2 * d, 2))
    rows = -(-n // modulus[top])
    pad = [(0, rows * modulus[top] - n)] * d
    hi = np.pad(values, pad, constant_values=-np.inf).reshape((rows, modulus[top]) * d).max(axis=axes)
    lo = np.pad(values, pad, constant_values=np.inf).reshape((rows, modulus[top]) * d).min(axis=axes)
    curve = {}
    for K in range(top, min(ks) - 1, -1):
        m = ctx.p ** K
        if K < top:
            hi = hi.reshape((ctx.p, m) * d).max(axis=axes)
            lo = lo.reshape((ctx.p, m) * d).min(axis=axes)
        if K in modulus:
            at_r = values[(slice(0, m),) * d]
            # abs: both maxima are of absolute differences, so never -0.0
            curve[K] = abs(float(np.max(hi - lo))), abs(float(np.max(np.maximum(hi - at_r, at_r - lo))))
    return [curve[K][0] for K in ks], [curve[K][1] for K in ks]


@dataclass(frozen=True)
class FieldTranslationReport:
    """Accepted translation vectors h in {0..h_max}**d and box-density stats.

    worst_empty_side: the largest box side L such that some box
    a + {0..L}**d inside the tested range contains no accepted vector
    (0 when every box of every side contains one).  covering_side: the
    smallest L such that every such box contains an accepted vector.
    """

    epsilon: float
    h_max: int
    dim: int
    accepted: tuple[tuple[int, ...], ...]
    worst_empty_side: int
    covering_side: int


def _box_all_occupied(acc: np.ndarray, side: int) -> bool:
    """True iff every box a + {0..side}**d inside the index range has a hit.

    Separable windowed sums: along each axis replace counts by sums over
    sliding windows of length side+1 (c[i+w] - c[i] on the cumsum with a
    leading zero).
    """
    window = side + 1
    counts = acc.astype(np.int64)
    for axis in range(acc.ndim):
        if window > counts.shape[axis]:
            raise ValueError(f"window {window} exceeds axis length {counts.shape[axis]}")
        c = np.cumsum(np.moveaxis(counts, axis, 0), axis=0)
        c = np.concatenate([np.zeros_like(c[:1]), c])
        counts = np.moveaxis(c[window:] - c[:-window], 0, axis)
    return bool(np.all(counts > 0))


def translation_distances_field(grid_values, h_max: int) -> np.ndarray:
    """max |f(n+h) - f(n)| over in-box pairs for every h in {0..h_max}**d.

    The field counterpart of translate_sup_profile: entry h holds the
    distance for shift vector h (entry 0 is 0), shared by translation-set
    queries at many epsilon values.
    """
    grid = _cube(grid_values)
    side = grid.shape[0] - 1
    if not 0 <= h_max <= side:
        raise ValueError(f"h_max must lie in 0..{side}, got {h_max}")
    if (h_max + 1) ** grid.ndim > _ENUM_CAP:
        raise ValueError(f"enumerating {(h_max + 1) ** grid.ndim} candidate vectors exceeds cap {_ENUM_CAP}")
    return _shift_distances(grid, h_max)


def translation_vectors_field(
    grid_values, epsilon: float, h_max: int, distances: np.ndarray | None = None
) -> FieldTranslationReport:
    """Accepted translation vectors of a field and the density of their set.

    A vector h in {0..h_max}**d is accepted when
    max |f(n+h) - f(n)| < epsilon over pairs with both points in the box.
    h = 0 is trivially accepted.  The report carries the largest empty box
    side and the smallest covering box side of the accepted set within
    {0..h_max}**d.  Pass `distances` from translation_distances_field to
    amortize over epsilons.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if distances is None:
        distances = translation_distances_field(grid_values, h_max)
    elif distances.ndim != _cube(grid_values).ndim or not 0 <= h_max < min(distances.shape):
        raise ValueError("precomputed distances cover fewer shift vectors than h_max")
    d = distances.ndim
    acc = distances[(slice(0, h_max + 1),) * d] < epsilon

    covering = None
    for L in range(h_max + 1):
        if _box_all_occupied(acc, L):
            covering = L
            break
    if covering is None:
        covering = h_max + 1  # not covered even by the whole tested range
    worst_empty = covering - 1 if covering > 0 else 0

    accepted = tuple(tuple(int(c) for c in h) for h in np.argwhere(acc))
    return FieldTranslationReport(
        epsilon=float(epsilon),
        h_max=int(h_max),
        dim=d,
        accepted=accepted,
        worst_empty_side=int(worst_empty),
        covering_side=int(covering),
    )


def limit_periodic_approx(f, ctx: PadicContext, K: int) -> float:
    """Sup error of the least-residue periodization g(n) = f(n mod p**K).

    The error is 0 when p**K covers the whole horizon, and it never exceeds
    padic_modulus at the same K, because each pair (n, n mod p**K) differs
    by a multiple of p**K.
    """
    f = _as_series(f)
    return 0.0 if checked_modulus(ctx.p, K) >= f.horizon else modulus_curve(f, ctx, [K])[1][0]


def sup_norm(f) -> float:
    """max |f(n)| over the horizon."""
    f = _as_series(f)
    return float(np.max(np.abs(f.values)))


def dyadic_grid(limit: int) -> list[int]:
    """The powers of two 1, 2, 4, ... up to and including `limit`."""
    grid, value = [], 1
    while value <= limit:
        grid.append(value)
        value *= 2
    return grid


def running_max(f, grid=None) -> tuple[tuple[int, ...], np.ndarray]:
    """Prefix maxima M(N') = max_{n < N'} |f(n)| on a dyadic default grid.

    Returns (grid, values).  The default grid is the powers of two up to
    the horizon, with the horizon itself appended when not a power of two.
    """
    f = _as_series(f)
    n = f.horizon
    if grid is None:
        grid = dyadic_grid(n)
        if grid[-1] != n:
            grid.append(n)
    grid = tuple(int(g) for g in grid)
    if any(g < 1 or g > n for g in grid):
        raise ValueError(f"grid entries must lie in 1..{n}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    prefix = np.maximum.accumulate(np.abs(f.values))
    return grid, prefix[np.array(grid, dtype=np.int64) - 1]
