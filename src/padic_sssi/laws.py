"""Increment distributions and their addressable samplers.

Three symmetric laws drive the noise layers: a symmetric Pareto law with
tail P(|xi| > t) = t**(-alpha) for t >= 1, a centred Gaussian, and the
Rademacher law on {-1, +1}.  Sampling is keyed: the draw for a given
(seed, level, residue) address is a pure function of the address, via the
counter-based generator in `rng`.

Heavy-tail bookkeeping used elsewhere:

* mean_abs(law) is E|xi| (Pareto requires alpha > 1 for finiteness);
* max_abs(law) is the largest |xi| a keyed draw can return;
* a layered-noise series with Hurst index H converges in an L^q sense for
  the Pareto law precisely when alpha falls in the open window
  (1/(H + 1/q), 1/H), which pareto_alpha_window reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import ndtri

from . import rng


@dataclass(frozen=True)
class SymmetricPareto:
    """Symmetric power-law tail: P(|xi| > t) = t**(-alpha) for t >= 1.

    Construction does not validate; validate_law is the gate, so that a
    malformed description parsed from a config can still be inspected and
    reported with a structured reason.
    """

    alpha: float


@dataclass(frozen=True)
class Gaussian:
    """Centred normal law with standard deviation sigma."""

    sigma: float = 1.0


@dataclass(frozen=True)
class Rademacher:
    """Uniform law on {-1, +1}."""


IncrementLaw = Union[SymmetricPareto, Gaussian, Rademacher]


@dataclass(frozen=True)
class LawIssue:
    """Structured reason a law fails validation."""

    parameter: str
    value: float
    reason: str


def validate_law(law: IncrementLaw, for_tree: bool = False) -> LawIssue | None:
    """Return None if the law is usable, else the blocking issue.

    Checks parameter positivity and finiteness; with for_tree=True it
    additionally requires a finite first absolute moment, which the layered
    construction needs for its truncation bound (Pareto: alpha > 1).
    """
    if isinstance(law, SymmetricPareto):
        alpha = law.alpha
        if not (isinstance(alpha, (int, float)) and math.isfinite(alpha) and alpha > 0):
            return LawIssue("alpha", float(alpha), "tail exponent must be a positive finite number")
        if for_tree and alpha <= 1.0:
            return LawIssue(
                parameter="alpha",
                value=float(alpha),
                reason="E|xi| is infinite for alpha <= 1, so layered simulation has no truncation bound",
            )
        return None
    if isinstance(law, Gaussian):
        sigma = law.sigma
        if not (isinstance(sigma, (int, float)) and math.isfinite(sigma) and sigma > 0):
            return LawIssue("sigma", float(sigma), "standard deviation must be a positive finite number")
        return None
    if isinstance(law, Rademacher):
        return None
    raise TypeError(f"unknown increment law {law!r}")


def require_valid(law: IncrementLaw, for_tree: bool = False) -> None:
    issue = validate_law(law, for_tree=for_tree)
    if issue is not None:
        raise ValueError(f"invalid increment law: {issue.parameter}={issue.value} ({issue.reason})")


def mean_abs(law: IncrementLaw) -> float:
    """E|xi| in closed form; infinite Pareto means raise instead of returning inf."""
    if isinstance(law, SymmetricPareto):
        if law.alpha <= 1.0:
            raise ValueError(f"E|xi| diverges for alpha = {law.alpha} <= 1")
        return law.alpha / (law.alpha - 1.0)
    if isinstance(law, Gaussian):
        return law.sigma * math.sqrt(2.0 / math.pi)
    if isinstance(law, Rademacher):
        return 1.0
    raise TypeError(f"unknown increment law {law!r}")


def max_abs(law: IncrementLaw) -> float:
    """The largest |xi| a keyed draw can return, from the extreme generator words.

    Gaussian: ndtri of uniform_open's extremes is -8.2924 and 8.2095, so
    8.30 sigma bounds every draw.  Pareto: uniform_open_closed's smallest
    value 2**-53 gives 2**(53/alpha), or inf once that overflows float64.
    """
    if isinstance(law, SymmetricPareto):
        return 2.0 ** (53.0 / law.alpha) if 53.0 / law.alpha < 1024 else math.inf
    if isinstance(law, Gaussian):
        return 8.30 * law.sigma
    if isinstance(law, Rademacher):
        return 1.0
    raise TypeError(f"unknown increment law {law!r}")


def pareto_alpha_window(hurst: float, q: float) -> tuple[float, float]:
    """Open interval of tail exponents compatible with L^q layered analysis."""
    if not hurst > 0:
        raise ValueError(f"hurst must be positive, got {hurst}")
    if not q >= 1:
        raise ValueError(f"q must be at least 1, got {q}")
    return 1.0 / (hurst + 1.0 / q), 1.0 / hurst


def law_to_dict(law: IncrementLaw) -> dict:
    """JSON-ready description: {"variant": ..., parameters...}."""
    if isinstance(law, SymmetricPareto):
        return {"variant": "pareto", "alpha": law.alpha}
    if isinstance(law, Gaussian):
        return {"variant": "gaussian", "sigma": law.sigma}
    if isinstance(law, Rademacher):
        return {"variant": "rademacher"}
    raise TypeError(f"unknown increment law {law!r}")


def _parameter(obj: dict, name: str) -> float:
    try:
        return float(obj[name])
    except (TypeError, ValueError):
        raise ValueError(f"law parameter {name!r} must be a number, got {obj[name]!r}") from None


def law_from_dict(obj: dict) -> IncrementLaw:
    if not isinstance(obj, dict) or "variant" not in obj:
        raise ValueError(f"law description must be an object with a 'variant' key, got {obj!r}")
    variant = obj["variant"]
    if variant == "pareto":
        if "alpha" not in obj:
            raise ValueError("pareto law requires 'alpha'")
        return SymmetricPareto(alpha=_parameter(obj, "alpha"))
    if variant == "gaussian":
        if "sigma" not in obj:
            raise ValueError("gaussian law requires 'sigma'")
        return Gaussian(sigma=_parameter(obj, "sigma"))
    if variant == "rademacher":
        return Rademacher()
    raise ValueError(f"unknown law variant {variant!r}")


def pareto_magnitude(u: np.ndarray, alpha: float) -> np.ndarray:
    """Inverse-transform magnitude for uniform u in (0, 1]: u**(-1/alpha)."""
    return np.asarray(u, dtype=np.float64) ** (-1.0 / alpha)


def _transform(law: IncrementLaw, u64: np.ndarray, sign_word: np.ndarray) -> np.ndarray:
    """Fixed word-consumption map from generator output to a sample."""
    if isinstance(law, SymmetricPareto):
        u = rng.uniform_open_closed(u64)
        return rng.signs(sign_word) * pareto_magnitude(u, law.alpha)
    if isinstance(law, Gaussian):
        # open-open uniform keeps ndtri finite; sign word stays unused so the
        # uniform source is identical across laws at the same address.
        return law.sigma * ndtri(rng.uniform_open(u64))
    if isinstance(law, Rademacher):
        return rng.signs(sign_word)
    raise TypeError(f"unknown increment law {law!r}")


# Lanes per block of a wide keyed draw.  Philox keeps about six live uint64
# buffers per lane, so 2**14 lanes hold ~0.8 MiB and stay within a 2 MiB L2;
# much smaller blocks lose to per-call overhead.
_CHUNK = 1 << 14


def keyed_values(law: IncrementLaw, seed, level, residue) -> np.ndarray:
    """Sample xi at addresses (seed, level, residue); arguments broadcast.

    The residue axis and the seed axis can each be vectorized: pass an array
    of residues with a scalar seed to fill one noise layer, or an array of
    seeds with a scalar residue to sample many independent replicas of one
    layer entry.  Draws wider than _CHUNK lanes are computed in flat blocks
    of _CHUNK lanes; every value is elementwise in its address, so no value
    depends on the block size.
    """
    shape = np.broadcast_shapes(np.shape(seed), np.shape(level), np.shape(residue))
    size = math.prod(shape)
    if size <= _CHUNK:
        u64, sw = rng.uniform_words(seed, level, residue, 0)
        return _transform(law, u64, sw)
    args = [
        np.broadcast_to(a, shape).reshape(-1) if np.size(a) > 1 else np.reshape(a, ())
        for a in (seed, level, residue)
    ]
    out = np.empty(size, dtype=np.float64)
    for lo in range(0, size, _CHUNK):
        block = slice(lo, lo + _CHUNK)
        u64, sw = rng.uniform_words(*(a[block] if a.ndim else a for a in args), 0)
        out[block] = _transform(law, u64, sw)
    return out.reshape(shape)
