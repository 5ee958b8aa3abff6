"""
Light vs heavy increment tails
==============================

A Pareto increment law with tail index alpha only yields a usable
process for alpha in an explicit window depending on H and q; the
builder enforces the lower edge (finite mean). Inside the window the
process exists but behaves very differently from the Gaussian case:
window averages are dominated by a handful of extreme draws, so their
level is wildly seed-dependent, while the closed-form tail bound on
translate averages holds for every seed.
"""

import numpy as np

from padic_sssi import SymmetricPareto, Gaussian, TreeSpec, lazy_path
from padic_sssi.diagnostics import translate_diff, weyl_profile
from padic_sssi.identity import level_average_B, weyl_tail_bound
from padic_sssi.laws import pareto_alpha_window, validate_law
from padic_sssi.tree import level_values


def main() -> int:
    hurst, q = 0.7, 1.0
    lo, hi = pareto_alpha_window(hurst, q)
    print(f"alpha window for H = {hurst}, q = {q}: ({lo:.3f}, {hi:.3f})")
    issue = validate_law(SymmetricPareto(0.9), for_tree=True)
    print(f"alpha = 0.9 rejected by the builder: {issue.parameter}: {issue.reason}")

    # window means of |X_{n+1} - X_n|: one extreme draw can carry most of
    # the sum, so the level the mean settles at swings across seeds
    horizon = 1 << 13
    print(f"Weyl means of first differences over {horizon} steps, 12 seeds:")
    for name, law in (("gaussian", Gaussian(1.0)), ("pareto(1.25)", SymmetricPareto(1.25))):
        heads = []
        for s in range(12):
            spec = TreeSpec(p=2, hurst=hurst, kmax=14, law=law, seed=9000 + s)
            u = translate_diff(lazy_path(spec, horizon + 1).values, 1)
            heads.append(weyl_profile(u, q=q, window_grid=(horizon,)).headline)
        heads = np.asarray(heads)
        print(f"  {name:13s} median {np.median(heads):6.2f}   "
              f"range {heads.min():6.2f} .. {heads.max():6.2f}")

    # translating by p**K only disturbs levels K and deeper, whose weights
    # sum geometrically; the resulting bound on the translate average is
    # explicit and holds pathwise, heavy tails or not
    spec = TreeSpec(p=2, hurst=hurst, kmax=14, law=SymmetricPareto(1.25), seed=9003)
    # B_{k,q}: the q-mean of level k over its full period
    levels = (level_values(spec, k, np.arange(spec.level_modulus(k))) for k in range(spec.kmax + 1))
    b = [level_average_B(values, q) for values in levels]
    xs = lazy_path(spec, horizon + (1 << 6) + 1).values
    print("translate averages vs closed-form tail bound, pareto(1.25):")
    for K in range(0, 7):
        tau = 2 ** K
        w = weyl_profile(translate_diff(xs, tau), q=q, window_grid=(horizon,)).headline
        bound = weyl_tail_bound(spec, b, K)
        print(f"  K = {K}, tau = {tau:3d}: measured {w:8.4f} <= bound {bound:8.4f}  {w <= bound}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
