"""
Almost periodicity along the hierarchy
======================================

Three ways to measure how close a sequence is to being periodic with
period p**K: the sup-norm modulus over residue classes, the set of
Bohr almost periods, and the error of the best limit-periodic
approximant. A Gaussian path from the simulator shows the modulus
decaying geometrically in K, the signature of limit periodicity.
"""

import numpy as np

from padic_sssi import Gaussian, PadicContext, TreeSpec, lazy_path
from padic_sssi.diagnostics import SeriesView, bohr_translation_set, modulus_curve


def main() -> int:
    # start synthetic: the indicator of multiples of 3 is exactly
    # 3-periodic, so every multiple of 3 is a perfect almost period,
    # while no power of 2 ever synchronizes with it
    n = np.arange(0, 512)
    indicator = SeriesView((n % 3 == 0).astype(float))

    ctx3 = PadicContext(3)
    print("indicator(3 | n):")
    print("  modulus at p = 3:", modulus_curve(indicator, ctx3, range(4))[0])

    report = bohr_translation_set(indicator, epsilon=0.5, tau_max=30)
    print("  Bohr almost periods (eps = 0.5):", list(report.taus))
    print("  largest gap between almost periods:", report.max_gap)

    # a simulated path: the modulus should drop by about p**-H per level;
    # one pass gives the modulus and the limit-periodic error at every K
    ctx2 = PadicContext(2)
    spec = TreeSpec(p=2, hurst=0.7, kmax=14, law=Gaussian(1.0), seed=77)
    xs = SeriesView(lazy_path(spec, 8192).values)
    omega, errors = modulus_curve(xs, ctx2, range(9))
    print("gaussian path, p = 2, H = 0.7:")
    for k, (w, e) in enumerate(zip(omega, errors)):
        print(f"  K = {k}: omega = {w:.4f}, limit-periodic error = {e:.4f}")
    ratios = np.asarray(omega[1:]) / np.asarray(omega[:-1])
    print(f"  mean level ratio {np.mean(ratios):.3f} vs p**-H = {2.0 ** -0.7:.3f}")

    # the limit-periodic approximant at level K is the path folded to
    # period p**K; its sup error is bounded by the modulus at that level
    approx = xs.values[np.arange(xs.horizon) % 16]
    err = float(np.max(np.abs(xs.values - approx)))
    print(f"  level-4 approximant error {err:.4f} == {errors[4]:.4f} <= omega(4) = {omega[4]:.4f}")
    print("  approximant is 16-periodic:", bool(np.array_equal(approx[:16], approx[16:32])))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
