"""Acceptance suite: one test per advertised capability guarantee.

Each criterion prints a single [acceptance] PASS/FAIL line (visible with
pytest -s, or via the test verdicts themselves under pytest -v) and then
asserts.  Probe points and Monte Carlo seeds all derive from one
pre-registered master seed; nothing here was tuned after observing
outcomes.
"""

import time

import numpy as np
import pytest

from padic_sssi import diagnostics as dg, identity, rng, scenarios, tree
from padic_sssi.laws import Gaussian, Rademacher, SymmetricPareto
from padic_sssi.padic import PadicContext, valuation_array
from padic_sssi.tree import TreeSpec

MASTER = 20260816  # fixed before any acceptance outcome was observed

# seed-derivation purposes reserved for this suite
_P_CANCEL = 40
_P_VARIANCE = 41
_P_INVARIANT = 42


def _line(cid: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {cid}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_1_arithmetic_suite():
    """Valuation multiplicativity + ultrametric, exhaustive n,m <= 10**4."""
    t0 = time.perf_counter()
    n_top = 10**4
    chunk = 1024
    m32 = np.arange(1, n_top + 1, dtype=np.int32)  # n*m <= 1e8 fits int32
    ok = True
    for p in (2, 3, 5):
        vm = valuation_array(m32, p).astype(np.int32)
        vsum = valuation_array(np.arange(2, 2 * n_top + 1, dtype=np.int64), p).astype(np.int32)
        ptab = np.power(np.int64(p), np.arange(2 * int(vm.max()) + 1)).astype(np.int32)
        # exact decomposition n = p**v(n) * pfree(n), certified elementwise
        pfree = m32 // ptab[vm]
        if not (np.all(ptab[vm] * pfree == m32) and np.all(pfree % p != 0)):
            ok = False
        for lo in range(0, n_top, chunk):
            n_free = pfree[lo : lo + chunk]
            vn = vm[lo : lo + chunk][:, None]
            # v(nm) = v(n) + v(m) iff the p-free parts multiply p-free;
            # nm = p**(vn+vm) * (pfree(n) pfree(m)) holds exactly by the
            # certified decomposition, so only the residue check remains
            if np.any((n_free[:, None] * pfree[None, :]) % p == 0):
                ok = False
            vs = vsum[(m32[lo : lo + chunk, None].astype(np.int64) + m32[None, :]) - 2]
            floor = np.minimum(vn, vm[None, :])
            if not np.all(vs >= floor):
                ok = False
            neq = vn != vm[None, :]
            if not np.all(vs[neq] == floor[neq]):
                ok = False
    dt = time.perf_counter() - t0
    ok = ok and dt < 10.0
    _line("1", ok, f"exhaustive pairwise invariants for p in (2,3,5), n,m <= 1e4 in {dt:.1f}s (< 10s)")
    assert ok


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_2_exact_cancellation():
    """Shallow levels cancel exactly on p**K sublattices."""
    t0 = time.perf_counter()
    seed = int(rng.derive_seed(MASTER, _P_CANCEL, 0))
    spec = TreeSpec(p=2, hurst=0.5, kmax=12, law=Gaussian(1.0), seed=seed)
    levels = tree.build_levels(spec)
    horizon = 4096
    x = tree.lazy_path(spec, horizon).values
    probe = np.random.default_rng(MASTER)
    worst = 0.0
    for K in range(0, 9):
        pk = 2**K
        for _ in range(200):
            r = int(probe.integers(0, horizon))
            u_cap = (horizon - 1 - r) // pk
            u = int(probe.integers(0, u_cap + 1)) if u_cap > 0 else 0
            direct = x[r + pk * u] - x[r]
            # the k >= K sum over the dense levels: no lower level enters
            sub = float(tree.level_sum(spec, lambda k, res: levels[k][res], r + pk * u, base=r, k_lo=K))
            worst = max(worst, abs(direct - sub))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 30.0
    _line("2", ok, f"max |direct - sublattice| = {worst:.3e} (<= 1e-9) over K<=8 x 200 pairs in {dt:.1f}s (< 30s)")
    assert ok


# -- criterion 3 ---------------------------------------------------------------


def test_criterion_3_gaussian_variance_law():
    """Sample variances track the exact Gaussian oracle within 5%."""
    t0 = time.perf_counter()
    spec = TreeSpec(p=2, hurst=0.7, kmax=14, law=Gaussian(1.0), seed=MASTER)
    seeds = rng.derive_seed(MASTER, _P_VARIANCE, np.arange(10**4, dtype=np.uint64))
    indices = np.array([1, 2, 3, 4, 8], dtype=np.int64)
    vals = tree.path_values(spec, indices[:, None], seeds=seeds[None, :])
    sample_var = vals.var(axis=1)
    ok = True
    details = []
    for n, sv in zip(indices, sample_var):
        want = identity.gaussian_variance_oracle(spec, int(n))
        rel = abs(sv - want) / want
        details.append(f"n={n}: {rel*100:.2f}%")
        if rel > 0.05:
            ok = False
    ratio = sample_var[1] / sample_var[0]
    want_ratio = 2.0 ** (-2.0 * 0.7)
    rel_ratio = abs(ratio - want_ratio) / want_ratio
    if rel_ratio > 0.05:
        ok = False
    dt = time.perf_counter() - t0
    ok = ok and dt < 120.0
    _line(
        "3",
        ok,
        f"Var rel errors {', '.join(details)}; Var(X_2)/Var(X_1) off by {rel_ratio*100:.2f}% (<= 5%) in {dt:.1f}s (< 2min)",
    )
    assert ok


# -- criterion 4 ---------------------------------------------------------------


def test_criterion_4_sublattice_law_monte_carlo():
    """Matched-truncation sublattice law: >= 95 of 100 repetitions per combo."""
    t0 = time.perf_counter()
    spec = TreeSpec(p=2, hurst=0.7, kmax=10, law=Gaussian(1.0), seed=MASTER)
    ok = True
    counts = []
    for r in (0, 1):
        for K in (1, 2):
            for u in (1, 3):
                passes = 0
                for j in range(100):
                    rep = identity.sublattice_law_test(spec, r, K, u, 10**4, mode="matched", repetition=j)
                    passes += int(rep.passed)
                counts.append(f"(r={r},K={K},u={u}): {passes}/100")
                if passes < 95:
                    ok = False
    dt = time.perf_counter() - t0
    _line("4", ok, f"{'; '.join(counts)} below-threshold rates (need >= 95/100 each) in {dt:.0f}s")
    assert ok


# -- criterion 5 ---------------------------------------------------------------


@pytest.fixture(scope="module")
def theorem_5_2_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("t52")
    t0 = time.perf_counter()
    cfg = scenarios.resolve_config({"scenario": "theorem-5-2", "out_dir": str(out)})
    code, payload = scenarios.run_scenario(cfg, check=False)
    dt = time.perf_counter() - t0
    assert code == 0
    results = payload["results"]
    results["elapsed"] = dt
    return results


def test_criterion_5a_weyl_collapse(theorem_5_2_results):
    r = theorem_5_2_results
    n = r["replicates"]
    a = r["tail_bound_decrease_and_weyl_ratio_pass"]
    ok = a >= 0.8 * n and r["elapsed"] < 600.0
    _line(
        "5a",
        ok,
        f"tail bound strictly decreasing + Weyl headline ratio >= 4: {a}/{n} seeds (need >= 16); "
        f"scenario ran in {r['elapsed']:.0f}s (< 10min), proxy mode {r['mode']['proxy']}",
    )
    assert ok


def test_criterion_5b_running_max_growth(theorem_5_2_results):
    # Honest expectation management: with the integrable proxy tail
    # (alpha = 1.25, H = 0.7) the desk-scale max-growth exponent is
    # 1/alpha - H = 0.1, so M(2**18)/M(2**10) doubles for only ~40% of
    # seeds.  The requested rate belongs to the blocked alpha = 0.75
    # regime; this check reports the shortfall rather than masking it.
    r = theorem_5_2_results
    n = r["replicates"]
    b = r["running_max_growth_pass"]
    ok = b >= 0.8 * n
    _line("5b", ok, f"running max M(2**18) > 2*M(2**10): {b}/{n} seeds (need >= 16)")
    assert ok


def test_criterion_5c_modulus_persistence(theorem_5_2_results):
    r = theorem_5_2_results
    n = r["replicates"]
    c = r["modulus_persistence_pass"]
    ok = c >= 0.8 * n
    _line("5c", ok, f"omega(8) >= 0.5*omega(0): {c}/{n} seeds (need >= 16)")
    assert ok


# -- criterion 6 ---------------------------------------------------------------


def test_criterion_6_gaussian_equivalence(tmp_path):
    cfg = scenarios.resolve_config({"scenario": "equivalence", "out_dir": str(tmp_path)})
    code, payload = scenarios.run_scenario(cfg, check=True)
    r = payload["results"]
    decay = r["gaussian_modulus_decay_pass"]
    gaps = r["gap_violations"]
    ok = code == 0 and decay >= 16 and not gaps
    _line(
        "6",
        ok,
        f"omega(8) <= 0.1*omega(0) in {decay}/20 Gaussian seeds (need >= 16); "
        f"Bohr max_gap <= 2**K violations: {len(gaps)}",
    )
    assert ok


# -- criterion 7 ---------------------------------------------------------------


def _synthetic_suite() -> list[tuple[str, np.ndarray, int]]:
    n = np.arange(1024)
    noise = np.random.default_rng(MASTER).standard_normal(1024)
    return [
        ("indicator3", (n % 3 == 0).astype(float), 2),
        ("constant", np.ones(1024), 2),
        ("alternating", np.where(n % 2 == 0, 1.0, -1.0), 2),
        ("ramp", n / 1024.0, 2),
        ("spike", (n == 0).astype(float), 2),
        ("sine", np.sin(0.37 * n), 2),
        ("square8", np.where(n % 8 < 4, 1.0, -1.0), 2),
        ("indicator9", (n % 9 == 0).astype(float), 3),
        ("decay", 0.99**n, 2),
        ("noise", noise, 2),
    ]


def _random_paths(count: int) -> list[tuple[str, np.ndarray, int]]:
    primes = (2, 3, 5)
    laws = (Gaussian(1.0), SymmetricPareto(1.25), SymmetricPareto(1.5), Rademacher())
    hursts = (0.5, 0.7, 0.9, 1.2)
    out = []
    for i in range(count):
        p = primes[i % 3]
        law = laws[i % 4]
        hurst = hursts[i % 4]
        kmax = 4 + (i % 6)
        seed = int(rng.derive_seed(MASTER, _P_INVARIANT, i))
        spec = TreeSpec(p=p, hurst=hurst, kmax=kmax, law=law, seed=seed)
        x = tree.lazy_path(spec, 1024).values
        out.append((f"path{i}(p={p})", x, p))
    return out


def test_criterion_7_diagnostics_invariants():
    violations = []
    tau_max = 64
    for name, f, p in _random_paths(50) + _synthetic_suite():
        ctx = PadicContext(p)
        horizon = f.size
        view = dg.SeriesView(f)
        oms = []
        K = 0
        while p**K < horizon and K <= 8:
            oms.append(dg.padic_modulus(view, ctx, K))
            err = dg.limit_periodic_approx(view, ctx, K)
            if err > oms[-1] + 1e-12:
                violations.append(f"{name}: limit-periodic error {err} > modulus {oms[-1]} at K={K}")
            K += 1
        for a, b in zip(oms, oms[1:]):
            if b > a + 1e-12:
                violations.append(f"{name}: modulus not monotone ({b} > {a})")
        grid = [L for L in (1, 4, 16, 64, 256, 1024) if L <= horizon]
        for q in (1.0, 2.0):
            w = dg.weyl_profile(view, q, grid).estimates
            bsc = dg.besicovitch_profile(view, q, grid).estimates
            for L, wv, bv in zip(grid, w, bsc):
                if bv > wv + 1e-12:
                    violations.append(f"{name}: Besicovitch {bv} > Weyl {wv} at L={L}, q={q}")
        eps = 0.5 * (dg.sup_norm(view) + 1e-9)
        rep = dg.bohr_translation_set(view, eps, tau_max)
        accepted = set(rep.taus)
        for tau in range(1, tau_max + 1):
            d = float(np.max(np.abs(f[tau:] - f[:-tau])))
            if (d < eps) != (tau in accepted):
                violations.append(f"{name}: Bohr acceptance mismatch at tau={tau}")
    ok = not violations
    _line("7", ok, f"{len(violations)} violations over 50 simulated paths + 10 synthetic sequences (need 0)")
    assert ok, violations[:10]


# -- criterion 8 ---------------------------------------------------------------


def test_criterion_8_indicator_exact_values():
    n = np.arange(8192)
    f = dg.SeriesView((n % 3 == 0).astype(np.float64))
    ctx = PadicContext(2)
    oms = {K: dg.padic_modulus(f, ctx, K) for K in range(13)}
    exact = all(om == 1.0 for om in oms.values())
    rep = dg.bohr_translation_set(f, 0.5, 48)
    gap_ok = rep.max_gap == 3 and rep.taus == tuple(range(3, 49, 3))
    ok = exact and gap_ok
    _line("8", ok, f"omega(K) == 1.0 bit-exact for K <= 12: {exact}; Bohr max_gap at eps=0.5 == 3: {gap_ok}")
    assert ok


# -- criterion 9 ---------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = scenarios.resolve_config({"scenario": "identity-suite", "out_dir": str(out)})
        code, _ = scenarios.run_scenario(cfg, check=False)
        assert code == 0
        outs.append(out)
    a = (outs[0] / "identities.csv").read_bytes()
    b = (outs[1] / "identities.csv").read_bytes()
    ok = a == b
    _line("9", ok, f"two identity-suite runs: identities.csv byte-identical = {ok} ({len(a)} bytes)")
    assert ok
