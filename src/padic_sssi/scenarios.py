"""Named experiment pipelines over the simulator and diagnostics.

Each scenario maps one facet of the theory onto concrete tables:

* hierarchy-demo: deterministic sequences (a divisibility indicator,
  periodic and spiky controls) through every diagnostic, showing how the
  almost-periodicity notions separate on concrete data;
* equivalence: Gaussian-driven trees are p-adically continuous at desk
  scale (modulus decay, limit-periodic error decay, dense Bohr sets) while
  heavy-tailed trees are not;
* theorem-5-2: the heavy-tail dichotomy; translate seminorms collapse on
  the p**K sublattices while the path remains rough and its running max
  keeps growing;
* identity-suite: Monte Carlo scaling / stationarity / sublattice-law
  checks over a parameter grid;
* field-demo: the two-dimensional field analogues of modulus decay and
  translation-vector density.

Each scenario has one table of the config keys its runner reads, with
their defaults (DEFAULTS); a config naming any other key is refused.
A runner only computes: it returns its fixed-schema CSV tables, its
summary and its check failures, and run_scenario hands them to
write_outputs, the one function that writes, together with a
summary.json embedding the resolved config and package version.
Identical configs produce byte-identical outputs; replicate work is fanned
out to a thread pool whose results are consumed in submission order.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path as FsPath

import numpy as np

from . import __version__, diagnostics as dg, identity, laws, rng, tree
from .errors import ConfigError
from .padic import PadicContext
from .tree import TreeSpec

_PURPOSE_REPLICA = 21  # seed-derivation purpose for scenario replicate seeds

_GAUSSIAN = {"variant": "gaussian", "sigma": 1.0}
_SEED = 20260816

# Per scenario, every config key its runner reads, with its default.  The
# run-level keys out_dir and threads are accepted everywhere; by the
# determinism contract they never change the results.
DEFAULTS: dict[str, dict] = {
    "hierarchy-demo": {
        "p": 2, "horizon": 8192, "k_list": list(range(13)), "tau_max": 48,
        "epsilons": [0.5], "window_grid": None, "q": 1.0,
        "out_dir": "out", "threads": 0,
    },
    "equivalence": {
        "p": 2, "hurst": 0.7, "kmax": 16, "law": _GAUSSIAN, "seed": _SEED,
        "horizon": 1 << 16, "k_list": list(range(11)), "tau_max": 1024,
        "replicates": 20, "alpha_compare": 1.25,
        "out_dir": "out", "threads": 0,
    },
    "theorem-5-2": {
        "p": 2, "hurst": 1.0, "kmax": 20, "law": {"variant": "pareto", "alpha": 0.75}, "seed": _SEED,
        "horizon": 1 << 18, "k_list": list(range(9)), "window_grid": None, "q": 1.0,
        "replicates": 20,
        "out_dir": "out", "threads": 0,
    },
    "identity-suite": {
        "p": 2, "hurst": 0.7, "kmax": 10, "law": _GAUSSIAN, "seed": _SEED,
        "mc_seeds": 10000, "repetitions": 1,
        "out_dir": "out", "threads": 0,
    },
    "field-demo": {
        "p": 2, "hurst": 0.7, "kmax": 4, "law": _GAUSSIAN, "seed": _SEED, "dim": 2,
        "horizon": 64, "k_list": list(range(6)), "tau_max": 32, "replicates": 5,
        "out_dir": "out", "threads": 0,
    },
}
SCENARIOS = tuple(DEFAULTS)

# fallback proxy for theorem-5-2 when the configured tail exponent fails the
# integrability gate: alpha inside the (H, q) window with E|xi| finite
_T52_PROXY = {"alpha": 1.25, "hurst": 0.7, "q": 1.0}


def _int(minimum: int):
    def check(key, v):
        if not isinstance(v, int) or isinstance(v, bool):
            raise ConfigError(f"{key} must be an integer, got {v!r}")
        if v < minimum:
            raise ConfigError(f"{key} must be at least {minimum}, got {v}")
        return v
    return check


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _real(minimum: float, strict: bool = False):
    def check(key, v):
        if not _is_real(v):
            raise ConfigError(f"{key} must be a finite number, got {v!r}")
        if v <= minimum if strict else v < minimum:
            raise ConfigError(f"{key} must be {'>' if strict else '>='} {minimum}, got {v}")
        return float(v)
    return check


def _list(item, convert, what: str, optional: bool = False):
    def check(key, v):
        if optional and v is None:
            return None
        if not isinstance(v, (list, tuple)) or not v or not all(item(x) for x in v):
            raise ConfigError(f"{key} must be a nonempty list of {what}, got {v!r}")
        return tuple(convert(x) for x in v)
    return check


def _law(key, v):
    try:
        return laws.law_from_dict(v)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _tree_alpha(key, v):
    v = _real(-math.inf)(key, v)
    issue = laws.validate_law(laws.SymmetricPareto(v), for_tree=True)
    if issue is not None:
        raise ConfigError(f"{key}={v}: {issue.reason}")
    return v


def _is_index(v, minimum: int) -> bool:
    return isinstance(v, int) and v >= minimum


_CHECKS = {
    "p": _int(2),
    "hurst": _real(0.0, strict=True),
    "kmax": _int(0),
    "law": _law,
    "seed": _int(0),
    "dim": _int(2),
    "horizon": _int(2),
    "epsilons": _list(lambda e: _is_real(e) and e > 0, float, "positive finite numbers"),
    "q": _real(1.0),
    "k_list": _list(lambda k: _is_index(k, 0), int, "non-negative integers"),
    "window_grid": _list(lambda w: _is_index(w, 1), int, "positive integers", optional=True),
    "tau_max": _int(1),
    "replicates": _int(1),
    "mc_seeds": _int(2),
    "repetitions": _int(1),
    "alpha_compare": _tree_alpha,
    "out_dir": lambda key, v: str(v),
    "threads": _int(0),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A resolved, validated config: the scenario and exactly the keys it reads.

    Each key reads as an attribute (cfg.p, cfg.law, ...); law is an
    IncrementLaw and list-valued keys are tuples.
    """

    scenario: str
    params: dict

    def __post_init__(self) -> None:
        for key, v in self.params.items():
            object.__setattr__(self, key, v)

    def to_dict(self) -> dict:
        d = {"scenario": self.scenario}
        for key, v in self.params.items():
            d[key] = laws.law_to_dict(v) if key == "law" else list(v) if isinstance(v, tuple) else v
        return d

    def tree_spec(self, seed: int | None = None) -> TreeSpec:
        """The scenario's process; one-dimensional unless the scenario reads dim."""
        return TreeSpec(
            p=self.p,
            hurst=self.hurst,
            kmax=self.kmax,
            law=self.law,
            seed=self.seed if seed is None else int(seed),
            dim=self.params.get("dim", 1),
        )


def resolve_config(raw: dict, overrides: dict | None = None) -> ExperimentConfig:
    """The scenario's defaults, then the file's values, then CLI overrides.

    Only the keys in DEFAULTS[scenario] are accepted.  Any other key, a
    malformed value or an inconsistent combination raises ConfigError
    naming the key, and a run whose largest request exceeds the memory cap
    raises ResourceCapError, before any output exists.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    merged = dict(raw)
    merged.update((key, v) for key, v in (overrides or {}).items() if v is not None)
    scenario = merged.pop("scenario", None)
    if scenario not in DEFAULTS:
        raise ConfigError(f"scenario must be one of {', '.join(SCENARIOS)}; got {scenario!r}")
    defaults = DEFAULTS[scenario]
    unread = sorted(set(merged) - set(defaults))
    if unread:
        raise ConfigError(
            f"unknown config keys for scenario {scenario}: {', '.join(unread)} (it reads {', '.join(defaults)})"
        )
    cfg = ExperimentConfig(scenario, {key: _CHECKS[key](key, merged.get(key, d)) for key, d in defaults.items()})
    # the process must be simulable before any work starts: primality, law
    # integrability, index-domain bounds
    try:
        if scenario == "hierarchy-demo":
            PadicContext(cfg.p)
        elif scenario == "theorem-5-2":
            # a non-integrable pareto law is allowed here: the runner reports
            # the gate and simulates the proxy law instead
            if not isinstance(cfg.law, laws.SymmetricPareto):
                raise ConfigError(f"theorem-5-2 requires a pareto law, got {laws.law_to_dict(cfg.law)}")
            issue = laws.validate_law(cfg.law, for_tree=False)
            if issue is not None:
                raise ConfigError(f"law.{issue.parameter}={issue.value}: {issue.reason}")
            spec = TreeSpec(cfg.p, cfg.hurst, cfg.kmax, laws.SymmetricPareto(_T52_PROXY["alpha"]), cfg.seed)
            if cfg.p ** 8 >= cfg.horizon:
                raise ConfigError(
                    f"horizon={cfg.horizon} must exceed p**8: theorem-5-2 compares omega(0) with omega(8)"
                )
        else:
            spec = cfg.tree_spec()
    except (ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from None
    if "tau_max" in cfg.params and cfg.tau_max >= cfg.horizon:
        raise ConfigError(f"tau_max={cfg.tau_max} must be below horizon={cfg.horizon}")
    if scenario == "identity-suite" and cfg.kmax < 2:
        raise ConfigError(f"kmax={cfg.kmax} must be at least 2: identity-suite's sublattice tests use K = 1 and 2")
    if "k_list" in cfg.params and not _k_below_horizon(cfg):
        raise ConfigError(f"k_list={list(cfg.k_list)} has no K with p**K below horizon={cfg.horizon}")
    if "window_grid" in cfg.params:
        # the shortest translate the runner takes windows over
        shortest = cfg.horizon - (4 if scenario == "hierarchy-demo" else cfg.p ** max(_k_below_horizon(cfg)))
        grid = _window_grid(cfg)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError(f"window_grid={list(grid)} must be strictly increasing")
        if not grid or grid[0] > shortest:
            raise ConfigError(
                f"window_grid={list(grid)}: no window fits the shortest translate,"
                f" {shortest} points at horizon={cfg.horizon}"
            )
    # the runner's largest request: the five demo sequences, the full level
    # periods theorem-5-2 draws plus its path, or one path or field
    if scenario == "hierarchy-demo":
        tree.check_cap(None, 0, 5 * cfg.horizon)
    elif scenario == "theorem-5-2":
        tree.check_cap(spec, cfg.p ** (cfg.kmax + 1), cfg.horizon)
    elif scenario != "identity-suite":
        tree.check_cap(spec, cfg.horizon, cfg.horizon ** spec.dim)
    return cfg


def _k_below_horizon(cfg: ExperimentConfig) -> list[int]:
    """The k_list entries K with p**K below the horizon."""
    return [K for K in cfg.k_list if cfg.p ** K < cfg.horizon]


def _window_grid(cfg: ExperimentConfig):
    """The configured window grid, or the scenario's dyadic default."""
    limit = cfg.horizon - 8 if cfg.scenario == "hierarchy-demo" else cfg.horizon // 2
    return cfg.window_grid or dg.dyadic_grid(limit)


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return resolve_config(raw, overrides)


# ---------------------------------------------------------------------------
# shared plumbing


def effective_threads(requested: int) -> int:
    """Worker count: requested (0 = serial), capped by PADIC_SSSI_THREADS and the CPU count."""
    n = max(1, requested)
    cap = os.environ.get("PADIC_SSSI_THREADS")
    if cap is not None:
        try:
            n = min(n, max(1, int(cap)))
        except ValueError:
            raise ConfigError(f"PADIC_SSSI_THREADS must be an integer, got {cap!r}") from None
    return min(n, os.cpu_count() or 1)


def _map_ordered(fn, items, threads: int):
    """Map preserving item order; thread pool when threads > 1."""
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(it) for it in items]


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def write_outputs(outdir: str | FsPath, tables: dict, json_name: str, payload: dict) -> None:
    """Write each table as a CSV and the payload as strict JSON under outdir.

    tables maps a file name to (header, rows): one header line, then one
    comma-joined line per row, floats as repr.  The payload is serialized
    before outdir is created, so a non-finite value raises ValueError and
    leaves no output.
    """
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    outdir = FsPath(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        with open(outdir / name, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    with open(outdir / json_name, "w", encoding="utf-8") as fh:
        fh.write(text)


def _replica_seeds(cfg: ExperimentConfig, count: int) -> np.ndarray:
    return rng.derive_seed(cfg.seed, _PURPOSE_REPLICA, np.arange(count, dtype=np.uint64))


# ---------------------------------------------------------------------------
# scenario: hierarchy-demo


def _demo_sequences(horizon: int) -> dict[str, np.ndarray]:
    n = np.arange(horizon)
    return {
        "indicator3": (n % 3 == 0).astype(np.float64),
        "constant": np.ones(horizon),
        "alternating": np.where(n % 2 == 0, 1.0, -1.0),
        "ramp": n / float(horizon),
        "spike": (n == 0).astype(np.float64),
    }


def run_hierarchy_demo(cfg: ExperimentConfig) -> tuple[dict, dict, list[str]]:
    ctx = PadicContext(cfg.p)
    seqs = _demo_sequences(cfg.horizon)
    ks = _k_below_horizon(cfg)
    mod_rows, bohr_rows, prof_rows, lp_rows = [], [], [], []
    summary: dict = {"sequences": {}}
    for name, values in seqs.items():
        f = dg.SeriesView(values)
        omegas, errors = dg.modulus_curve(f, ctx, ks)
        mod_rows += [(name, K, cfg.p ** K, om) for K, om in zip(ks, omegas)]
        # modulus.csv keeps a repeated K; limit_periodic.csv lists each K once
        lp_rows += [(name, K, err) for K, err in dict(zip(ks, errors)).items()]
        dist = dg.translate_sup_profile(f, cfg.tau_max)
        reports = [dg.bohr_translation_set(f, eps, cfg.tau_max, distances=dist) for eps in cfg.epsilons]
        bohr_rows += [(name, eps, len(rep.taus), rep.max_gap) for eps, rep in zip(cfg.epsilons, reports)]
        grid = _window_grid(cfg)
        for tau in (3, 4):
            u = dg.translate_diff(f, tau)
            g = [L for L in grid if L <= u.horizon]
            wp = dg.weyl_profile(u, cfg.q, g)
            bp = dg.besicovitch_profile(u, cfg.q, g)
            prof_rows += [(name, tau, L, wv, bv) for L, wv, bv in zip(g, wp.estimates, bp.estimates)]
        summary["sequences"][name] = {
            "moduli": {str(K): om for K, om in zip(ks, omegas)},
            "max_gap_at_first_epsilon": reports[0].max_gap,
        }
    tables = {
        "modulus.csv": (["sequence", "K", "p_pow_K", "omega"], mod_rows),
        "bohr.csv": (["sequence", "epsilon", "accepted_count", "max_gap"], bohr_rows),
        "profiles.csv": (["sequence", "tau", "L", "weyl", "besicovitch"], prof_rows),
        "limit_periodic.csv": (["sequence", "K", "sup_error"], lp_rows),
    }

    failures = []
    ind = summary["sequences"]["indicator3"]
    bad_moduli = [k for k, v in ind["moduli"].items() if v != 1.0]
    if bad_moduli:
        failures.append(f"indicator3 modulus must equal 1.0 exactly at every K; off at K={bad_moduli}")
    if ind["max_gap_at_first_epsilon"] != 3:
        failures.append(
            f"indicator3 Bohr max_gap at epsilon={cfg.epsilons[0]} must be 3, got {ind['max_gap_at_first_epsilon']}"
        )
    return tables, summary, failures


# ---------------------------------------------------------------------------
# scenario: equivalence


def run_equivalence(cfg: ExperimentConfig) -> tuple[dict, dict, list[str]]:
    ctx = PadicContext(cfg.p)
    seeds = _replica_seeds(cfg, cfg.replicates)
    laws_by_name = {
        "gaussian": cfg.law,
        "pareto": laws.SymmetricPareto(cfg.alpha_compare),
    }
    modulus_k = _k_below_horizon(cfg)
    bohr_k = [K for K in modulus_k if cfg.p ** K <= cfg.tau_max]

    def one(job):
        law_name, seed_index = job
        law = laws_by_name[law_name]
        spec = TreeSpec(p=cfg.p, hurst=cfg.hurst, kmax=cfg.kmax, law=law, seed=int(seeds[seed_index]), dim=1)
        f = dg.SeriesView(tree.lazy_path(spec, cfg.horizon).values)
        dist = dg.translate_sup_profile(f, cfg.tau_max)
        omegas, errors = dg.modulus_curve(f, ctx, modulus_k)
        moduli = dict(zip(modulus_k, omegas))
        gaps = [dg.bohr_translation_set(f, moduli[K] + 1e-6, cfg.tau_max, distances=dist).max_gap for K in bohr_k]
        return omegas, errors, gaps

    jobs = [(ln, i) for ln in laws_by_name for i in range(cfg.replicates)]
    results = _map_ordered(one, jobs, effective_threads(cfg.threads))

    mod_rows, lp_rows, bohr_rows = [], [], []
    decay_pass = 0
    gap_violations = []
    gauss_ratios = []
    for (law_name, seed_index), (omegas, errors, gaps) in zip(jobs, results):
        mod_rows += [(law_name, seed_index, K, om) for K, om in zip(modulus_k, omegas)]
        lp_rows += [(law_name, seed_index, K, err) for K, err in zip(modulus_k, errors)]
        moduli = dict(zip(modulus_k, omegas))
        for K, gap in zip(bohr_k, gaps):
            bohr_rows.append((law_name, seed_index, K, moduli[K] + 1e-6, gap, cfg.p ** K))
            if law_name == "gaussian" and gap > cfg.p ** K:
                gap_violations.append((seed_index, K, gap, cfg.p ** K))
        if law_name == "gaussian" and 0 in moduli and 8 in moduli:
            # a constant path (omega(0) = 0, hence omega(8) = 0) has decayed fully
            ratio = moduli[8] / moduli[0] if moduli[0] else 0.0
            gauss_ratios.append(ratio)
            if ratio <= 0.1:
                decay_pass += 1
    tables = {
        "modulus_curves.csv": (["law", "seed_index", "K", "omega"], mod_rows),
        "limit_periodic.csv": (["law", "seed_index", "K", "sup_error"], lp_rows),
        "bohr_gaps.csv": (["law", "seed_index", "K", "epsilon", "max_gap", "gap_bound"], bohr_rows),
    }
    summary = {
        "replicates": cfg.replicates,
        "gaussian_modulus_decay_pass": decay_pass,
        "gaussian_modulus_ratios": gauss_ratios,
        "gap_violations": gap_violations,
    }
    failures = []
    if decay_pass < 0.8 * cfg.replicates:
        failures.append(
            f"gaussian modulus ratio om(8)/om(0) <= 0.1 in only {decay_pass}/{cfg.replicates} replicates (need >= 80%)"
        )
    if gap_violations:
        failures.append(f"Bohr max_gap exceeded p**K in {len(gap_violations)} cases: {gap_violations[:5]}")
    return tables, summary, failures


# ---------------------------------------------------------------------------
# scenario: theorem-5-2


def run_theorem_5_2(cfg: ExperimentConfig) -> tuple[dict, dict, list[str]]:
    requested = {"alpha": cfg.law.alpha, "hurst": cfg.hurst, "q": cfg.q}
    window = laws.pareto_alpha_window(cfg.hurst, cfg.q)
    in_window = window[0] < cfg.law.alpha < window[1]
    gate = laws.validate_law(cfg.law, for_tree=True)
    if gate is not None:
        law = laws.SymmetricPareto(_T52_PROXY["alpha"])
        hurst, q = _T52_PROXY["hurst"], _T52_PROXY["q"]
        proxy_window = laws.pareto_alpha_window(hurst, q)
        mode = {
            "requested": requested,
            "requested_in_window": in_window,
            "integrability_issue": dataclasses.asdict(gate),
            "proxy": {"alpha": law.alpha, "hurst": hurst, "q": q},
            "proxy_window": list(proxy_window),
        }
    else:
        law, hurst, q = cfg.law, cfg.hurst, cfg.q
        mode = {"requested": requested, "requested_in_window": in_window, "integrability_issue": None}

    seeds = _replica_seeds(cfg, cfg.replicates)
    ctx = PadicContext(cfg.p)
    usable_k = _k_below_horizon(cfg)
    grid = _window_grid(cfg)

    def one(seed_index: int):
        spec = TreeSpec(p=cfg.p, hurst=hurst, kmax=cfg.kmax, law=law, seed=int(seeds[seed_index]), dim=1)
        # level_sum asks each level once: its full period gives the level
        # q-mean B_{k,q}, and a view of it gives the path's box
        box = tree.keyed_lookup(spec)
        b: dict[int, float] = {}

        def xi(k: int, residues: slice) -> np.ndarray:
            arr = box(k, slice(0, spec.level_modulus(k)))
            b[k] = identity.level_average_B(arr, q)
            return arr[residues]

        f = dg.SeriesView(tree.level_sum(spec, xi, range(cfg.horizon)))
        bounds, heads = {}, {}
        for K in usable_k:
            bounds[K] = identity.weyl_tail_bound(spec, b, K)
            # one translate at a time bounds peak memory; only the headline, at the largest L that fits, is reported
            u = dg.translate_diff(f, cfg.p ** K)
            heads[K] = dg.weyl_profile(u, q, [L for L in grid if L <= u.horizon][-1:]).headline
        (om0, om8), _ = dg.modulus_curve(f, ctx, [0, 8])
        return bounds, heads, dg.running_max(f), (om0, om8)

    results = _map_ordered(one, list(range(cfg.replicates)), effective_threads(cfg.threads))

    tail_rows, weyl_rows, rm_rows, mod_rows = [], [], [], []
    a_pass = b_pass = c_pass = 0
    k_lo, k_hi = usable_k[0], usable_k[-1]
    for seed_index, (bounds, heads, (mgrid, mvals), (om0, om8)) in enumerate(results):
        tail_rows += [(seed_index, K, bounds[K]) for K in usable_k]
        weyl_rows += [(seed_index, K, cfg.p ** K, heads[K]) for K in usable_k]
        rm_rows += [(seed_index, N, v) for N, v in zip(mgrid, mvals)]
        mod_rows += [(seed_index, 0, om0), (seed_index, 8, om8)]
        strict = all(bounds[a] > bounds[b] for a, b in zip(usable_k, usable_k[1:]))
        ratio_ok = heads[k_hi] > 0 and heads[k_lo] / heads[k_hi] >= 4.0
        if strict and ratio_ok:
            a_pass += 1
        m_lo = mvals[mgrid.index(min(1 << 10, mgrid[-1]))]
        m_hi = mvals[mgrid.index(min(cfg.horizon, mgrid[-1]))]
        if m_hi > 2.0 * m_lo:
            b_pass += 1
        if om8 >= 0.5 * om0:
            c_pass += 1
    tables = {
        "tail_bounds.csv": (["seed_index", "K", "weyl_tail_bound"], tail_rows),
        "translate_weyl.csv": (["seed_index", "K", "tau", "weyl_headline"], weyl_rows),
        "running_max.csv": (["seed_index", "N", "running_max"], rm_rows),
        "moduli.csv": (["seed_index", "K", "omega"], mod_rows),
    }

    n = cfg.replicates
    summary = {
        "mode": mode,
        "replicates": n,
        "tail_bound_decrease_and_weyl_ratio_pass": a_pass,
        "running_max_growth_pass": b_pass,
        "modulus_persistence_pass": c_pass,
    }
    failures = []
    if a_pass < 0.8 * n:
        failures.append(f"(a) tail-bound decrease + Weyl ratio >= 4 held in {a_pass}/{n} (need >= 80%)")
    if b_pass < 0.8 * n:
        failures.append(f"(b) running max M({cfg.horizon}) > 2*M(1024) held in {b_pass}/{n} (need >= 80%)")
    if c_pass < 0.8 * n:
        failures.append(f"(c) omega(8) >= 0.5*omega(0) held in {c_pass}/{n} (need >= 80%)")
    return tables, summary, failures


# ---------------------------------------------------------------------------
# scenario: identity-suite


def run_identity_suite(cfg: ExperimentConfig) -> tuple[dict, dict, list[str]]:
    spec = cfg.tree_spec()
    jobs = []  # (test, its keyword arguments, repetition)
    for rep in range(cfg.repetitions):
        for a in (1, 2, 3, 4):
            for n in (1, 3):
                jobs.append((identity.scaling_identity_test, {"a": a, "index": n}, rep))
        for shift in (1, 2, 5):
            for n in (1, 2):
                jobs.append((identity.increment_stationarity_test, {"shift": shift, "index": n}, rep))
        for r in (0, 1):
            for K in (1, 2):
                for u in (1, 3):
                    jobs.append((identity.sublattice_law_test, {"r": r, "K": K, "index": u, "mode": "matched"}, rep))
        jobs.append((identity.sublattice_law_test, {"r": 0, "K": 1, "index": 1, "mode": "unmatched"}, rep))
        jobs.append((identity.projection_probe_test, {"indices": (1, 3), "weights": (1.0, 0.5), "a": 2}, rep))

    def one(job):
        test, params, rep = job
        return test(spec, **params, seeds=cfg.mc_seeds, repetition=rep)

    reports = _map_ordered(one, jobs, effective_threads(cfg.threads))
    rows = []
    for (_, params, rep), report in zip(jobs, reports):
        detail = json.dumps({k: v for k, v in params.items() if k != "mode"}, sort_keys=True)
        rows.append(
            (
                report.identity,
                detail.replace(",", ";"),
                rep,
                report.m,
                report.n,
                report.statistic,
                report.threshold,
                "pass" if report.passed else "fail",
            )
        )
    tables = {"identities.csv": (["identity", "params", "repetition", "m", "n", "D", "threshold", "verdict"], rows)}
    passed = sum(1 for r in reports if r.passed)
    summary = {
        "tests": len(reports),
        "passed": passed,
        "pass_rate": passed / len(reports),
        "mc_seeds": cfg.mc_seeds,
        "repetitions": cfg.repetitions,
    }
    failures = []
    if passed < 0.95 * len(reports):
        failures.append(f"identity pass rate {passed}/{len(reports)} below 95%")
    return tables, summary, failures


# ---------------------------------------------------------------------------
# scenario: field-demo


def run_field_demo(cfg: ExperimentConfig) -> tuple[dict, dict, list[str]]:
    ctx = PadicContext(cfg.p)
    side = cfg.horizon - 1
    seeds = _replica_seeds(cfg, cfg.replicates)
    usable_k = _k_below_horizon(cfg)

    def one(seed_index: int):
        fp = tree.field(cfg.tree_spec(seeds[seed_index]), side)
        omegas, _ = dg.modulus_curve(fp, ctx, usable_k)
        dist = dg.translation_distances_field(fp, h_max)
        return omegas, [dg.translation_vectors_field(fp, om + 1e-6, h_max, distances=dist) for om in omegas]

    h_max = min(side, cfg.tau_max)
    results = _map_ordered(one, list(range(cfg.replicates)), effective_threads(cfg.threads))
    mod_rows, tr_rows = [], []
    monotone_ok = True
    covering_ok = True
    for seed_index, (omegas, reports) in enumerate(results):
        mod_rows += [(seed_index, K, om) for K, om in zip(usable_k, omegas)]
        for K, rep in zip(usable_k, reports):
            tr_rows.append((seed_index, K, rep.epsilon, len(rep.accepted), rep.worst_empty_side, rep.covering_side))
            covering_ok = covering_ok and rep.covering_side <= cfg.p ** K
        if any(b > a + 1e-12 for a, b in zip(omegas, omegas[1:])):
            monotone_ok = False
    tables = {
        "field_moduli.csv": (["seed_index", "K", "omega"], mod_rows),
        "field_translations.csv": (
            ["seed_index", "K", "epsilon", "accepted_count", "worst_empty_side", "covering_side"],
            tr_rows,
        ),
    }
    summary = {
        "replicates": cfg.replicates,
        "box_side": side,
        "modulus_monotone": monotone_ok,
        "covering_within_p_pow_K": covering_ok,
    }
    failures = []
    if not monotone_ok:
        failures.append("field modulus failed to be non-increasing in K")
    if not covering_ok:
        failures.append("accepted translation vectors failed to cover at side p**K")
    return tables, summary, failures


# ---------------------------------------------------------------------------
# runner

_RUNNERS = {
    "hierarchy-demo": run_hierarchy_demo,
    "equivalence": run_equivalence,
    "theorem-5-2": run_theorem_5_2,
    "identity-suite": run_identity_suite,
    "field-demo": run_field_demo,
}


def run_scenario(cfg: ExperimentConfig, check: bool = False) -> tuple[int, dict]:
    """Execute a resolved config; returns (exit_code, summary).

    Exit codes: 0 success, 3 resource cap, 4 failed checks in check mode.
    Config errors, a malformed PADIC_SSSI_THREADS and a q at which the
    runner's q-means overflow included, raise ConfigError before any output
    exists and map to 2 in the CLI; write_outputs is the only write.
    """
    effective_threads(cfg.threads)  # refuse a malformed PADIC_SSSI_THREADS first
    tables, summary, failures = _RUNNERS[cfg.scenario](cfg)
    payload = {
        "scenario": cfg.scenario,
        "version": __version__,
        "config": cfg.to_dict(),
        "results": summary,
        "check_mode": bool(check),
        "check_failures": failures,
    }
    write_outputs(cfg.out_dir, tables, "summary.json", payload)
    if check and failures:
        return 4, payload
    return 0, payload
