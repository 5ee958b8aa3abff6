"""Scenario pipelines: config resolution, outputs, determinism, checks."""

import json

import pytest

from padic_sssi import diagnostics as dg, scenarios, tree
from padic_sssi.errors import ConfigError, ResourceCapError
from padic_sssi.laws import Gaussian, SymmetricPareto


def small_config(scenario, outdir, **kw):
    raw = {"scenario": scenario, "out_dir": str(outdir)}
    raw.update(kw)
    return scenarios.resolve_config(raw)


def test_resolve_config_layering():
    cfg = scenarios.resolve_config({"scenario": "equivalence"})
    assert cfg.kmax == 16  # scenario default beats base default
    assert cfg.p == 2
    cfg2 = scenarios.resolve_config({"scenario": "equivalence", "kmax": 5})
    assert cfg2.kmax == 5  # user beats scenario default
    cfg3 = scenarios.resolve_config({"scenario": "equivalence"}, overrides={"kmax": 7})
    assert cfg3.kmax == 7  # CLI override beats file
    cfg4 = scenarios.resolve_config({"scenario": "equivalence", "kmax": 5}, overrides={"kmax": None})
    assert cfg4.kmax == 5  # absent overrides are ignored


def test_resolve_config_rejections():
    with pytest.raises(ConfigError, match="scenario"):
        scenarios.resolve_config({"scenario": "unknown"})
    with pytest.raises(ConfigError, match="unknown config keys"):
        scenarios.resolve_config({"scenario": "equivalence", "qq": 1})
    with pytest.raises(ConfigError, match="p must be prime"):
        scenarios.resolve_config({"scenario": "equivalence", "p": 9})
    with pytest.raises(ConfigError, match="hurst"):
        scenarios.resolve_config({"scenario": "equivalence", "hurst": -0.5})
    with pytest.raises(ConfigError, match="alpha"):
        scenarios.resolve_config({"scenario": "identity-suite", "law": {"variant": "pareto", "alpha": 0.8}})
    with pytest.raises(ConfigError, match="law"):
        scenarios.resolve_config({"scenario": "equivalence", "law": {"variant": "zeta"}})
    with pytest.raises(ConfigError, match="alpha"):
        scenarios.resolve_config({"scenario": "theorem-5-2", "law": {"variant": "pareto", "alpha": None}})
    with pytest.raises(ConfigError, match="tau_max"):
        scenarios.resolve_config({"scenario": "equivalence", "tau_max": 1 << 20})
    with pytest.raises(ConfigError, match="epsilons"):
        scenarios.resolve_config({"scenario": "equivalence", "epsilons": []})
    with pytest.raises(ConfigError, match="mc_seeds"):
        scenarios.resolve_config({"scenario": "identity-suite", "mc_seeds": 1})
    # checks the runners used to make after the output directory existed
    with pytest.raises(ConfigError, match="pareto"):
        scenarios.resolve_config({"scenario": "theorem-5-2", "law": {"variant": "gaussian", "sigma": 1.0}})
    with pytest.raises(ConfigError, match="dim must be at least 2"):
        scenarios.resolve_config({"scenario": "field-demo", "dim": 1})
    with pytest.raises(ConfigError, match="horizon"):
        scenarios.resolve_config({"scenario": "theorem-5-2", "horizon": 256})
    with pytest.raises(ConfigError, match="alpha_compare"):
        scenarios.resolve_config({"scenario": "equivalence", "alpha_compare": 1.0})


@pytest.mark.parametrize(
    "raw, level",
    [
        ({"scenario": "hierarchy-demo", "horizon": 1 << 30}, "5368709120 stored entries exceed"),  # 5 sequences
        ({"scenario": "equivalence", "horizon": 1 << 26}, "level 0"),  # one 2**26-point path
        ({"scenario": "theorem-5-2", "kmax": 30}, "level 23"),  # full periods 2**1..2**24 plus the path
        ({"scenario": "field-demo", "horizon": 6000}, "level 0"),  # a 6000**2 box
    ],
)
def test_resolve_config_refuses_over_cap_runs(raw, level):
    # resolve_config allocates nothing, so a missing refusal fails cheaply
    with pytest.raises(ResourceCapError, match=level):
        scenarios.resolve_config(raw)


def test_theorem_5_2_accepts_blocked_alpha():
    # the non-integrable tail is allowed here; the runner substitutes a proxy
    cfg = scenarios.resolve_config({"scenario": "theorem-5-2"})
    assert isinstance(cfg.law, SymmetricPareto)
    assert cfg.law.alpha == 0.75


def test_config_to_dict_embeds_law():
    cfg = scenarios.resolve_config({"scenario": "equivalence", "law": {"variant": "gaussian", "sigma": 2.0}})
    d = cfg.to_dict()
    assert d["law"] == {"variant": "gaussian", "sigma": 2.0}
    assert cfg.law == Gaussian(2.0)
    json.dumps(d)


def test_hierarchy_demo_small(tmp_path):
    cfg = small_config("hierarchy-demo", tmp_path, horizon=512, tau_max=40, k_list=list(range(9)))
    code, payload = scenarios.run_scenario(cfg, check=True)
    assert code == 0
    assert payload["check_failures"] == []
    assert (tmp_path / "modulus.csv").exists()
    assert (tmp_path / "bohr.csv").exists()
    assert (tmp_path / "summary.json").exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["scenario"] == "hierarchy-demo"
    assert summary["config"]["horizon"] == 512
    assert summary["version"]
    ind = summary["results"]["sequences"]["indicator3"]
    assert all(v == 1.0 for v in ind["moduli"].values())


def test_hierarchy_demo_skips_only_the_ks_at_or_above_the_horizon(tmp_path):
    # a K with p**K >= horizon is dropped wherever it sits in k_list
    cfg = small_config("hierarchy-demo", tmp_path, horizon=512, tau_max=40, k_list=[12, 0, 1])
    _, summary, _ = scenarios.run_hierarchy_demo(cfg)
    assert list(summary["sequences"]["indicator3"]["moduli"]) == ["0", "1"]


def test_equivalence_small(tmp_path):
    cfg = small_config(
        "equivalence", tmp_path, replicates=3, kmax=10, horizon=2048, tau_max=128, k_list=list(range(9))
    )
    code, payload = scenarios.run_scenario(cfg, check=True)
    assert code == 0, payload["check_failures"]
    assert payload["results"]["gaussian_modulus_decay_pass"] == 3
    lines = (tmp_path / "modulus_curves.csv").read_text().strip().split("\n")
    assert lines[0] == "law,seed_index,K,omega"
    assert len(lines) == 1 + 2 * 3 * 9  # two laws, three seeds, nine K values


def test_equivalence_constant_replicate_passes_decay(tmp_path):
    # at kmax 0, X_1 = xi_{0,1} - xi_{0,0} is 0 with probability 1/2 under the
    # Rademacher law; such a replicate's path is constant, so omega(0) = 0 and
    # its decay ratio reads 0.0 instead of dividing by zero
    cfg = small_config(
        "equivalence", tmp_path, law={"variant": "rademacher"}, kmax=0, horizon=512, tau_max=16, replicates=4
    )
    code, payload = scenarios.run_scenario(cfg, check=True)
    assert code == 0, payload["check_failures"]
    omegas = {}
    for line in (tmp_path / "modulus_curves.csv").read_text().split()[1:]:
        law, seed_index, _, omega = line.split(",")
        omegas.setdefault((law, seed_index), []).append(omega)
    assert any(all(om == "0.0" for om in oms) for (law, _), oms in omegas.items() if law == "gaussian")
    assert 0.0 in payload["results"]["gaussian_modulus_ratios"]


def test_theorem_5_2_small_runs_and_reports_mode(tmp_path):
    cfg = small_config("theorem-5-2", tmp_path, replicates=2, kmax=10, horizon=1 << 12, k_list=[0, 2, 4])
    code, payload = scenarios.run_scenario(cfg, check=False)
    assert code == 0
    mode = payload["results"]["mode"]
    assert mode["integrability_issue"]["parameter"] == "alpha"
    assert mode["proxy"]["alpha"] == 1.25
    assert (tmp_path / "tail_bounds.csv").exists()
    assert (tmp_path / "running_max.csv").exists()
    # in check mode the same tiny run must exit 4 with named sub-criteria
    code2, payload2 = scenarios.run_scenario(cfg, check=True)
    assert code2 == 4
    assert any("running max" in f for f in payload2["check_failures"])


def test_theorem_5_2_headline_is_the_full_profile_headline(tmp_path):
    # the runner asks weyl_profile for the largest window only; the full
    # grid's headline is the same float
    cfg = small_config(
        "theorem-5-2", tmp_path, replicates=2, kmax=10, horizon=4096, hurst=0.7, q=1.5,
        law={"variant": "pareto", "alpha": 1.25}, k_list=[0, 3, 5],
    )
    assert scenarios.run_scenario(cfg)[0] == 0
    rows = [ln.split(",") for ln in (tmp_path / "translate_weyl.csv").read_text().split()[1:]]
    assert len(rows) == 2 * 3
    seeds = scenarios._replica_seeds(cfg, cfg.replicates)
    grid = scenarios._window_grid(cfg)
    for seed_index, K, tau, head in rows:
        f = tree.lazy_path(cfg.tree_spec(seeds[int(seed_index)]), cfg.horizon)
        u = dg.translate_diff(f.values, int(tau))
        assert int(tau) == cfg.p ** int(K)
        assert head == repr(dg.weyl_profile(u, cfg.q, [L for L in grid if L <= u.horizon]).headline)


def test_identity_suite_small(tmp_path):
    cfg = small_config("identity-suite", tmp_path, mc_seeds=800)
    code, payload = scenarios.run_scenario(cfg, check=True)
    assert code == 0, payload["check_failures"]
    # 8 scaling + 6 stationarity + 8 matched + 1 unmatched + 1 projection
    assert payload["results"]["tests"] == 24
    lines = (tmp_path / "identities.csv").read_text().strip().split("\n")
    assert lines[0].startswith("identity,params,repetition")
    assert len(lines) == 25


def test_field_demo_small(tmp_path):
    cfg = small_config("field-demo", tmp_path, replicates=2)
    code, payload = scenarios.run_scenario(cfg, check=True)
    assert code == 0, payload["check_failures"]
    assert payload["results"]["modulus_monotone"] is True
    assert (tmp_path / "field_translations.csv").exists()


def test_scenario_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        cfg = small_config("identity-suite", out, mc_seeds=600)
        assert scenarios.run_scenario(cfg)[0] == 0
    assert (out_a / "identities.csv").read_bytes() == (out_b / "identities.csv").read_bytes()


THREAD_CONFIGS = {
    "hierarchy-demo": {"horizon": 512, "tau_max": 40, "k_list": list(range(9))},
    "equivalence": {"replicates": 3, "kmax": 8, "horizon": 1024, "tau_max": 64},
    "theorem-5-2": {"replicates": 2, "kmax": 8, "horizon": 1024, "k_list": [0, 2, 4]},
    "identity-suite": {"mc_seeds": 600},
    "field-demo": {"replicates": 3, "horizon": 32, "tau_max": 12, "k_list": list(range(5))},
}


@pytest.mark.parametrize("scenario", sorted(THREAD_CONFIGS))
def test_threads_do_not_change_results(tmp_path, monkeypatch, scenario):
    # a runner only computes: called directly in an empty working directory
    # it creates no file, and its tables are the CSVs run_scenario writes
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    tables, _, _ = scenarios._RUNNERS[scenario](small_config(scenario, "out", **THREAD_CONFIGS[scenario]))
    assert list(cwd.iterdir()) == []
    outputs = []
    for threads in (0, 1, 2):
        out = tmp_path / f"threads{threads}"
        cfg = small_config(scenario, out, threads=threads, **THREAD_CONFIGS[scenario])
        assert scenarios.run_scenario(cfg)[0] == 0
        csvs = {p.name: p.read_bytes() for p in out.glob("*.csv")}
        results = json.loads((out / "summary.json").read_text())["results"]
        outputs.append((csvs, json.dumps(results, sort_keys=True)))
    assert outputs[0][0], "scenario wrote no CSV"
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
    assert set(tables) == set(outputs[0][0])


def test_non_finite_summary_leaves_no_output(tmp_path, monkeypatch):
    # write_outputs serializes the summary before it creates --out
    def runner(cfg):
        return {"rows.csv": (["x"], [(1.0,)])}, {"value": float("nan")}, []

    monkeypatch.setitem(scenarios._RUNNERS, "field-demo", runner)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="not JSON compliant"):
        scenarios.run_scenario(small_config("field-demo", out))
    assert not out.exists()


def test_effective_threads_env_cap(monkeypatch):
    monkeypatch.setenv("PADIC_SSSI_THREADS", "2")
    assert scenarios.effective_threads(8) == 2
    assert scenarios.effective_threads(1) == 1
    monkeypatch.setenv("PADIC_SSSI_THREADS", "nonsense")
    with pytest.raises(ConfigError, match="PADIC_SSSI_THREADS"):
        scenarios.effective_threads(8)
    monkeypatch.delenv("PADIC_SSSI_THREADS")
    assert scenarios.effective_threads(0) == 1


def test_effective_threads_cpu_clamp(monkeypatch):
    monkeypatch.delenv("PADIC_SSSI_THREADS", raising=False)
    monkeypatch.setattr(scenarios.os, "cpu_count", lambda: 3)
    assert scenarios.effective_threads(8) == 3
    assert scenarios.effective_threads(2) == 2
    monkeypatch.setattr(scenarios.os, "cpu_count", lambda: None)
    assert scenarios.effective_threads(8) == 1


# A tiny config per scenario, and one changed value per key it reads
# (out_dir and threads never change the results).  A path repeats with
# period p**(kmax + 1), so equivalence's tiny kmax keeps that period above
# its horizon: a longer horizon would otherwise add no new values.
TINY = {
    "hierarchy-demo": {"horizon": 64, "tau_max": 16, "k_list": [0, 1, 2, 3]},
    "equivalence": {"kmax": 8, "horizon": 64, "tau_max": 16, "k_list": [0, 1, 2], "replicates": 1},
    "theorem-5-2": {"kmax": 10, "horizon": 8192, "k_list": [0, 1, 2], "replicates": 1},
    "identity-suite": {"kmax": 3, "mc_seeds": 40},
    "field-demo": {"kmax": 2, "horizon": 8, "tau_max": 4, "k_list": [0, 1, 2], "replicates": 1},
}
CHANGED = {
    "p": 3,
    "hurst": 0.4,
    "law": {"variant": "rademacher"},
    "seed": 7,
    "dim": 3,
    "epsilons": [0.25],
    "q": 2.0,
    "k_list": [0, 1],
    "window_grid": [4, 8],
    "tau_max": 3,
    "replicates": 2,
    "mc_seeds": 50,
    "repetitions": 2,
    "alpha_compare": 1.5,
}


def _outputs(out):
    csvs = {p.name: p.read_bytes() for p in out.glob("*.csv")}
    return csvs, json.loads((out / "summary.json").read_text())["results"]


@pytest.mark.parametrize("scenario", sorted(TINY))
def test_every_key_changes_the_outputs(tmp_path, scenario):
    tiny = TINY[scenario]
    base = small_config(scenario, tmp_path / "base", **tiny)
    assert scenarios.run_scenario(base)[0] == 0
    reference = _outputs(tmp_path / "base")
    config = json.loads((tmp_path / "base" / "summary.json").read_text())["config"]
    assert set(config) == {"scenario", *scenarios.DEFAULTS[scenario]}
    for key in sorted(set(scenarios.DEFAULTS[scenario]) - {"out_dir", "threads"}):
        if key in ("kmax", "horizon"):
            value = tiny[key] + 1 if key == "kmax" else 2 * tiny[key]
        elif key == "law" and scenario == "theorem-5-2":
            value = {"variant": "pareto", "alpha": 1.5}  # theorem-5-2 refuses other laws
        else:
            value = CHANGED[key]
        out = tmp_path / key
        cfg = small_config(scenario, out, **{**tiny, key: value})
        assert scenarios.run_scenario(cfg)[0] == 0
        assert _outputs(out) != reference, f"{scenario}: changing {key} left every output unchanged"


def test_load_config_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match="cannot read"):
        scenarios.load_config(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        scenarios.load_config(str(bad))
