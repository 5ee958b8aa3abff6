"""Command line interface: subcommands, exit codes, output files."""

import json

import numpy as np
import pytest

from padic_sssi import cli, scenarios, tree


def run_cli(argv):
    return cli.main([str(a) for a in argv])


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_run_scenario_success(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"scenario": "identity-suite", "mc_seeds": 600, "out_dir": str(tmp_path / "out")}
    )
    assert run_cli(["run", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "summary.json" in out
    assert (tmp_path / "out" / "identities.csv").exists()


def test_run_check_mode_pass_and_fail(tmp_path, capsys):
    good = write_config(
        tmp_path, {"scenario": "identity-suite", "mc_seeds": 600, "out_dir": str(tmp_path / "good")}
    )
    assert run_cli(["run", "--config", good, "--check"]) == 0
    assert "all checks passed" in capsys.readouterr().out

    failing = write_config(
        tmp_path,
        {
            "scenario": "theorem-5-2",
            "replicates": 2,
            "kmax": 8,
            "horizon": 4096,
            "k_list": [0, 1, 2],
            "out_dir": str(tmp_path / "fail"),
        },
        name="fail.json",
    )
    assert run_cli(["run", "--config", failing, "--check"]) == 4
    err = capsys.readouterr().err
    assert "check failed" in err


def test_run_overrides(tmp_path):
    cfg = write_config(tmp_path, {"scenario": "identity-suite", "mc_seeds": 600, "out_dir": "ignored"})
    out = tmp_path / "ovr"
    assert run_cli(["run", "--config", cfg, "--out", out, "--seed", 99]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["seed"] == 99
    assert summary["config"]["out_dir"] == str(out)


def test_run_config_errors(tmp_path, capsys):
    assert run_cli(["run", "--config", tmp_path / "missing.json"]) == 2
    assert "config error" in capsys.readouterr().err

    bad = write_config(tmp_path, {"scenario": "equivalence", "p": 15}, name="bad.json")
    assert run_cli(["run", "--config", bad]) == 2
    assert "p must be prime" in capsys.readouterr().err


TINY_DEMO = {"scenario": "hierarchy-demo", "horizon": 64, "tau_max": 16, "k_list": [0, 1, 2]}


@pytest.mark.parametrize(
    "payload, named",
    [
        ({"scenario": "identity-suite", "dim": 2}, ("dim", "identity-suite")),
        ({"scenario": "equivalence", "dim": 2}, ("dim", "equivalence")),
        ({**TINY_DEMO, "hurst": 0.5}, ("hurst", "hierarchy-demo")),
        ({**TINY_DEMO, "seed": 1}, ("seed", "hierarchy-demo")),
        ({**TINY_DEMO, "law": {"variant": "rademacher"}}, ("law", "hierarchy-demo")),
        *(({"scenario": s, "formats": ["binary"]}, ("formats", s)) for s in scenarios.SCENARIOS),
        ({**TINY_DEMO, "q": float("nan")}, ("q",)),
        ({"scenario": "equivalence", "hurst": float("inf")}, ("hurst",)),
        ({**TINY_DEMO, "epsilons": [float("inf")]}, ("epsilons",)),
        ({"scenario": "equivalence", "alpha_compare": float("inf")}, ("alpha_compare",)),
        # no K with p**K below the horizon
        ({"scenario": "theorem-5-2", "kmax": 10, "horizon": 8192, "k_list": [14], "replicates": 1}, ("k_list",)),
        # window grids that leave a translate with no window
        *(
            ({"scenario": "hierarchy-demo", "horizon": h, "tau_max": 2, "k_list": [0, 1]}, ("window_grid", "horizon"))
            for h in (5, 8)
        ),
        ({**TINY_DEMO, "window_grid": [100]}, ("window_grid",)),
        ({**TINY_DEMO, "window_grid": [4, 2]}, ("window_grid", "increasing")),
        ({"scenario": "theorem-5-2", "horizon": 8192, "window_grid": [1048576], "replicates": 1}, ("window_grid",)),
        # the shortest translate comes from the largest K, wherever it sits in k_list
        ({"scenario": "theorem-5-2", "horizon": 8192, "k_list": [12, 0], "window_grid": [5000]}, ("window_grid",)),
        # identity-suite's sublattice tests use K = 1 and 2
        ({"scenario": "identity-suite", "kmax": 1}, ("kmax", "identity-suite")),
        # every scenario that reads k_list needs a K with p**K below the horizon
        ({"scenario": "field-demo", "k_list": [7], "replicates": 1}, ("k_list",)),
        ({"scenario": "hierarchy-demo", "horizon": 512, "tau_max": 40, "k_list": [12]}, ("k_list",)),
        ({"scenario": "equivalence", "k_list": [20], "horizon": 4096, "replicates": 2, "tau_max": 64}, ("k_list",)),
    ],
)
def test_run_refuses_bad_keys_before_output(tmp_path, capsys, payload, named):
    out = tmp_path / "out"
    # json.dumps writes the NaN and Infinity tokens that json.load accepts
    cfg = write_config(tmp_path, {**payload, "out_dir": str(out)})
    assert run_cli(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert all(word in err for word in named), err
    assert not out.exists()


def test_run_seed_flag_refused_where_unread(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, TINY_DEMO)
    assert run_cli(["run", "--config", cfg, "--out", out, "--seed", 5]) == 2
    assert "hierarchy-demo: seed" in capsys.readouterr().err
    assert not out.exists()


def test_run_refuses_malformed_thread_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PADIC_SSSI_THREADS", "abc")
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {**TINY_DEMO, "out_dir": str(out)})
    assert run_cli(["run", "--config", cfg]) == 2
    assert "PADIC_SSSI_THREADS" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "payload", [{"scenario": "field-demo", "horizon": 6000}, {"scenario": "equivalence", "horizon": 1 << 26}]
)
def test_run_refuses_over_cap_before_output(tmp_path, capsys, monkeypatch, payload):
    drawn = []
    monkeypatch.setattr("padic_sssi.laws.keyed_values", lambda *a: drawn.append(a))
    out = tmp_path / "out"
    assert run_cli(["run", "--config", write_config(tmp_path, {**payload, "replicates": 1}), "--out", out]) == 3
    assert "resource cap" in capsys.readouterr().err
    assert not out.exists()
    assert drawn == []


def test_simulate_path_csv_and_binary(tmp_path, capsys):
    out = tmp_path / "sim"
    assert (
        run_cli(
            ["simulate", "--kmax", 5, "--horizon", 64, "--seed", 7, "--out", out, "--format", "both"]
        )
        == 0
    )
    lines = (out / "path.csv").read_text().strip().split("\n")
    assert lines[0] == "index,value"
    assert len(lines) == 65
    with open(out / "path.pssi", "rb") as fh:
        back = tree.read_binary(fh)
    assert back.horizon == 64
    assert back.spec.seed == 7
    csv_values = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
    assert np.array_equal(csv_values, back.values)


def test_simulate_field(tmp_path):
    out = tmp_path / "fld"
    assert (
        run_cli(
            ["simulate", "--dim", 2, "--kmax", 2, "--horizon", 9, "--out", out, "--format", "csv"]
        )
        == 0
    )
    lines = (out / "field.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 81


def test_simulate_rejects_bad_law(tmp_path, capsys):
    assert run_cli(["simulate", "--law", '{"variant": "pareto", "alpha": 0.5}', "--out", tmp_path]) == 2
    assert "alpha" in capsys.readouterr().err
    assert run_cli(["simulate", "--law", "not-json", "--out", tmp_path]) == 2
    # its largest draws, 8.30 * sigma, overflow a path
    out = tmp_path / "huge"
    huge = '{"variant": "gaussian", "sigma": 1e308}'
    assert run_cli(["simulate", "--law", huge, "--kmax", 3, "--horizon", 16, "--out", out]) == 2
    assert "sigma" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_deep_field_small_box(tmp_path):
    # keyed draws: level k draws min(p**(k+1), 16)**2 values, not its full period
    out = tmp_path / "deep"
    assert run_cli(["simulate", "--dim", 2, "--kmax", 12, "--horizon", 16, "--out", out, "--format", "binary"]) == 0
    with open(out / "field.pssi", "rb") as fh:
        assert tree.read_binary(fh).values.shape == (16, 16)


def test_simulate_resource_cap(tmp_path, capsys, monkeypatch):
    drawn = []
    monkeypatch.setattr("padic_sssi.laws.keyed_values", lambda *a: drawn.append(a))
    requests = [
        ["--dim", 2, "--kmax", 0, "--horizon", 100000],  # a 100000**2 output box
        ["--dim", 2, "--kmax", 12, "--horizon", 6000],  # 36 M box entries plus draws
        ["--kmax", 3, "--horizon", 1 << 25],
    ]
    for j, request in enumerate(requests):
        out = tmp_path / f"capped{j}"
        assert run_cli(["simulate", *request, "--out", out]) == 3
        assert "resource cap" in capsys.readouterr().err
        assert not out.exists()
    assert drawn == []


def test_simulate_refuses_infinite_hurst(tmp_path, capsys):
    # at 1e-300, p**-hurst rounds to 1.0 and the truncation bound divides by zero
    for hurst in ("inf", "1e-300"):
        out = tmp_path / hurst
        assert run_cli(["simulate", "--hurst", hurst, "--kmax", 3, "--horizon", 8, "--out", out]) == 2
        assert "hurst" in capsys.readouterr().err
        assert not out.exists()


def test_analyze_roundtrip(tmp_path, capsys):
    src = tmp_path / "series.csv"
    n = np.arange(256)
    values = (n % 4 == 0).astype(float)
    src.write_text("index,value\n" + "\n".join(f"{i},{float(v)!r}" for i, v in enumerate(values)) + "\n")
    out = tmp_path / "an"
    assert run_cli(["analyze", "--input", src, "--tau-max", 64, "--epsilon", 0.5, "--out", out]) == 0
    payload = json.loads((out / "analysis.json").read_text())
    assert payload["horizon"] == 256
    assert payload["bohr"][0]["taus"][:3] == [4, 8, 12]
    assert payload["moduli"]["0"] == 1.0  # classes mod 1 mix zeros and ones
    assert payload["moduli"]["2"] == 0.0  # period 4 = 2**2 makes classes constant
    assert (out / "modulus.csv").exists()
    assert (out / "profiles.csv").exists()
    assert (out / "running_max.csv").exists()


def test_analyze_headerless_single_column(tmp_path):
    src = tmp_path / "plain.csv"
    src.write_text("\n".join(str(float(x)) for x in range(32)) + "\n")
    out = tmp_path / "an2"
    assert run_cli(["analyze", "--input", src, "--tau-max", 8, "--out", out]) == 0
    payload = json.loads((out / "analysis.json").read_text())
    assert payload["horizon"] == 32
    assert payload["sup_norm"] == 31.0


def test_analyze_input_errors(tmp_path, capsys):
    assert run_cli(["analyze", "--input", tmp_path / "none.csv"]) == 2
    short = tmp_path / "short.csv"
    short.write_text("value\n1.0\n")
    assert run_cli(["analyze", "--input", short]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("value\n1.0\nfoo,bar\n")
    assert run_cli(["analyze", "--input", bad]) == 2
    nonfinite = tmp_path / "nonfinite.csv"
    nonfinite.write_text("index,value\n0,1.0\n1,nan\n2,inf\n")
    capsys.readouterr()
    assert run_cli(["analyze", "--input", nonfinite, "--out", tmp_path / "nf"]) == 2
    assert "'1,nan'" in capsys.readouterr().err
    assert not (tmp_path / "nf").exists()
    # finite values whose differences overflow float64
    spread = tmp_path / "spread.csv"
    spread.write_text("1e308\n-1e308\n1e308\n-1e308\n")
    assert run_cli(["analyze", "--input", spread, "--out", tmp_path / "sp"]) == 2
    assert "spread.csv" in capsys.readouterr().err
    assert not (tmp_path / "sp").exists()
    ok = tmp_path / "ok.csv"
    ok.write_text("value\n1.0\n2.0\n3.0\n")
    assert run_cli(["analyze", "--input", ok, "--p", 4]) == 2
    assert run_cli(["analyze", "--input", ok, "--q", 0.5]) == 2
    # every argument is checked before the first output is written
    for i, bad_args in enumerate(
        (
            ["--tau", 0],
            ["--tau", 3],
            ["--epsilon", -1],
            ["--epsilon", "nan"],
            ["--q", "nan"],
            ["--epsilon", "inf"],
            ["--q", "inf"],
        )
    ):
        out = tmp_path / f"bad{i}"
        assert run_cli(["analyze", "--input", ok, "--out", out, *bad_args]) == 2
        assert not out.exists()


def test_analyze_refuses_overflowing_q(tmp_path, capsys):
    src = tmp_path / "wide.csv"
    src.write_text("\n".join(repr(float(v)) for v in np.random.default_rng(5).normal(0.0, 100.0, 2048)) + "\n")
    # |u|**400 overflows float64, |u|**100 does not
    assert run_cli(["analyze", "--input", src, "--q", 400, "--out", tmp_path / "q400"]) == 2
    assert "q=400" in capsys.readouterr().err
    assert not (tmp_path / "q400").exists()
    assert run_cli(["analyze", "--input", src, "--q", 100, "--out", tmp_path / "q100"]) == 0
    json.loads((tmp_path / "q100" / "analysis.json").read_text())


@pytest.mark.parametrize(
    "payload",
    [
        # the alternating sequence has |u| = 2, and 2**2000 overflows
        {"scenario": "hierarchy-demo", "horizon": 256, "tau_max": 40, "k_list": [0, 1, 2], "q": 2000},
        # the level q-means B_{k,q} overflow at q = 300
        {
            "scenario": "theorem-5-2", "law": {"variant": "pareto", "alpha": 1.25}, "hurst": 0.7, "kmax": 8,
            "horizon": 1024, "k_list": [0, 1, 2], "q": 300, "replicates": 2,
        },
    ],
)
def test_run_refuses_overflowing_q_before_output(tmp_path, capsys, payload):
    out = tmp_path / "out"
    assert run_cli(["run", "--config", write_config(tmp_path, payload), "--out", out]) == 2
    assert f"q={float(payload['q'])}" in capsys.readouterr().err
    assert not out.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--version"])
    assert exc.value.code == 0
    assert "padic-sssi-lab" in capsys.readouterr().out
