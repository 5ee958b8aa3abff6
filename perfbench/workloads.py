"""The benchmark's workloads: config resolution, op inputs, op execution, digests.

Each workload owns a pool of op inputs derived from a base seed.  Golden
digests are recorded for the pool at DEFAULT_SEED; a run with workload seed
s walks that pool in an order derived from s, so every op of every run is
checked against a recorded digest.  ``digests.py --seed S`` builds the pool
from S instead, which gives fresh inputs whose digests two versions of the
package can be compared on.

All ops run serially (``threads: 0``) with the current directory set to a
working directory under .bench_work/, so the relative paths they write stay stable and the
digests do not depend on where the checkout lives.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
# Serial work: one BLAS thread.  OpenBLAS reads this when numpy first loads;
# starting a thread per core there made set-up time slower and less steady.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import padic_sssi  # noqa: E402
from padic_sssi import cli, identity, scenarios, tree  # noqa: E402
from padic_sssi.errors import ResourceCapError  # noqa: E402

if Path(padic_sssi.__file__).resolve().parent != SRC / "padic_sssi":
    raise ImportError(f"padic_sssi was imported from {padic_sssi.__file__}, not from {SRC}")

DEFAULT_SEED = 20260816
GOLDEN = Path(__file__).resolve().parent / "golden.json"


class OpFailure(Exception):
    """An op returned a wrong exit code or skipped an expected refusal."""


@dataclass(frozen=True)
class Op:
    """One op: run() executes it; digest() hashes its outputs afterwards.

    useful_draws is the number of distinct (seed, level, residue) addresses
    the op's outputs need, counted from its config.
    """

    run: Callable[[], None]
    digest: Callable[[], str]
    useful_draws: int


def op_seed(workload: str, base_seed: int, index: int) -> int:
    h = hashlib.sha256(f"{workload}:{base_seed}:{index}".encode()).digest()
    return int.from_bytes(h[:8], "little") >> 2


def _digest_files(paths: list[str], extra: bytes = b"") -> str:
    """SHA-256 over (name, contents) of each file, then `extra`.

    Files are read in 64 KiB blocks, below glibc's initial mmap threshold:
    freeing one large buffer would raise that threshold and change how the
    package's own temporaries are allocated in later ops.
    """
    h = hashlib.sha256()
    for p in paths:
        h.update(p.encode() + b"\0")
        with open(p, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 16), b""):
                h.update(block)
        h.update(b"\0")
    h.update(extra)
    return h.hexdigest()


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


@contextlib.contextmanager
def work_dir(name: str):
    """Run the block inside a fresh .bench_work/<name>, removed afterwards."""
    work = ROOT / ".bench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)
    try:
        yield
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()


def clear_cwd() -> None:
    """Remove the previous op's outputs, so a digest never reads stale files."""
    for entry in os.listdir("."):
        if os.path.isdir(entry):
            shutil.rmtree(entry)
        else:
            os.remove(entry)


# ---------------------------------------------------------------------------
# scenario ops (heavy-paths, fields)


def _scenario_op(cfg: scenarios.ExperimentConfig, useful: int) -> Op:
    out = cfg.out_dir

    def run() -> None:
        code, _ = scenarios.run_scenario(cfg, check=False)
        if code != 0:
            raise OpFailure(f"run_scenario returned exit code {code}")

    def digest() -> str:
        csvs = sorted(str(p) for p in Path(out).glob("*.csv"))
        results = json.loads(Path(out, "summary.json").read_text())["results"]
        return _digest_files(csvs, _canonical(results))

    return Op(run, digest, useful)


def _heavy_config(seed: int = DEFAULT_SEED) -> scenarios.ExperimentConfig:
    return scenarios.resolve_config(
        {"scenario": "theorem-5-2", "replicates": 1, "threads": 0, "seed": seed, "out_dir": "heavy"}
    )


def _heavy_pool(base_seed: int, size: int) -> list[Op]:
    ops = []
    for j in range(size):
        cfg = _heavy_config(op_seed("heavy-paths", base_seed, j))
        # the streamed path keeps every level's full period for B_{k,q}
        useful = sum(cfg.p ** (k + 1) for k in range(cfg.kmax + 1))
        ops.append(_scenario_op(cfg, useful))
    return ops


def _field_config(seed: int = DEFAULT_SEED) -> scenarios.ExperimentConfig:
    return scenarios.resolve_config(
        {"scenario": "field-demo", "replicates": 1, "threads": 0, "seed": seed, "out_dir": "field"}
    )


def _fields_pool(base_seed: int, size: int) -> list[Op]:
    ops = []
    for j in range(size):
        cfg = _field_config(op_seed("fields", base_seed, j))
        box = cfg.horizon  # the box is {0..horizon-1}**dim
        useful = sum(min(cfg.p ** (k + 1), box) ** cfg.dim for k in range(cfg.kmax + 1))
        ops.append(_scenario_op(cfg, useful))
    return ops


def refusal_spec(seed: int) -> tree.TreeSpec:
    """The dim=2, kmax=12 field spec, which build_levels refuses at the default cap."""
    cfg = scenarios.resolve_config({"scenario": "field-demo", "kmax": 12, "threads": 0})
    return cfg.tree_spec(seed)


def refusal_op(seed: int) -> None:
    try:
        tree.build_levels(refusal_spec(seed))
    except ResourceCapError:
        return
    raise OpFailure("build_levels did not refuse a request over the cap")


# ---------------------------------------------------------------------------
# series-cli: the README session through cli.main

_SERIES = {"p": 2, "hurst": 0.7, "kmax": 16, "horizon": 1 << 16}
_LAW = '{"variant": "gaussian", "sigma": 1.0}'


def _series_argv(seed: int) -> tuple[list[str], list[str]]:
    simulate = ["simulate", "--law", _LAW, "--seed", str(seed), "--format", "both", "--out", "sim"]
    for key in ("p", "hurst", "kmax", "horizon"):
        simulate += [f"--{key}", str(_SERIES[key])]
    analyze = ["analyze", "--input", "sim/path.csv", "--tau-max", "1024"]
    analyze += ["--epsilon", "0.5", "--epsilon", "0.25", "--out", "diag"]
    return simulate, analyze


def _series_resolve() -> tree.TreeSpec:
    return tree.TreeSpec(
        p=_SERIES["p"], hurst=_SERIES["hurst"], kmax=_SERIES["kmax"], law=padic_sssi.Gaussian(1.0), seed=DEFAULT_SEED
    )


def _series_pool(base_seed: int, size: int) -> list[Op]:
    p, kmax, n = _SERIES["p"], _SERIES["kmax"], _SERIES["horizon"]
    useful = sum(min(p ** (k + 1), n) for k in range(kmax + 1))
    outputs = ["sim/path.csv", "sim/path.pssi"]
    outputs += [f"diag/{f}" for f in ("bohr.csv", "modulus.csv", "profiles.csv", "running_max.csv", "analysis.json")]
    ops = []
    for j in range(size):
        simulate, analyze = _series_argv(op_seed("series-cli", base_seed, j))

        def run(simulate=simulate, analyze=analyze) -> None:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                for argv in (simulate, analyze):
                    try:
                        code = cli.main(argv)
                    except SystemExit as exc:  # argparse rejected the arguments
                        code = exc.code
                    if code != 0:
                        raise OpFailure(f"{argv[0]} exited with code {code}")

        ops.append(Op(run, lambda: _digest_files(outputs), useful))
    return ops


def series_io_bytes() -> tuple[int, int]:
    """(bytes analyze read, bytes the op wrote) for the op just run."""
    written = sum(f.stat().st_size for d in ("sim", "diag") for f in Path(d).iterdir())
    return os.path.getsize("sim/path.csv"), written


# ---------------------------------------------------------------------------
# mc-identities: the identity-suite job list, one public test call per op

IDENTITY_JOBS: list[tuple[str, dict]] = (
    [("scaling", {"a": a, "index": n}) for a in (1, 2, 3, 4) for n in (1, 3)]
    + [("stationarity", {"shift": s, "index": n}) for s in (1, 2, 5) for n in (1, 2)]
    + [("sublattice", {"r": r, "K": K, "index": u, "mode": "matched"}) for r in (0, 1) for K in (1, 2) for u in (1, 3)]
    + [("sublattice", {"r": 0, "K": 1, "index": 1, "mode": "unmatched"})]
    + [("projection", {"indices": (1, 3), "weights": (1.0, 0.5), "a": 2})]
)
IDENTITY_ROWS = 24


def _identity_config() -> scenarios.ExperimentConfig:
    return scenarios.resolve_config({"scenario": "identity-suite", "threads": 0})


def _distinct_addresses(p: int, kmax: int, indices, levels=None) -> int:
    """Distinct (level, residue) pairs one seed needs for X at `indices` (origin included)."""
    levels = range(kmax + 1) if levels is None else levels
    return sum(len({i % p ** (k + 1) for i in indices} | {0}) for k in levels)


def _identity_call(spec: tree.TreeSpec, kind: str, prm: dict, seeds: int):
    if kind == "scaling":
        return identity.scaling_identity_test(spec, prm["a"], prm["index"], seeds)
    if kind == "stationarity":
        return identity.increment_stationarity_test(spec, prm["shift"], prm["index"], seeds)
    if kind == "sublattice":
        return identity.sublattice_law_test(spec, prm["r"], prm["K"], prm["index"], seeds, mode=prm["mode"])
    return identity.projection_probe_test(spec, prm["indices"], prm["weights"], prm["a"], seeds)


def _identity_useful(spec: tree.TreeSpec, kind: str, prm: dict, seeds: int) -> int:
    p, kmax = spec.p, spec.kmax
    if kind == "scaling":
        left, right = [prm["a"] * prm["index"]], [prm["index"]]
    elif kind == "stationarity":
        left, right = [prm["index"] + prm["shift"], prm["shift"]], [prm["index"]]
    elif kind == "projection":
        left, right = [prm["a"] * i for i in prm["indices"]], list(prm["indices"])
    else:
        K, r = prm["K"], prm["r"]
        hi = r + p ** K * prm["index"]
        lo_levels = range(K, kmax + 1)
        left_count = sum(len({hi % p ** (k + 1), r % p ** (k + 1)}) for k in lo_levels)
        right_kmax = kmax if prm["mode"] == "unmatched" else kmax - K
        return seeds * (left_count + _distinct_addresses(p, right_kmax, [prm["index"]]))
    return seeds * (_distinct_addresses(p, kmax, left) + _distinct_addresses(p, kmax, right))


def _identity_pool(base_seed: int, size: int) -> list[Op]:
    cfg = _identity_config()
    ops = []
    for j in range(size):
        kind, prm = IDENTITY_JOBS[j % len(IDENTITY_JOBS)]
        spec = cfg.tree_spec(op_seed("mc-identities", base_seed, j))
        box: dict = {}

        def run(spec=spec, kind=kind, prm=prm, box=box) -> None:
            box["report"] = _identity_call(spec, kind, prm, cfg.mc_seeds)

        def digest(box=box) -> str:
            fields = box["report"].to_dict()
            del fields["params"]
            return hashlib.sha256(_canonical(fields)).hexdigest()

        ops.append(Op(run, digest, _identity_useful(spec, kind, prm, cfg.mc_seeds)))
    return ops


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Workload:
    """resolve() is the config resolution that set-up covers; pool(seed, n)
    builds n op inputs; nominal_op_s sizes the traced passes."""

    name: str
    resolve: Callable[[], object]
    pool: Callable[[int, int], list[Op]]
    pool_size: int
    nominal_op_s: float
    refusal_first: bool = False
    cycle: int = 1

    def order(self, seed: int) -> Callable[[int], int]:
        """Map op number k to its pool index for workload seed `seed`.

        Whole cycles keep their op order (mc-identities walks the fixed job
        list); the seed shuffles which pool rows the cycles use.
        """
        rows = self.pool_size // self.cycle
        perm = random.Random(f"{self.name}:{seed}").sample(range(rows), rows)
        return lambda k: perm[(k // self.cycle) % rows] * self.cycle + k % self.cycle


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("heavy-paths", _heavy_config, _heavy_pool, pool_size=64, nominal_op_s=0.75),
        Workload("series-cli", _series_resolve, _series_pool, pool_size=64, nominal_op_s=0.75),
        Workload(
            "mc-identities",
            lambda: _identity_config().tree_spec(),
            _identity_pool,
            pool_size=len(IDENTITY_JOBS) * IDENTITY_ROWS,
            nominal_op_s=0.04,
            cycle=len(IDENTITY_JOBS),
        ),
        Workload(
            "fields",
            lambda: (_field_config(), refusal_spec(DEFAULT_SEED)),
            _fields_pool,
            pool_size=256,
            nominal_op_s=0.13,
            refusal_first=True,
        ),
    )
}


def load_golden() -> dict[str, list[str]]:
    data = json.loads(GOLDEN.read_text())
    if data["seed"] != DEFAULT_SEED:
        raise ValueError(f"{GOLDEN} was recorded at seed {data['seed']}, expected {DEFAULT_SEED}")
    return data["workloads"]
