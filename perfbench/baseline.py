"""Re-measure the layer and scenario rows of ROADMAP.md's baseline table.

    python3 perfbench/baseline.py

Prints the machine (CPU count, model, caches, Python/numpy/scipy versions)
and one markdown row per layer and per scenario with the best and median
of three repeats, timed with time.perf_counter in this one process.  The
scenarios run with their default configs, serial and with threads=2.
"""

from __future__ import annotations

import os
import platform
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import workloads as wl
from padic_sssi import diagnostics, identity, laws, rng, scenarios, tree
from padic_sssi.errors import ResourceCapError

REPEATS = 3


def machine() -> list[str]:
    model = next(
        (ln.split(":", 1)[1].strip() for ln in Path("/proc/cpuinfo").read_text().splitlines() if ln.startswith("model name")),
        platform.processor(),
    )
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        caches.append(f"L{level} {kind} {size}")
    return [
        f"nproc {os.cpu_count()}",
        f"CPU {model}",
        f"caches per core (cpu0) {', '.join(caches)}",
        f"Python {platform.python_version()}, numpy {np.__version__}, scipy {scipy.__version__}",
    ]


def timed(fn) -> tuple[float, float]:
    samples = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        fn()
        samples.append(perf_counter() - t0)
    return min(samples), statistics.median(samples)


def min_draw_sum(spec: tree.TreeSpec, horizon: int) -> np.ndarray:
    """The lazy_path sum drawing only min(p**(k+1), N) residues per level."""
    n = np.arange(horizon, dtype=np.int64)
    acc = np.zeros(horizon, dtype=np.float64)
    for k in range(spec.kmax, -1, -1):
        m = spec.level_modulus(k)
        arr = tree.level_values(spec, k, np.arange(min(m, horizon), dtype=np.int64))
        acc += spec.weight(k) * (arr[n % m] - arr[0])
    return acc


def refuse() -> None:
    try:
        tree.build_levels(wl.refusal_spec(wl.DEFAULT_SEED))
    except ResourceCapError:
        return
    raise RuntimeError("build_levels did not refuse")


def layer_rows() -> list[tuple[str, str, callable]]:
    blocks = 1 << 20
    idx = np.arange(blocks, dtype=np.uint32)
    chunk = 1 << 16

    def chunked():
        for s in range(0, blocks, chunk):
            rng.philox4x32(idx[s : s + chunk], 7, 0, 0, 11, 13)

    t52 = tree.TreeSpec(p=2, hurst=0.7, kmax=20, law=laws.SymmetricPareto(1.25), seed=wl.DEFAULT_SEED)
    series = tree.lazy_path(tree.TreeSpec(p=2, hurst=0.7, kmax=16, law=laws.Gaussian(1.0), seed=1), 1 << 16).values
    mc = scenarios.resolve_config({"scenario": "identity-suite"}).tree_spec()
    rows = [
        ("`philox4x32`", "2^20 blocks, one call", lambda: rng.philox4x32(idx, 7, 0, 0, 11, 13)),
        ("same, chunked to 2^16 lanes", "2^20 blocks", chunked),
    ]
    for law in (laws.Gaussian(1.0), laws.SymmetricPareto(1.5), laws.Rademacher()):
        rows.append((f"`keyed_values` {type(law).__name__}", "2^20", lambda law=law: laws.keyed_values(law, 5, 3, idx)))
    rows += [
        ("`lazy_path` kmax=20, N=2^18 (theorem-5-2 shape)", "-", lambda: tree.lazy_path(t52, 1 << 18)),
        ("same sum, drawing min(p^(k+1), N) per level", "-", lambda: min_draw_sum(t52, 1 << 18)),
        ("`translate_sup_profile` tau_max=1024, N=2^16", "-", lambda: diagnostics.translate_sup_profile(series, 1024)),
        ("`sublattice_law_test`, 10^4 seeds", "-", lambda: identity.sublattice_law_test(mc, 0, 1, 1, 10000)),
        ("`build_levels` refusing a dim=2, kmax=12 spec", "-", refuse),
    ]
    return rows


def main() -> None:
    for line in machine():
        print(line)
    small = tree.TreeSpec(p=2, hurst=0.7, kmax=8, law=laws.Gaussian(1.0), seed=3)
    if not np.array_equal(tree.lazy_path(small, 300).values, min_draw_sum(small, 300)):
        raise RuntimeError("min-draw sum is not bit-identical to lazy_path")
    print("\n| layer | size | best | median |\n| --- | --- | --- | --- |")
    for name, size, fn in layer_rows():
        best, med = timed(fn)
        print(f"| {name} | {size} | {best * 1e3:.0f} ms | {med * 1e3:.0f} ms |", flush=True)
    print("\n| scenario | threads | best | median |\n| --- | --- | --- | --- |")
    with wl.work_dir("baseline"):
        for name in ("theorem-5-2", "equivalence", "identity-suite", "field-demo"):
            for threads in (0, 2):
                cfg = scenarios.resolve_config({"scenario": name, "threads": threads, "out_dir": "out"})
                best, med = timed(lambda: scenarios.run_scenario(cfg))
                print(f"| `{name}` | {threads or 'serial'} | {best:.2f} s | {med:.2f} s |", flush=True)


if __name__ == "__main__":
    main()
