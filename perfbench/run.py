"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
With ``--trace 0`` the run does one warm-up op and then ops for S seconds,
times set-up in fresh processes spread between those ops, and reports the
end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` it runs each of a fixed number of
ops twice, plain and then with per-layer spans installed, and reports the
per-layer metrics.  Every op's output digest is printed to stderr and checked against
golden.json.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 10
BYTES_PER_BLOCK = 32  # one Philox-4x32 block: 16 bytes of counter in, 16 out


class Runner:
    """Runs ops in a fixed order and tallies attempts, failures and times."""

    def __init__(self, wl, workload, seed: int, golden: list[str]) -> None:
        self.wl = wl
        self.name = workload.name
        self.pool = workload.pool(wl.DEFAULT_SEED, workload.pool_size)
        self.index = workload.order(seed)
        self.golden = golden
        self.refusal_seed = wl.op_seed(f"{workload.name}:refusal", seed, 0)
        self.attempted = 0
        self.failed = 0

    def op(self, k: int, after=None) -> float | None:
        """Run op k; return its time, or None when it failed."""
        j = self.index(k)
        op = self.pool[j]
        self.wl.clear_cwd()
        self.attempted += 1
        try:
            t0 = perf_counter()
            op.run()
            dt = perf_counter() - t0
            if after is not None:
                after(op)
            digest = op.digest()
        except Exception:  # an op failure is a measured outcome; keep running
            self.failed += 1
            print(f"[{self.name}] op {k} pool {j} FAILED\n{traceback.format_exc()}", file=sys.stderr)
            return None
        verdict = "ok" if digest == self.golden[j] else "MISMATCH"
        print(f"[{self.name}] op {k} pool {j} {dt:.6f} s sha256 {digest} {verdict}", file=sys.stderr)
        if verdict != "ok":
            self.failed += 1
            return None
        return dt

    def refusal(self) -> float:
        self.attempted += 1
        t0 = perf_counter()
        try:
            self.wl.refusal_op(self.refusal_seed)
        except Exception:
            self.failed += 1
            print(f"[{self.name}] refusal FAILED\n{traceback.format_exc()}", file=sys.stderr)
        dt = perf_counter() - t0
        print(f"[{self.name}] refusal {dt:.4f} s", file=sys.stderr)
        return dt


def measure_setup(name: str) -> float:
    """Time from spawning a fresh interpreter to its 'ready' line."""
    t0 = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), name], stdout=subprocess.PIPE, text=True
    ) as proc:
        line = proc.stdout.readline()
        dt = perf_counter() - t0
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
    return dt


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least 10 samples beyond it.

    With 10 samples or fewer no such percentile exists, and the maximum is
    reported instead.
    """
    ordered = sorted(times)
    i = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def end_to_end(runner: Runner, workload, seconds: float) -> dict:
    runner.op(0)  # warm-up
    # fields refuses right after the warm-up, so its peak RSS includes the
    # refusal and every timed op follows it; the other workloads refuse after
    # their peak RSS is read, so there the refusal moves no other metric
    refuse_s = runner.refusal() if workload.refusal_first else None
    # set-up probes are spread evenly between the timed ops, so that a slow
    # spell of the host shifts a few of them rather than all; their time is
    # kept off the op clock
    times, setup = [], []
    probe_s = 0.0
    start = perf_counter()
    k = 1
    while (elapsed := perf_counter() - start - probe_s) < seconds:
        if len(setup) < SETUP_SAMPLES and elapsed >= len(setup) * seconds / SETUP_SAMPLES:
            t0 = perf_counter()
            setup.append(measure_setup(workload.name))
            probe_s += perf_counter() - t0
            continue
        dt = runner.op(k)
        if dt is not None:
            times.append(dt)
        k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += [measure_setup(workload.name) for _ in range(SETUP_SAMPLES - len(setup))]
    if refuse_s is None:
        refuse_s = runner.refusal()
    if not times:
        raise RuntimeError("no op completed")
    tail_s, pct = tail(times)
    print(f"[{workload.name}] set-up probes (s): {' '.join(f'{x:.3f}' for x in setup)}", file=sys.stderr)
    fail_ratio = runner.failed / runner.attempted
    print(
        f"[{workload.name}] {len(times)} timed ops; op_tail_s is p{pct:.1f} of {len(times)} samples; "
        f"fail_ratio {fail_ratio} ({runner.failed}/{runner.attempted})"
    )
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(times) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": 1.0 - fail_ratio,
        "refuse_s": refuse_s,
    }


def per_layer(runner: Runner, workload, seconds: float, names: list[str]) -> dict:
    import spans  # loads numpy, so only after workloads has set the BLAS threads

    n = max(1, round(seconds / 2 / workload.nominal_op_s / workload.cycle)) * workload.cycle
    tracer = spans.Tracer()
    io = {"input": 0, "output": 0}
    useful = 0

    def after(op) -> None:
        nonlocal useful
        useful += op.useful_draws
        if workload.name == "series-cli":
            read, written = runner.wl.series_io_bytes()
            io["input"] += read
            io["output"] += written

    runner.op(0)  # warm-up, untraced
    with tracer.installed():
        if workload.refusal_first:
            runner.refusal()
        workload.resolve()
    # each op runs plain and then traced, so drift in host speed hits both alike
    plain_s = traced_s = 0.0
    for k in range(1, n + 1):
        plain = runner.op(k)
        with tracer.installed():
            traced = runner.op(k, after)
        if plain is not None and traced is not None:
            plain_s += plain
            traced_s += traced
    print(f"[{workload.name}] ran {n} ops plain and traced")

    stats = tracer.stats
    philox = stats["rng.philox4x32"]
    blocks = philox["blocks"]
    derived = {
        "rng.philox4x32.blocks_per_s": blocks / philox["self_s"] if philox["self_s"] else 0.0,
        "rng.philox4x32.lanes_per_call": blocks / philox["calls"] if philox["calls"] else 0.0,
        "rng.philox4x32.bytes_computed": int(blocks) * BYTES_PER_BLOCK,
        "rng.useful_draws": useful,
        "rng.useful_draw_ratio": useful / blocks if blocks else 0.0,
        "cli.input_bytes": io["input"],
        "cli.output_bytes": io["output"],
        "trace.overhead_ratio": plain_s / traced_s if traced_s else 0.0,
    }
    layers = {layer.name for layer in spans.LAYERS}
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
            continue
        layer, stat = name.rsplit(".", 1)
        if layer not in layers:
            raise KeyError(f"BENCHMARK.json names {name}, but no span records {layer}")
        value = stats[layer][stat]
        out[name] = value if stat == "self_s" else int(value)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        import workloads as wl

        golden = wl.load_golden()[args.workload]
        workload = wl.WORKLOADS[args.workload]
    except (OSError, ImportError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot start: {exc!r}", file=sys.stderr)
        return 2

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    with wl.work_dir(args.workload):
        runner = Runner(wl, workload, args.seed, golden)
        if args.trace:
            values = per_layer(runner, workload, args.seconds, list(units))
        else:
            values = end_to_end(runner, workload, args.seconds)
    if set(values) != set(units):
        print(f"perfbench: metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json", file=sys.stderr)
        return 2
    for name, value in values.items():
        print(f"{name} = {value} {units[name]}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
