"""Self-test: the exact counters repeat run to run on a fixed seed.

    python3 perfbench/selftest.py

Runs every workload's traced pass twice at a reduced size (--seconds 1, so
one op, or one job-list cycle for mc-identities), each time in a fresh
process, and asserts that the counters below are identical between the two
runs and that every op matched its golden digest.  Exits 1 on a failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

EXACT = (
    "rng.philox4x32.blocks",
    "laws.keyed_values.values",
    "tree.build_levels.entries",
    "diagnostics.translate_sup_profile.pairs",
    "rng.useful_draws",
    "rng.useful_draw_ratio",
)
SEED = 7
RUN = Path(__file__).resolve().parent / "run.py"


def traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    failures = []
    for workload in ("heavy-paths", "series-cli", "mc-identities", "fields"):
        first, second = traced(workload), traced(workload)
        for result in (first, second):
            if not result["correct"]:
                failures.append(f"{workload}: {result['failed']} of {result['attempted']} ops failed")
        counts = {name: first["metrics"][name]["value"] for name in EXACT}
        for name in EXACT:
            if second["metrics"][name]["value"] != counts[name]:
                failures.append(f"{workload}: {name} {counts[name]} then {second['metrics'][name]['value']}")
        if counts["rng.useful_draws"] > counts["rng.philox4x32.blocks"]:
            failures.append(f"{workload}: more useful draws than Philox blocks")
        print(workload, json.dumps(counts, sort_keys=True))
    for failure in failures:
        print("FAIL", failure)
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
