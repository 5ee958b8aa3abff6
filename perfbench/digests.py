"""Print, or record, the output digest of each op in a workload's input pool.

    python3 perfbench/digests.py --workload NAME [--seed S] [--ops N]
    python3 perfbench/digests.py --write

The first form builds the pool from base seed S (default: the golden seed)
and prints one 'pool-index sha256' line per op, so two versions of the
package can be compared on fresh inputs with diff.  --write records the
digests of every workload's full pool at the golden seed in golden.json.
"""

from __future__ import annotations

import argparse
import json
import sys

import workloads as wl


def pool_digests(workload: wl.Workload, seed: int, count: int) -> list[str]:
    out = []
    with wl.work_dir(f"digests-{workload.name}"):
        for op in workload.pool(seed, count):
            wl.clear_cwd()
            op.run()
            out.append(op.digest())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--ops", type=int, default=8)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    if args.write:
        recorded = {name: pool_digests(w, wl.DEFAULT_SEED, w.pool_size) for name, w in wl.WORKLOADS.items()}
        wl.GOLDEN.write_text(json.dumps({"seed": wl.DEFAULT_SEED, "workloads": recorded}, indent=1) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required unless --write is given")
    for j, digest in enumerate(pool_digests(wl.WORKLOADS[args.workload], args.seed, args.ops)):
        print(j, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
