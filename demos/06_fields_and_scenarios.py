"""
Random fields and packaged experiments
======================================

The one-dimensional construction extends verbatim to Z_p**d by keying
draws on residue tuples. This demo builds a small 2-d field, measures
its p-adic modulus and translation structure, then runs one of the
packaged experiment scenarios end to end through the same entry point
the command line uses.
"""

import json
import pathlib
import tempfile

import numpy as np

from padic_sssi import Gaussian, PadicContext, TreeSpec, field
from padic_sssi.diagnostics import modulus_curve, translation_vectors_field
from padic_sssi.scenarios import resolve_config, run_scenario


def main() -> int:
    # a 64 x 64 window of a 2-d field with 5 hierarchy levels
    spec = TreeSpec(p=2, hurst=0.7, kmax=4, law=Gaussian(1.0), seed=31337, dim=2)
    grid = field(spec, side=63).values
    print(f"field window shape {grid.shape}, X(0,0) = {grid[0, 0]:.6f}")

    # the modulus over residue classes of 2**K decays with K; one pass over
    # the grid gives every K (and the limit-periodic errors, unused here)
    ctx = PadicContext(2)
    omega, _ = modulus_curve(grid, ctx, range(5))
    print("field modulus by level:", [f"{w:.4f}" for w in omega])

    # translation vectors h with sup |X(x+h) - X(x)| < eps form a coarse
    # sublattice: at eps just above omega(2), every h in (4Z)^2 is accepted
    eps = omega[2] + 1e-6
    report = translation_vectors_field(grid, epsilon=eps, h_max=16)
    print(f"accepted shifts at eps = {eps:.4f}: {len(report.accepted)}"
          f", covering side {report.covering_side}")

    # scenarios bundle simulation plus diagnostics plus self-checks; the
    # same resolver backs the CLI, so a dict is all it takes to run one
    with tempfile.TemporaryDirectory() as tmp:
        cfg = resolve_config(
            {"scenario": "hierarchy-demo", "out_dir": tmp, "horizon": 1024, "k_list": list(range(8))}
        )
        code, payload = run_scenario(cfg, check=True)
        print(f"hierarchy-demo exit code {code}, check failures: {payload['check_failures']}")
        summary = json.loads((pathlib.Path(tmp) / "summary.json").read_text())
        print("summary keys:", sorted(summary))
        print("files written:", sorted(q.name for q in pathlib.Path(tmp).iterdir()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
