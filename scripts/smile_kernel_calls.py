#!/usr/bin/env python3
"""Kernel calls of each closed-form smile strike in closed_smooth's first pass.

Usage:
    python3 scripts/smile_kernel_calls.py CHECKOUT [--seed 1]

Builds the first ``closed_smooth`` pass that ``perfbench/run.py`` would run
for the seed, from CHECKOUT's own ``src/`` and ``perfbench/``, and solves the
rho = 0 rate at the strike of each ``closed`` smile op.  Prints one JSON
list of ``{"x", "kernel_calls", "asset_branch"}`` rows, ``asset_branch``
being null where the rate does not report one.  Run it on two checkouts to
compare their kernel calls per strike.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", type=Path)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import varsmile as vs
    import workloads

    w = workloads.WORKLOADS["closed_smooth"]
    ctx = workloads.setup(w, root)
    rows = []
    for op in workloads.pass_ops(w, ctx, args.seed, 0):
        if op.kind == "closed":
            x = op.inputs["x"]
            diag = vs.rate_zero_rho(ctx.model, ctx.fv0 * math.exp(x)).diagnostics
            rows.append({"x": x, "kernel_calls": diag["kernel_calls"], "asset_branch": diag.get("asset_branch")})
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
