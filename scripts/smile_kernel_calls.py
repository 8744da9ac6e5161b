#!/usr/bin/env python3
"""Kernel calls and results of each rate op in the first closed_smooth,
closed_kinked and transcription passes.

Usage:
    python3 scripts/smile_kernel_calls.py CHECKOUT [--seed 1]

Builds the first ``closed_smooth``, ``closed_kinked`` and ``transcription``
passes that ``perfbench/run.py`` would run for the seed, from CHECKOUT's own
``src/`` and ``perfbench/``.  For each ``closed`` smile op it solves the
rho = 0 rate at the op's strike and reports that rate's ``kernel_calls`` and
``asset_branch`` (null where the rate does not report one); each
``perfect_corr`` and ``bounds`` op is run as the pass runs it, its quadrature
kernel calls counted by ``numerics.count_kernel_calls``.  Each transcription
``numeric`` op (``rate_numeric``) is run as the pass runs it, and its row
carries the Newton record in place of ``kernel_calls``: ``newton_iters``,
``grad_evals`` and ``kkt_residual`` (as ``repr``).  Each row's ``value`` is
the op's result as ``repr``: the rate, or ``[lower, best_upper]`` for
``bounds``.  Prints one JSON list of ``{"workload", "kind", "x", "rho",
"asset_branch", "value", ...}`` rows (``rho`` null for ``closed``).  Run it
on two checkouts to compare their kernel calls, Newton records and rates,
bit for bit, per op.
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
    from varsmile.numerics import count_kernel_calls

    rows = []
    for name in ("closed_smooth", "closed_kinked", "transcription"):
        w = workloads.WORKLOADS[name]
        ctx = workloads.setup(w, root)
        for op in workloads.pass_ops(w, ctx, args.seed, 0):
            row = {"workload": name, "kind": op.kind, "x": op.inputs["x"], "rho": op.inputs.get("rho"),
                   "asset_branch": None}
            if op.kind == "numeric":
                res = op.call()
                d = res.diagnostics
                row.update(newton_iters=d["newton_iters"], grad_evals=d["grad_evals"],
                           kkt_residual=repr(d["kkt_residual"]))
            elif op.kind == "closed":
                res = vs.rate_zero_rho(ctx.model, ctx.fv0 * math.exp(op.inputs["x"]))
                row.update(kernel_calls=res.diagnostics["kernel_calls"],
                           asset_branch=res.diagnostics.get("asset_branch"))
            else:
                with count_kernel_calls() as counts:
                    res = op.call()
                row["kernel_calls"] = counts[0]
            row["value"] = [repr(res.lower), repr(res.best_upper)] if op.kind == "bounds" else repr(res.value)
            rows.append(row)
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
