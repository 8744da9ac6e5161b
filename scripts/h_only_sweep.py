#!/usr/bin/env python3
"""Results of the h-only route on the drawn-model strike sweep.

Usage:
    python3 scripts/h_only_sweep.py CHECKOUT [--reverse]

Runs CHECKOUT's own ``rate_perfect_corr`` at rho = +-1 and
``rate_upper_corr_path`` at rho in {+-0.3, +-0.7, +-0.9}, from its ``src/``,
on ``models/tanh.json``, ``perfbench/models/kinked.json`` and the
fixed-seed models that ``_drawn_models()`` and ``_drawn_models(60, 7)`` of
its ``tests/test_rate_zero.py`` draw, at the strikes K = F_V(0) e^x with x
in +-{0.05, 0.15, 0.3, 0.6, 1, 2, 3} (|x| = 2 and 3 take coupled-map
tables wider than the smallest).  Prints one JSON list of
``{"set", "model", "rho", "x", ...}`` rows (``model`` is the index within
its set), in the sweep's order: a solved perfect-correlation strike
carries ``value`` as ``repr`` and its diagnostics (floats as ``repr``), a
solved corr-path bound its ``value``; a failed one carries ``error``, the
exception's type, and its ``message``.  ``--reverse`` runs the same points
in the reverse order and prints them in the sweep's order, so its output
matches the plain run's exactly when no result depends on the calls made
before it.  Run it on two checkouts to compare them bit for bit, strike by
strike.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import sys
from pathlib import Path

XS = (0.05, 0.15, 0.3, 0.6, 1.0, 2.0, 3.0)
RHOS = (1.0, -1.0, 0.3, -0.3, 0.7, -0.7, 0.9, -0.9)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", type=Path)
    ap.add_argument("--reverse", action="store_true", help="run the points in reverse order")
    args = ap.parse_args(argv)

    root = args.checkout.resolve()
    sys.path.insert(0, str(root / "src"))
    import varsmile as vs

    spec = importlib.util.spec_from_file_location("sweep_test_rate_zero", root / "tests" / "test_rate_zero.py")
    tests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tests)

    sets = {
        "tanh": [vs.load_model(root / "models" / "tanh.json")],
        "kinked": [vs.load_model(root / "perfbench" / "models" / "kinked.json")],
        "drawn": tests._drawn_models(),
        "drawn_60_7": tests._drawn_models(60, 7),
    }
    xs = [s * x for x in XS for s in (1.0, -1.0)]
    points = [(name, index, m, rho, x) for name, models in sets.items() for index, m in enumerate(models)
              for rho in RHOS for x in xs]

    def run(name, index, m, rho, x):
        row = {"set": name, "model": index, "rho": rho, "x": x}
        model = m.with_rho(rho)
        k = vs.forward_variance_limit(model) * math.exp(x)
        try:
            if abs(rho) == 1.0:
                res = vs.rate_perfect_corr(model, k, int(rho))
                diag = {key: repr(v) if isinstance(v, float) else v for key, v in res.diagnostics.items()}
                row.update(diag, value=repr(res.value))
            else:
                row.update(value=repr(vs.rate_upper_corr_path(model, k)))
        except Exception as exc:  # noqa: BLE001 - every failure is a row
            row.update(error=type(exc).__name__, message=str(exc))
        return row

    order = range(len(points) - 1, -1, -1) if args.reverse else range(len(points))
    rows = [None] * len(points)
    for i in order:
        rows[i] = run(*points[i])
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
