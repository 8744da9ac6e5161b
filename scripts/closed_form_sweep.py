#!/usr/bin/env python3
"""Results of the rho = 0 closed form on the drawn-model strike sweep.

Usage:
    python3 scripts/closed_form_sweep.py CHECKOUT [--near]

Runs CHECKOUT's own ``rate_zero_rho`` from its ``src/`` on ``models/tanh.json``,
``perfbench/models/kinked.json`` and the fixed-seed models that
``_drawn_models()`` and ``_drawn_models(60, 7)`` of its
``tests/test_rate_zero.py`` draw, at the strikes K = F_V(0) e^x with
x in +-{0.05, 0.3, 0.6, 1, 1.5, 2, 3, 3.5, 4, 5}.  ``--near`` adds the
near-money scan |x| in 16 log-spaced points from 1e-13 to 1e-8, both signs,
on every model.  Prints one JSON list of ``{"set", "model", "x", ...}`` rows
(``model`` is the index within its set): a solved strike carries ``value``
and ``z_star`` as ``repr`` and every diagnostic but ``x`` (floats as
``repr``, so ``asset_branch``, ``kernel_calls``, ``derivative_evals`` and
``u_g`` among them); a failed one carries ``error``, the exception's type, and its
``message``.  Run it on two checkouts to compare them bit for bit, strike
by strike.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import sys
from pathlib import Path

XS = (0.05, 0.3, 0.6, 1.0, 1.5, 2.0, 3.0, 3.5, 4.0, 5.0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", type=Path)
    ap.add_argument("--near", action="store_true", help="add the near-money log scan")
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
    if args.near:
        xs += [s * 10.0 ** (-13.0 + 5.0 * i / 15.0) for i in range(16) for s in (1.0, -1.0)]

    rows = []
    for name, models in sets.items():
        for index, m in enumerate(models):
            f0 = vs.forward_variance_limit(m)
            for x in xs:
                row = {"set": name, "model": index, "x": x}
                try:
                    res = vs.rate_zero_rho(m, f0 * math.exp(x))
                except Exception as exc:  # noqa: BLE001 - every failure is a row
                    row.update(error=type(exc).__name__, message=str(exc))
                else:
                    diag = {key: repr(v) if isinstance(v, float) else v for key, v in res.diagnostics.items()}
                    row = {**diag, **row, "value": repr(res.value), "z_star": repr(res.z_star)}
                rows.append(row)
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
