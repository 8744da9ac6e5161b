#!/usr/bin/env python3
"""Results of the direct transcription on the 40-point sweep.

Usage:
    python3 scripts/transcription_sweep.py CHECKOUT

Runs CHECKOUT's own ``rate_numeric`` from its ``src/`` on ``models/tanh.json``
and ``perfbench/models/kinked.json``, at rho in {0, +-0.5, +-0.9} and the
strikes K = F_V(0) e^x with x in +-{0.3, 0.5}, at the default grid.  Prints
one JSON list of ``{"model", "rho", "x", ...}`` rows: a solved point carries
``value`` and ``lagrange`` as ``repr``, ``paths``, the sha1 of the bytes of
its ``g`` then ``h`` arrays, and every diagnostic but ``x`` (floats as
``repr``); a failed one carries ``error``, the exception's type, and its
``message``.  Run it on two checkouts to compare them bit for bit, point by
point.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

RHOS = (0.0, 0.5, -0.5, 0.9, -0.9)
XS = (0.3, -0.3, 0.5, -0.5)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", type=Path)
    args = ap.parse_args(argv)

    root = args.checkout.resolve()
    sys.path.insert(0, str(root / "src"))
    import varsmile as vs

    models = {
        "tanh": vs.load_model(root / "models" / "tanh.json"),
        "kinked": vs.load_model(root / "perfbench" / "models" / "kinked.json"),
    }
    rows = []
    for name, model in models.items():
        for rho in RHOS:
            m = model.with_rho(rho)
            f0 = vs.forward_variance_limit(m)
            for x in XS:
                row = {"model": name, "rho": rho, "x": x}
                try:
                    res = vs.rate_numeric(m, f0 * math.exp(x))
                except Exception as exc:  # noqa: BLE001 - every failure is a row
                    row.update(error=type(exc).__name__, message=str(exc))
                else:
                    diag = {key: repr(v) if isinstance(v, float) else v
                            for key, v in res.diagnostics.items() if key != "x"}
                    paths = hashlib.sha1(res.paths.g.tobytes() + res.paths.h.tobytes()).hexdigest()
                    row.update(value=repr(float(res.value)), lagrange=repr(float(res.lagrange)), paths=paths, **diag)
                rows.append(row)
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
