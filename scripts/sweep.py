#!/usr/bin/env python3
"""Every result of one checkout's rate routes on a fixed sweep, as JSON.

Usage:
    python3 scripts/sweep.py CHECKOUT closed [--near]
    python3 scripts/sweep.py CHECKOUT h_only [--reverse]
    python3 scripts/sweep.py CHECKOUT transcription
    python3 scripts/sweep.py CHECKOUT ops [--seed 1]
    python3 scripts/sweep.py CHECKOUT mc

Runs CHECKOUT's own code from its ``src/`` and prints one JSON list of rows,
one per point, in the sweep's order.  Floats print as ``repr``, and a point
that raises becomes a row of its keys plus ``error``, the exception's type,
and its ``message``.  Run it on two checkouts to compare them bit for bit,
point by point.  ``tanh`` is ``models/tanh.json``, ``kinked``
``perfbench/models/kinked.json``, and ``drawn`` and ``drawn_60_7`` the
fixed-seed models that ``_drawn_models()`` and ``_drawn_models(60, 7)`` of
CHECKOUT's ``tests/test_rate_zero.py`` draw; strikes are K = F_V(0) e^x.

closed: ``rate_zero_rho`` on tanh, kinked and both drawn sets at x in
    +-{0.05, 0.3, 0.6, 1, 1.5, 2, 3, 3.5, 4, 5}; ``--near`` adds 16
    log-spaced |x| from 1e-13 to 1e-8, both signs.  ``{"set", "model", "x"}``
    rows (``model`` is the index within its set) carry ``value``, ``z_star``
    and every diagnostic.
h_only: ``rate_perfect_corr`` at rho = +-1 and ``rate_upper_corr_path`` at
    rho in {+-0.3, +-0.7, +-0.9}, on the same models, at x in
    +-{0.05, 0.15, 0.3, 0.6, 1, 2, 3} (|x| = 2 and 3 take wider coupled-map
    tables).  ``{"set", "model", "rho", "x"}`` rows carry ``value`` and, at
    rho = +-1, the diagnostics.  ``--reverse`` runs the points in the reverse
    order and prints them in the sweep's order, so its output matches the
    plain run's exactly when no result depends on the calls made before it.
transcription: ``rate_numeric`` on tanh and kinked at rho in {0, +-0.5, +-0.9}
    and x in +-{0.3, 0.5}, the 40-point sweep.  ``{"model", "rho", "x"}`` rows
    carry ``value``, ``lagrange``, ``paths`` (the sha1 of the bytes of ``g``
    then ``h``) and every diagnostic but ``x``.
ops: each rate op of the first ``closed_smooth``, ``closed_kinked`` and
    ``transcription`` passes that CHECKOUT's ``perfbench/run.py`` runs for
    ``--seed``.  A ``closed`` smile op reports the rho = 0 rate's
    ``kernel_calls`` and ``asset_branch`` at its strike; ``perfect_corr`` and
    ``bounds`` ops, run as the pass runs them, the quadrature kernel calls
    that ``numerics.count_kernel_calls`` counts; ``numeric`` ops their
    ``newton_iters``, ``grad_evals`` and ``kkt_residual``.  ``{"workload",
    "kind", "x", "rho", "asset_branch"}`` rows carry ``value``: the rate, or
    ``[lower, best_upper]`` for ``bounds``.
mc: the Monte Carlo simulator on tanh and kinked at rho in {0, +-0.7}, at
    seed 7 and T = 1/12, for the (paths x steps) shapes of ``MC_SHAPES``.
    ``{"model", "rho", "paths", "steps"}`` rows carry ``rv``, the sha1 of
    ``simulate_realized_variance``'s bytes, ``logs``, the sha1 of the log
    prices ``_simulate_core`` samples every ``stride`` steps, ``smile``,
    the ``repr`` of each ``mc_smile`` row of those samples at x in
    ``MC_XS``, and ``forward``, that smile's forward mean and standard
    error.  Thread timing must not move a bit: two runs of one checkout
    print the same bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import sys
from functools import partial
from pathlib import Path

CLOSED_XS = (0.05, 0.3, 0.6, 1.0, 1.5, 2.0, 3.0, 3.5, 4.0, 5.0)
H_ONLY_XS = (0.05, 0.15, 0.3, 0.6, 1.0, 2.0, 3.0)
H_ONLY_RHOS = (1.0, -1.0, 0.3, -0.3, 0.7, -0.7, 0.9, -0.9)
TRANSCRIPTION_RHOS = (0.0, 0.5, -0.5, 0.9, -0.9)
TRANSCRIPTION_XS = (0.3, -0.3, 0.5, -0.5)
# (paths, steps, stride): a partial chunk and block, two full chunks of three
# blocks, one tiny chunk, the benchmark's day shape and a three-chunk short run
MC_SHAPES = ((4200, 100, 10), (8192, 130, 13), (12, 7, 7), (262144, 20, 5), (10000, 3, 1))
MC_RHOS = (0.0, 0.7, -0.7)
MC_XS = (-0.2, -0.05, 0.0, 0.05, 0.2)


def _reprs(diagnostics: dict, skip=()) -> dict:
    """The diagnostics but ``skip``, each float as its ``repr``."""
    return {key: repr(v) if isinstance(v, float) else v for key, v in diagnostics.items() if key not in skip}


def _row(keys: dict, solve) -> dict:
    """``solve(keys)``, or ``keys`` with the type and message of what it raised."""
    try:
        return solve(keys)
    except Exception as exc:  # noqa: BLE001 - every failure is a row
        return {**keys, "error": type(exc).__name__, "message": str(exc)}


def _signed(xs) -> list[float]:
    return [s * x for x in xs for s in (1.0, -1.0)]


def _model_sets(vs, root: Path, drawn: bool) -> dict:
    sets = {"tanh": [vs.load_model(root / "models" / "tanh.json")],
            "kinked": [vs.load_model(root / "perfbench" / "models" / "kinked.json")]}
    if drawn:
        spec = importlib.util.spec_from_file_location("sweep_test_rate_zero", root / "tests" / "test_rate_zero.py")
        tests = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tests)
        sets.update(drawn=tests._drawn_models(), drawn_60_7=tests._drawn_models(60, 7))
    return sets


def closed(vs, root: Path, args):
    xs = _signed(CLOSED_XS)
    if args.near:
        xs += _signed(10.0 ** (-13.0 + 5.0 * i / 15.0) for i in range(16))

    def solve(m, keys):
        res = vs.rate_zero_rho(m, vs.forward_variance_limit(m) * math.exp(keys["x"]))
        return {**_reprs(res.diagnostics), **keys, "value": repr(res.value), "z_star": repr(res.z_star)}

    for name, models in _model_sets(vs, root, drawn=True).items():
        for index, m in enumerate(models):
            for x in xs:
                yield {"set": name, "model": index, "x": x}, partial(solve, m)


def h_only(vs, root: Path, args):
    def solve(m, keys):
        model = m.with_rho(keys["rho"])
        k = vs.forward_variance_limit(model) * math.exp(keys["x"])
        if abs(keys["rho"]) == 1.0:
            res = vs.rate_perfect_corr(model, k, int(keys["rho"]))
            return {**keys, **_reprs(res.diagnostics), "value": repr(res.value)}
        return {**keys, "value": repr(vs.rate_upper_corr_path(model, k))}

    for name, models in _model_sets(vs, root, drawn=True).items():
        for index, m in enumerate(models):
            for rho in H_ONLY_RHOS:
                for x in _signed(H_ONLY_XS):
                    yield {"set": name, "model": index, "rho": rho, "x": x}, partial(solve, m)


def transcription(vs, root: Path, args):
    def solve(m, keys):
        res = vs.rate_numeric(m, vs.forward_variance_limit(m) * math.exp(keys["x"]))
        paths = hashlib.sha1(res.paths.g.tobytes() + res.paths.h.tobytes()).hexdigest()
        return {**keys, "value": repr(float(res.value)), "lagrange": repr(float(res.lagrange)), "paths": paths,
                **_reprs(res.diagnostics, skip=("x",))}

    for name, [model] in _model_sets(vs, root, drawn=False).items():
        for rho in TRANSCRIPTION_RHOS:
            m = model.with_rho(rho)
            for x in TRANSCRIPTION_XS:
                yield {"model": name, "rho": rho, "x": x}, partial(solve, m)


def ops(vs, root: Path, args):
    sys.path.insert(1, str(root / "perfbench"))
    import workloads
    from varsmile.numerics import count_kernel_calls

    def solve(ctx, op, keys):
        row = dict(keys)
        if op.kind == "numeric":
            res = op.call()
            d = res.diagnostics
            row.update(newton_iters=d["newton_iters"], grad_evals=d["grad_evals"],
                       kkt_residual=repr(d["kkt_residual"]))
        elif op.kind == "closed":
            res = vs.rate_zero_rho(ctx.model, ctx.fv0 * math.exp(op.inputs["x"]))
            row.update(kernel_calls=res.diagnostics["kernel_calls"], asset_branch=res.diagnostics.get("asset_branch"))
        else:
            with count_kernel_calls() as counts:
                res = op.call()
            row["kernel_calls"] = counts[0]
        row["value"] = [repr(res.lower), repr(res.best_upper)] if op.kind == "bounds" else repr(res.value)
        return row

    for name in ("closed_smooth", "closed_kinked", "transcription"):
        w = workloads.WORKLOADS[name]
        ctx = workloads.setup(w, root)
        for op in workloads.pass_ops(w, ctx, args.seed, 0):
            keys = {"workload": name, "kind": op.kind, "x": op.inputs["x"], "rho": op.inputs.get("rho"),
                    "asset_branch": None}
            yield keys, partial(solve, ctx, op)


def mc(vs, root: Path, args):
    from varsmile.mc import _simulate_core

    def sha1(a) -> str:
        return hashlib.sha1(a.tobytes()).hexdigest()

    def solve(m, stride, keys):
        cfg = vs.McConfig(n_paths=keys["paths"], n_steps=keys["steps"], seed=7, maturity=1.0 / 12.0)
        rv = vs.simulate_realized_variance(m, cfg)
        _, logs = _simulate_core(m, cfg, sample_stride=stride)
        strikes = [vs.forward_variance_limit(m) * math.exp(x) for x in MC_XS]
        smile = vs.mc_smile(m, strikes, cfg.maturity, cfg, samples=rv)
        return {**keys, "rv": sha1(rv), "logs": sha1(logs), "smile": [repr(row) for row in smile],
                "forward": [repr(smile.forward.mean), repr(smile.forward.stderr)]}

    for name, [model] in _model_sets(vs, root, drawn=False).items():
        for rho in MC_RHOS:
            m = model.with_rho(rho)
            for paths, steps, stride in MC_SHAPES:
                yield {"model": name, "rho": rho, "paths": paths, "steps": steps}, partial(solve, m, stride)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", type=Path)
    sub = ap.add_subparsers(dest="sweep", required=True)
    for points in (closed, h_only, transcription, ops, mc):
        sub.add_parser(points.__name__).set_defaults(points=points)
    sub.choices["closed"].add_argument("--near", action="store_true", help="add the near-money log scan")
    sub.choices["h_only"].add_argument("--reverse", action="store_true", help="run the points in reverse order")
    sub.choices["ops"].add_argument("--seed", type=int, default=1, help="the perfbench seed of the passes")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    root = args.checkout.resolve()
    sys.path.insert(0, str(root / "src"))
    import varsmile as vs

    points = args.points(vs, root, args)
    if getattr(args, "reverse", False):
        rows = [_row(*p) for p in reversed(list(points))][::-1]
    else:
        rows = [_row(*p) for p in points]
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
