"""Command-line front end.

Subcommands: rate, smile, atm, mc, table1, figures.  Output is data only
(JSON to stdout, CSV to --out); identical flags and seed give byte-identical
files.  Exit codes: 0 success, 1 usage, 2 domain or numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from . import atm as atm_mod
from . import mc as mc_mod
from . import smile as smile_mod
from .errors import NumericsError
from .model import LsvModel, load_model, model_to_dict, validate, forward_variance_limit
from .rate_general import rate_by_method

_SKEW_NOTE = (
    "note: rho=0 skew from the closed-form expression is reported; a commonly "
    "quoted reference value 0.1553 appears to be a transcription slip (it repeats "
    "the ATM level's digits), the formula gives ~0.1159."
)


# RateResult fields that ``rate`` reports per method
_RATE_FIELDS = {
    "closed": ("method", "value", "z_star", "g_endpoint", "lagrange", "g_cost", "h_cost"),
    "numeric": ("method", "value", "g_cost", "h_cost"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _parse_grid(spec: str) -> list[float]:
    """lo:hi:n inclusive grid, or a single number."""
    parts = spec.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise ValueError(f"grid must be lo:hi:n, got {spec!r}")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n < 1:
        raise ValueError("grid needs n >= 1")
    if n == 1:
        return [lo]
    return list(np.linspace(lo, hi, n))


def _write(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _model_hash(model: LsvModel) -> str:
    blob = json.dumps(model_to_dict(model), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _load_checked(path: str) -> LsvModel:
    model = load_model(path)
    report = validate(model)
    if not report.valid:
        raise ValueError("invalid model: " + "; ".join(report.errors))
    for w in report.warnings:
        sys.stderr.write(f"warning: {w}\n")
    return model


def _strikes_from_args(model: LsvModel, args) -> list[float]:
    if args.k is not None:
        strikes = [float(v) for v in _parse_grid(args.k)]
    elif args.x is not None:
        fv0 = forward_variance_limit(model)
        try:
            strikes = [fv0 * math.exp(x) for x in _parse_grid(args.x)]
        except OverflowError:
            raise ValueError(f"--x {args.x} overflows the strike") from None
    else:
        raise ValueError("need --k or --x")
    if not all(math.isfinite(k) for k in strikes):
        raise ValueError(f"strikes must be finite, got {strikes}")
    return strikes


def _cfg_from_args(args, default_t=1.0 / 12.0) -> mc_mod.McConfig:
    return mc_mod.McConfig(
        n_paths=args.paths,
        n_steps=args.steps,
        seed=args.seed,
        maturity=args.T if args.T is not None else default_t,
    )


def _cmd_rate(args) -> int:
    model = _load_checked(args.model)
    strikes = _strikes_from_args(model, args)
    out = []
    for k in strikes:
        res = rate_by_method(model, k, args.method)
        if args.method == "bounds":
            payload = {
                "strike": k,
                "method": "bounds",
                "lower": res.lower,
                "best_upper": res.best_upper,
                "upper_candidates": dict(res.upper_candidates),
            }
        elif args.method == "expansion":
            payload = {"strike": k, "method": "expansion", "value": res.value, "x": res.diagnostics["x"]}
        else:
            payload = {"strike": k, **{f: getattr(res, f) for f in _RATE_FIELDS[args.method]}}
            if args.method == "numeric":
                payload["constraint_residual"] = res.diagnostics.get("constraint_residual")
        out.append(payload)
    _write(args.out, json.dumps(out[0] if len(out) == 1 else out, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_smile(args) -> int:
    model = _load_checked(args.model)
    strikes = _strikes_from_args(model, args)
    curve = smile_mod.SmileCurve(
        points=tuple(
            smile_mod.asymptotic_smile(model, k, rate_method=args.method) for k in strikes
        )
    )
    lines = ["K,x,sigma_v,method,lo,hi"]
    for pt in curve:
        lines.append(
            ",".join(_fmt(v) for v in (pt.strike, pt.x, pt.sigma_v, pt.method, pt.lo, pt.hi))
        )
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_atm(args) -> int:
    model = _load_checked(args.model)
    sig_atm, s_v = smile_mod.linear_smile_coeffs(model)
    exp = atm_mod.atm_expansion(model)
    payload = {
        "forward_variance_limit": forward_variance_limit(model),
        "atm_price_over_sqrt_t": atm_mod.atm_price_limit(model),
        "sigma_v_atm": sig_atm,
        "skew_s_v": s_v,
        "x2_coefficient": exp.A,
        "x3_coefficient": exp.B,
        "denominator_d": exp.D,
    }
    _write(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_mc(args) -> int:
    model = _load_checked(args.model)
    strikes = _strikes_from_args(model, args)
    cfg = _cfg_from_args(args)
    t0 = time.perf_counter()
    rv = mc_mod.simulate_realized_variance(model, cfg)
    t1 = time.perf_counter()
    sm = mc_mod.mc_smile(model, strikes, cfg.maturity, cfg, samples=rv)
    t2 = time.perf_counter()
    fields = ("strike", "x", "call", "call_se", "put", "put_se", "ivol", "ivol_se")
    lines = ["K,x,call,call_se,put,put_se,ivol,ivol_se"]
    lines += [",".join(_fmt(getattr(row, f)) for f in fields) for row in sm]
    _write(args.out, "\n".join(lines) + "\n")
    meta = {
        "seed": cfg.seed,
        "config": asdict(cfg),
        "model_hash": _model_hash(model),
        "forward": sm.forward.mean,
        "forward_se": sm.forward.stderr,
        "timing": {"simulate_s": t1 - t0, "price_s": t2 - t1},
    }
    meta_path = (args.out + ".meta.json") if args.out else None
    _write(meta_path, json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_table1(args) -> int:
    model = _load_checked(args.model)
    rows = []
    for rho in (-0.7, 0.0, 0.7):
        m = replace(model, rho=rho)
        sig_atm, s_v = smile_mod.linear_smile_coeffs(m)
        row = {"rho": rho, "sigma_v_atm": sig_atm, "s_v": s_v}
        if args.mc:
            cfg = _cfg_from_args(args)
            _, _, fwd = mc_mod.mc_price(m, forward_variance_limit(m), cfg)
            row["fv_mc"] = fwd.mean
            row["fv_mc_se"] = fwd.stderr
        rows.append(row)

    header = ["rho", "sigma_v_atm", "s_v"] + (["fv_mc", "fv_mc_se"] if args.mc else [])
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(h)) for h in header))
    text = "\n".join(lines) + "\n" + _SKEW_NOTE + "\n"
    _write(args.out, text)
    return 0


def _cmd_figures(args) -> int:
    model = _load_checked(args.model)
    cfg = _cfg_from_args(args, default_t=1.0 / 252.0)
    xs = _parse_grid(args.x) if args.x else list(np.linspace(-0.1, 0.1, 21))
    lines = ["rho,T,K,x,mc_ivol,mc_ivol_se,lin_ivol,reliable"]
    for rho in (-0.7, 0.0, 0.7):
        m = replace(model, rho=rho)
        fv0 = forward_variance_limit(m)
        strikes = [fv0 * math.exp(x) for x in xs]
        sm = mc_mod.mc_smile(m, strikes, cfg.maturity, cfg)
        for row in sm:
            lin = smile_mod.linear_smile(m, row.x)
            lines.append(
                ",".join(
                    _fmt(v)
                    for v in (rho, cfg.maturity, row.strike, row.x, row.ivol, row.ivol_se, lin, row.reliable)
                )
            )
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _build_parser() -> _Parser:
    p = _Parser(prog="varsmile", description="Variance-option asymptotics and Monte Carlo")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, mc_opts=False, method=None):
        sp.add_argument("--model", required=True, help="model JSON file")
        sp.add_argument("--out", default=None, help="output file (default stdout)")
        if method:
            sp.add_argument(
                "--method", default=method[0], choices=method, help="rate computation method"
            )
        if mc_opts:
            sp.add_argument("--T", type=float, default=None, help="maturity in years")
            sp.add_argument("--paths", type=int, default=100_000)
            sp.add_argument("--steps", type=int, default=2000)
            sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("rate", help="rate function at one or more strikes")
    common(sp, method=("closed", "bounds", "numeric", "expansion"))
    sp.add_argument("--k", default=None, help="strike (variance units) or lo:hi:n")
    sp.add_argument("--x", default=None, help="log-moneyness or lo:hi:n")
    sp.set_defaults(func=_cmd_rate)

    sp = sub.add_parser("smile", help="asymptotic implied-vol smile CSV")
    common(sp, method=("closed", "bounds", "numeric", "expansion"))
    sp.add_argument("--k", default=None)
    sp.add_argument("--x", default=None)
    sp.set_defaults(func=_cmd_smile)

    sp = sub.add_parser("atm", help="ATM constants: vol level, skew, sqrt(T) price limit")
    common(sp)
    sp.set_defaults(func=_cmd_atm)

    sp = sub.add_parser("mc", help="Monte Carlo price/smile CSV with metadata JSON")
    common(sp, mc_opts=True)
    sp.add_argument("--k", default=None)
    sp.add_argument("--x", default=None)
    sp.set_defaults(func=_cmd_mc)

    sp = sub.add_parser("table1", help="ATM level and skew for rho in {-0.7, 0, 0.7}")
    common(sp, mc_opts=True)
    sp.add_argument("--mc", action="store_true", help="append Monte Carlo forwards (slow)")
    sp.set_defaults(func=_cmd_table1)

    sp = sub.add_parser("figures", help="MC smile vs linear smile data for the rho sweep")
    common(sp, mc_opts=True)
    sp.add_argument("--x", default=None, help="log-moneyness grid lo:hi:n")
    sp.set_defaults(func=_cmd_figures)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, NumericsError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
