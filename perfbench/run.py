"""varsmile benchmark: one workload, one process, one calling thread.

    python3 perfbench/run.py --workload closed_smooth --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  Ops are issued in a closed loop (each public call starts
when the previous one returns).  A run sets up three times, then runs whole
passes over seeded inputs until the next pass would end after ``--seconds``
(at least one pass; at least ``min_passes`` for workloads that set it).  Every result is checked by an oracle (see
``workloads.py``).

``--trace 0`` prints the end-to-end metrics.  Their times are wall times put
on a reference host speed by ``speed.SpeedProbe``; the raw wall times are
printed beside them.  ``--trace 1`` runs one pass untraced and the same
inputs again traced, and prints the per-layer metrics (raw wall times, except
``trace.overhead_frac``, which compares the two passes on the probe's scale);
the spans go to ``perfbench/out/``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from speed import SpeedProbe
from tracer import LAYER_UNITS, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _run_pass(ops, tracer=None):
    """Issue each op in turn; returns [(op, result, error, t0, t1)], t0, t1."""
    out = []
    t_pass = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(i, op.kind)
        t0 = time.perf_counter()
        try:
            res, err = op.call(), None
        except Exception as exc:  # a failing op is counted, not fatal
            res, err = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_op()
        out.append((op, res, err, t0, t1))
    return out, t_pass, time.perf_counter()


def _check_pass(results, failures: list) -> None:
    for op, res, err, _, _ in results:
        reason = err
        if reason is None:
            try:
                reason = op.check(res)
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            failures.append((op.kind, op.inputs, reason))


def _src_loc() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def _per_layer(tracer, plain, traced, overhead_frac):
    numeric_ops = {i for i, (op, *_) in enumerate(traced) if op.kind == "numeric"}
    values, absent = layer_metrics(tracer, numeric_ops)
    # MC throughput from the untraced pass, so wrapper cost does not count
    by_kind = {op.kind: op for op, *_ in plain}
    for kind in ("mc_month", "mc_day"):
        op = by_kind.get(kind)
        name = f"mc.{kind[3:]}.path_steps_per_s"
        values[name] = op.extra["path_steps"] / op.extra["sim_s"] if op and "sim_s" in op.extra else 0.0
    month = by_kind.get("mc_month")
    values["mc.s_to_target_se"] = (
        month.extra["sim_s"] * (month.extra["ivol_se_atm"] / 1e-3) ** 2
        if month and "ivol_se_atm" in month.extra else 0.0
    )
    values["trace.overhead_frac"] = overhead_frac
    values["code.src_loc"] = _src_loc()
    return {k: (values[k], u) for k, u in LAYER_UNITS.items()}, absent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "varsmile" / "__init__.py").is_file():
        print(f"no varsmile package under {src}", file=sys.stderr)
        return 2
    probe = SpeedProbe()
    probe.start()
    try:
        return _main(args, src, probe)
    finally:
        probe.stop()


def _main(args, src: Path, probe: SpeedProbe) -> int:
    # numpy and scipy.integrate are already imported by the probe; this times
    # varsmile's own modules and the rest of its dependencies
    t_import = time.perf_counter()
    sys.path.insert(0, str(src))
    import varsmile

    t_imported = time.perf_counter()
    if Path(varsmile.__file__).resolve().parent != (src / "varsmile").resolve():
        print(f"imported varsmile from {varsmile.__file__}, not {src}", file=sys.stderr)
        return 2

    import workloads

    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not (ROOT / w.model).is_file():
        print(f"missing model file {ROOT / w.model}", file=sys.stderr)
        return 2

    # set-up: load and validate the model, generate the first pass's inputs,
    # one warm-up op; repeated, median taken, plus the one-time import
    setups = []
    for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
        t0 = time.perf_counter()
        ctx = workloads.setup(w, ROOT)
        first_ops = workloads.pass_ops(w, ctx, args.seed, 0)
        setups.append((t0, time.perf_counter()))

    failures: list = []
    attempted = 0
    if w.run_checks is not None:
        attempted += 1
        reason = w.run_checks(ctx)
        if reason:
            failures.append(("run_check", {"seed": args.seed}, reason))

    lines = [f"workload {w.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}"]
    op_lines = []
    if args.trace == 0:
        op_spans, pass_spans = [], []
        t_start = time.perf_counter()
        p, ops = 0, first_ops
        while True:
            results, p0, p1 = _run_pass(ops)
            pass_spans.append((p0, p1))
            for op, _, _, t0, t1 in results:
                op_spans.append((t0, t1))
                op_lines.append(f"op {op.kind} {json.dumps(op.inputs, sort_keys=True)} "
                                f"ms {1e3 * probe.at_ref(t0, t1):.1f} wall_ms {1e3 * (t1 - t0):.1f}")
            attempted += len(results)
            _check_pass(results, failures)
            p += 1
            elapsed = time.perf_counter() - t_start
            if len(pass_spans) >= w.min_passes and elapsed + statistics.median(b - a for a, b in pass_spans) > args.seconds:
                break
            ops = workloads.pass_ops(w, ctx, args.seed, p)

        def timings(span_s):
            lat = [span_s(a, b) for a, b in op_spans]
            return {
                "setup_s": (span_s(t_import, t_imported) + statistics.median(span_s(a, b) for a, b in setups), "s"),
                "pass_s": (statistics.median(span_s(a, b) for a, b in pass_spans), "s"),
                "op_ms_p50": (1e3 * statistics.median(lat), "ms"),
                "op_ms_p90": (1e3 * _p90(lat), "ms"),
            }

        metrics = timings(probe.at_ref)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        lines.append(f"passes {len(pass_spans)} ops {len(op_spans)} probe_samples {len(probe.times)}")
        lines += [f"wall {k} {v:.6g} {u}" for k, (v, u) in timings(lambda a, b: b - a).items()]
    else:
        plain, a0, a1 = _run_pass(first_ops)
        tracer = Tracer()
        tracer.install()
        try:
            traced, b0, b1 = _run_pass(workloads.pass_ops(w, ctx, args.seed, 0), tracer)
        finally:
            tracer.uninstall()
        for results in (plain, traced):
            attempted += len(results)
            _check_pass(results, failures)
        metrics, absent = _per_layer(tracer, plain, traced, probe.at_ref(b0, b1) / probe.at_ref(a0, a1) - 1.0)
        out = HERE / "out" / f"trace-{w.name}-seed{args.seed}.json"
        tracer.write(out, {
            "workload": w.name,
            "seed": args.seed,
            "ops": [[i, op.kind, op.inputs, round(t1 - t0, 6)] for i, (op, _, _, t0, t1) in enumerate(traced)],
            "untraced_pass_s": a1 - a0,
            "traced_pass_s": b1 - b0,
            "metrics": {k: v for k, (v, _) in metrics.items()},
        })
        lines.append(f"untraced_pass_s {a1 - a0:.3f} traced_pass_s {b1 - b0:.3f} "
                     f"spans {len(tracer.spans)} -> {out.relative_to(ROOT)}")
        if absent:
            lines.append("absent (wrapped function gone, reported as 0): " + ", ".join(absent))

    lines.append(f"fail_frac {len(failures)}/{attempted} = {len(failures) / attempted:.4g}")
    for kind, inputs, reason in failures:
        lines.append(f"FAILED {kind} {json.dumps(inputs, sort_keys=True)}: {reason}")
    lines += op_lines
    lines += [f"{k} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    print("\n".join(lines))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
