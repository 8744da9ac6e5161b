"""Span tracer for the traced benchmark run.

The tracer wraps, from outside the package, every module-level binding of
the public functions listed in ``TARGETS`` (a function imported into several
modules is wrapped in each), the scipy primitives bound in
``varsmile.numerics`` and ``varsmile.rate_general``, and the ``value_log``
method of every eta/sigma family class.  Nothing in ``src/`` is edited.

Each wrapped call records one span: name, start, end, thread CPU time,
parent span, op id, thread id, and the number of times the call invoked its
first callable argument (integrand, root or objective evaluations).  The
``value_log`` methods run hundreds of thousands of times per op, so they are
aggregated per (parent span, thread, family) instead of stored one by one;
their time still counts as child time of the parent span.  Everything is
kept in memory and written once, at the end of the run.

A target that no longer exists is recorded in ``absent``; the metrics that
depend on it read 0 and are listed as absent, so a refactor that renames a
function does not crash the traced run.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (defining module, name, span label).  Labels are the names the per-layer
# metrics are derived from.
TARGETS = (
    ("varsmile.rate_zero", "rate_zero_rho", "rate_zero_rho"),
    ("varsmile.rate_zero", "asian_rate_j", "asian_rate_j"),
    ("varsmile.rate_zero", "asian_rate_general", "asian_rate_general"),
    ("varsmile.rate_zero", "optimal_paths_zero_rho", "optimal_paths_zero_rho"),
    ("varsmile.rate_general", "rate_bounds_rho", "rate_bounds_rho"),
    ("varsmile.rate_general", "rate_upper_corr_path", "rate_upper_corr_path"),
    ("varsmile.rate_general", "rate_perfect_corr", "rate_perfect_corr"),
    ("varsmile.rate_general", "rate_numeric", "rate_numeric"),
    ("varsmile.rate_general", "lambda_functional", "lambda_functional"),
    ("varsmile.atm", "atm_expansion", "atm_expansion"),
    ("varsmile.atm", "expansion_paths", "expansion_paths"),
    ("varsmile.smile", "asymptotic_smile", "asymptotic_smile"),
    ("varsmile.smile", "implied_vol", "implied_vol"),
    ("varsmile.mc", "simulate_realized_variance", "simulate_realized_variance"),
    ("varsmile.mc", "mc_smile", "mc_smile"),
    ("varsmile.mc", "mc_price", "mc_price"),
    ("varsmile.mc", "discrete_rv_diagnostic", "discrete_rv_diagnostic"),
    ("varsmile.numerics", "find_root", "find_root"),
    ("varsmile.numerics", "bracket_root", "bracket_root"),
    ("varsmile.numerics", "minimize_scalar", "minimize_scalar"),
    ("varsmile.numerics", "quad", "scipy.quad"),
    ("varsmile.numerics", "brentq", "scipy.brentq"),
    ("varsmile.rate_general", "brentq", "scipy.brentq"),
    ("varsmile.rate_general", "minimize", "scipy.minimize"),
)

# Labels whose first positional argument is a callable worth counting.
_COUNTED = {
    "find_root",
    "bracket_root",
    "minimize_scalar",
    "scipy.quad",
    "scipy.brentq",
    "scipy.minimize",
}


def _result_flag(label, out) -> int:
    """One bit of the result worth keeping, read from public fields only."""
    if label == "minimize_scalar":
        return int(bool(getattr(out, "boundary", False)))
    if label == "rate_perfect_corr":
        return int("direct" in str(getattr(out, "method", "")))
    return 0


class Tracer:
    def __init__(self):
        # span: (id, label, thread, parent, op, t0, t1, cpu_s, count, flag)
        self.spans: list[tuple] = []
        # (parent, thread, family) -> [calls, elements, seconds, at_clamp, clampable]
        self.leaves: dict[tuple, list] = {}
        self.absent: list[str] = []
        self.installed: set[str] = set()
        self.op: int | None = None
        self.op_span: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple] = []
        self._op_open: tuple | None = None
        self.t_origin = time.perf_counter()

    # -- span bookkeeping --------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def begin_op(self, op_id: int, label: str):
        """Open the benchmark's own span around one public call."""
        self.op = op_id
        sid = next(self._ids)
        self.op_span = sid
        self._stack().append(sid)
        self._op_open = (sid, label, threading.get_ident(), time.perf_counter(), time.thread_time())

    def end_op(self):
        sid, label, tid, t0, c0 = self._op_open
        t1, c1 = time.perf_counter(), time.thread_time()
        self._stack().pop()
        self.spans.append((sid, "op:" + label, tid, None, self.op, t0, t1, c1 - c0, 0, 0))
        self.op = None
        self.op_span = None

    def _wrap(self, label, fn):
        tracer = self
        counted = label in _COUNTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else tracer.op_span
            count = [0]
            if counted and args and callable(args[0]):
                inner = args[0]

                def counting(*a, **k):
                    count[0] += 1
                    return inner(*a, **k)

                args = (counting,) + args[1:]
            stack.append(sid)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                stack.pop()
            tracer.spans.append(
                (sid, label, threading.get_ident(), parent, tracer.op, t0, t1, c1 - c0,
                 count[0], _result_flag(label, out))
            )
            return out

        return wrapper

    def _wrap_leaf(self, family: str, fn, clamped: bool):
        """``clamped``: the family clips to explicit clamp parameters, so a
        value equal to a clamp is a point on the flat side of a kink."""
        tracer = self
        leaves = self.leaves

        @functools.wraps(fn)
        def value_log(obj, u):
            if tracer.op is None:
                return fn(obj, u)
            t0 = time.perf_counter()
            out = fn(obj, u)
            dt = time.perf_counter() - t0
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer.op_span
            key = (parent, threading.get_ident(), family)
            rec = leaves.get(key)
            if rec is None:
                rec = leaves[key] = [0, 0, 0.0, 0, 0]
            n = getattr(out, "size", 1)
            rec[0] += 1
            rec[1] += n
            rec[2] += dt
            if clamped and not obj.is_constant:
                rec[3] += int(np.count_nonzero((out <= obj.clamp_lo) | (out >= obj.clamp_hi)))
                rec[4] += n
            return out

        return value_log

    # -- installation ------------------------------------------------------

    def install(self):
        originals = {}
        for mod_name, name, label in TARGETS:
            try:
                fn = getattr(importlib.import_module(mod_name), name)
            except (ImportError, AttributeError):
                self.absent.append(f"{mod_name}.{name}")
                continue
            self.installed.add(label)
            if id(fn) not in originals:
                originals[id(fn)] = self._wrap(label, fn)
        # every loaded varsmile module, so a binding added by a refactor is found
        modules = [m for n, m in list(sys.modules.items()) if n == "varsmile" or n.startswith("varsmile.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapped = originals.get(id(value))
                if wrapped is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapped)

        model = importlib.import_module("varsmile.model")
        families = [
            cls for _, cls in inspect.getmembers(model, inspect.isclass)
            if cls.__module__ == model.__name__ and "value_log" in vars(cls)
        ]
        if families:
            self.installed.add("value_log")
        else:
            self.absent.append("varsmile.model.*.value_log")
        for cls in families:
            orig = vars(cls)["value_log"]
            clamped = dataclasses.is_dataclass(cls) and "clamp_lo" in {f.name for f in dataclasses.fields(cls)}
            self._restore.append((cls, "value_log", orig))
            setattr(cls, "value_log", self._wrap_leaf(cls.__name__, orig, clamped))

    def uninstall(self):
        for obj, attr, value in reversed(self._restore):
            setattr(obj, attr, value)
        self._restore.clear()

    # -- derived views -----------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time covered by same-thread children
        (wrapped calls and aggregated ``value_log`` time)."""
        thread_of = {s[0]: s[2] for s in self.spans}
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s[3] is not None and thread_of.get(s[3]) == s[2]:
                covered[s[3]] += s[6] - s[5]
        for (parent, tid, _), rec in self.leaves.items():
            if thread_of.get(parent) == tid:
                covered[parent] += rec[2]
        return {s[0]: (s[6] - s[5]) - covered[s[0]] for s in self.spans}

    def write(self, path: Path, extra: dict):
        t0 = self.t_origin
        selfs = self.self_times()
        by_thread: dict[str, float] = defaultdict(float)
        for s in self.spans:
            by_thread[str(s[2])] += selfs[s[0]]
        for (_, tid, _), rec in self.leaves.items():
            by_thread[str(tid)] += rec[2]
        doc = {
            "span_fields": ["id", "name", "thread", "parent", "op", "start_s", "end_s",
                            "cpu_s", "callable_calls", "flag"],
            "spans": [
                [s[0], s[1], s[2], s[3], s[4], round(s[5] - t0, 9), round(s[6] - t0, 9),
                 round(s[7], 9), s[8], s[9]]
                for s in self.spans
            ],
            "leaf_fields": ["parent", "thread", "family", "calls", "elements", "seconds",
                            "at_clamp", "clampable"],
            "leaves": [[k[0], k[1], k[2], *v] for k, v in self.leaves.items()],
            "self_s_by_thread": by_thread,
            "absent": self.absent,
            **extra,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

_ROOTS = {"find_root", "bracket_root", "scipy.brentq"}
_ENDPOINT = {"scipy.quad"} | _ROOTS
_ASIAN = {"asian_rate_j", "asian_rate_general"}

# metric -> (unit, labels it is derived from)
LAYER_METRICS = {
    "numerics.quad.calls": ("count", {"scipy.quad"}),
    "numerics.quad.neval": ("count", {"scipy.quad"}),
    "numerics.quad.self_s": ("s", {"scipy.quad"}),
    "numerics.root.calls": ("count", _ROOTS),
    "numerics.root.fevals": ("count", _ROOTS),
    "numerics.minimize.fevals": ("count", {"minimize_scalar"}),
    "numerics.minimize.boundary": ("count", {"minimize_scalar"}),
    "model.eval.calls": ("count", {"value_log"}),
    "model.eval.elements": ("count", {"value_log"}),
    "model.eval.self_s": ("s", {"value_log"}),
    "model.clamp_frac": ("ratio", {"value_log"}),
    "rate_zero.rate.calls": ("count", {"rate_zero_rho"}),
    "rate_zero.rate.s": ("s", {"rate_zero_rho"}),
    "rate_zero.asian_j.calls": ("count", {"asian_rate_j"}),
    "rate_zero.asian_j.s": ("s", {"asian_rate_j"}),
    "rate_zero.endpoint.s": ("s", {"rate_zero_rho"}),
    "rate_zero.paths.s": ("s", {"optimal_paths_zero_rho"}),
    "rate_general.bounds.s": ("s", {"rate_bounds_rho"}),
    "rate_general.corr_path.s": ("s", {"rate_upper_corr_path"}),
    "rate_general.perfect_corr.s": ("s", {"rate_perfect_corr"}),
    "rate_general.numeric.s": ("s", {"rate_numeric"}),
    "rate_general.lbfgs.calls": ("count", {"scipy.minimize"}),
    "rate_general.lbfgs.nfev": ("count", {"scipy.minimize"}),
    "rate_general.lbfgs.busy_s": ("s", {"scipy.minimize"}),
    "rate_general.numeric.busy_over_wall": ("ratio", {"scipy.minimize", "rate_numeric"}),
    "rate_general.fallback.count": ("count", {"rate_perfect_corr"}),
    "atm.expansion_paths.s": ("s", {"expansion_paths"}),
    "smile.asymptotic.s": ("s", {"asymptotic_smile"}),
    "smile.implied_vol.calls": ("count", {"implied_vol"}),
    "smile.implied_vol.s": ("s", {"implied_vol"}),
    "mc.simulate.s": ("s", {"simulate_realized_variance"}),
    "mc.estimate.s": ("s", {"mc_smile", "mc_price"}),
    "mc.diagnostic.s": ("s", {"discrete_rv_diagnostic"}),
}

# every per-layer metric the traced run prints, with its unit
LAYER_UNITS = {k: u for k, (u, _) in LAYER_METRICS.items()} | {
    "mc.month.path_steps_per_s": "1/s",
    "mc.day.path_steps_per_s": "1/s",
    "mc.s_to_target_se": "s",
    "trace.overhead_frac": "ratio",
    "code.src_loc": "count",
}


def layer_metrics(tracer: Tracer, numeric_ops: set[int]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of the spans recorded inside ops, and the names of
    those whose wrapped functions no longer exist."""
    spans = [s for s in tracer.spans if s[4] is not None]
    label = {s[0]: s[1] for s in spans}
    parent = {s[0]: s[3] for s in spans}
    selfs = tracer.self_times()

    def ancestors(sid):
        p = parent.get(sid)
        while p is not None:
            yield label.get(p)
            p = parent.get(p)

    by: dict[str, list[tuple]] = defaultdict(list)
    for s in spans:
        by[s[1]].append(s)

    def total(name):
        return sum(s[6] - s[5] for s in by[name])

    m: dict[str, float] = {}
    quad = by["scipy.quad"]
    m["numerics.quad.calls"] = len(quad)
    m["numerics.quad.neval"] = sum(s[8] for s in quad)
    m["numerics.quad.self_s"] = sum(selfs[s[0]] for s in quad)
    # find_root hands its (counted) function to brentq: count that pair once
    roots = [
        s for name in _ROOTS for s in by[name]
        if not (name == "scipy.brentq" and label.get(s[3]) == "find_root")
    ]
    m["numerics.root.calls"] = len(roots)
    m["numerics.root.fevals"] = sum(s[8] for s in roots)
    m["numerics.minimize.fevals"] = sum(s[8] for s in by["minimize_scalar"])
    m["numerics.minimize.boundary"] = sum(s[9] for s in by["minimize_scalar"])

    leaves = tracer.leaves.values()
    m["model.eval.calls"] = sum(r[0] for r in leaves)
    m["model.eval.elements"] = sum(r[1] for r in leaves)
    m["model.eval.self_s"] = sum(r[2] for r in leaves)
    clampable = sum(r[4] for r in leaves)
    m["model.clamp_frac"] = sum(r[3] for r in leaves) / clampable if clampable else 0.0

    m["rate_zero.rate.calls"] = len(by["rate_zero_rho"])
    m["rate_zero.rate.s"] = total("rate_zero_rho")
    m["rate_zero.asian_j.calls"] = len(by["asian_rate_j"])
    m["rate_zero.asian_j.s"] = total("asian_rate_j")
    endpoint = 0.0
    for name in _ENDPOINT:
        for s in by[name]:
            up = list(ancestors(s[0]))
            if "rate_zero_rho" in up and not _ASIAN.intersection(up) and not _ENDPOINT.intersection(up):
                endpoint += s[6] - s[5]
    m["rate_zero.endpoint.s"] = endpoint
    nested = sum(s[6] - s[5] for s in by["rate_zero_rho"] if label.get(s[3]) == "optimal_paths_zero_rho")
    m["rate_zero.paths.s"] = total("optimal_paths_zero_rho") - nested

    m["rate_general.bounds.s"] = total("rate_bounds_rho")
    m["rate_general.corr_path.s"] = total("rate_upper_corr_path")
    m["rate_general.perfect_corr.s"] = total("rate_perfect_corr")
    m["rate_general.numeric.s"] = total("rate_numeric")
    lbfgs = by["scipy.minimize"]
    m["rate_general.lbfgs.calls"] = len(lbfgs)
    m["rate_general.lbfgs.nfev"] = sum(s[8] for s in lbfgs)
    m["rate_general.lbfgs.busy_s"] = sum(s[7] for s in lbfgs)
    numeric_busy = sum(s[7] for s in lbfgs if s[4] in numeric_ops)
    wall = m["rate_general.numeric.s"]
    m["rate_general.numeric.busy_over_wall"] = numeric_busy / wall if wall > 0 else 0.0
    m["rate_general.fallback.count"] = sum(s[9] for s in by["rate_perfect_corr"])

    m["atm.expansion_paths.s"] = total("expansion_paths")
    m["smile.asymptotic.s"] = total("asymptotic_smile")
    m["smile.implied_vol.calls"] = len(by["implied_vol"])
    m["smile.implied_vol.s"] = total("implied_vol")
    m["mc.simulate.s"] = total("simulate_realized_variance")
    m["mc.estimate.s"] = total("mc_smile") + total("mc_price")
    m["mc.diagnostic.s"] = total("discrete_rv_diagnostic")

    absent = sorted(k for k, (_, need) in LAYER_METRICS.items() if not need <= tracer.installed)
    return m, absent
