"""Spans recorded from outside the program, and the per-layer metrics built
from them.

Each public function is wrapped at the module binding its caller uses, e.g.
`integrator.make_record` (called by `simulate`) and `cli.well_report` (called
by `run_one`).  `well.grad_norm_sq` is left alone, so the embedding-constant
inner loop stays untraced.  Spans live in memory until `write` is called.
"""
from __future__ import annotations

import inspect
import itertools
import statistics
import threading
from time import perf_counter_ns

import piezowave as pw
from piezowave import blowup, cli, decay, integrator, well

# (span name, module object, attribute) -- the bindings the callers look up
BINDINGS = (
    ("integrator.step", integrator.Stepper, "step"),
    ("grid.grad_norm_sq", integrator, "grad_norm_sq"),
    ("grid.quadratic_form", integrator, "quadratic_form"),
    ("diagnostics.damping_norms", integrator, "damping_norms"),
    ("diagnostics.make_record", integrator, "make_record"),
    ("diagnostics.total_energy", integrator, "total_energy"),
    ("integrator.simulate", pw, "simulate"),
    ("integrator.simulate", cli, "simulate"),
    ("well.well_report", pw, "well_report"),
    ("well.well_report", cli, "well_report"),
    ("well.classify_initial", pw, "classify_initial"),
    ("well.classify_initial", cli, "classify_initial"),
    ("well.embedding_constant", well, "embedding_constant"),
    ("well.poincare_constant", well, "poincare_constant"),
    ("blowup.blowup_report", blowup, "blowup_report"),
    ("decay.fit_exponential", decay, "fit_exponential"),
    ("config.load_sweep_config", cli, "load_sweep_config"),
    ("config.expand_sweep", cli, "expand_sweep"),
    ("cli.run_one", cli, "run_one"),
    ("cli.cli_sweep", cli, "cli_sweep"),
)

# per_layer metric -> unit, in BENCHMARK.json order
PER_LAYER = {
    "integrator.step.us": "us", "integrator.step.calls": "count",
    "integrator.step_probe.us": "us", "integrator.step_undamped.us": "us",
    "integrator.step_sourceless.us": "us",
    "integrator.stepper_init.us": "us", "integrator.simulate.calls": "count",
    "integrator.simulate.self_s": "s", "integrator.blowups": "count",
    "grid.grad_norm_sq.us": "us", "grid.quadratic_form.us": "us",
    "diagnostics.damping_norms.us": "us", "diagnostics.make_record.us": "us",
    "diagnostics.make_record.calls": "count",
    "diagnostics.total_energy.us": "us",
    "well.well_report.s": "s", "well.well_report.calls": "count",
    "well.embedding_constant.s": "s", "well.embedding_constant.calls": "count",
    "well.embedding_constant.distinct_per_call": "frac",
    "well.poincare_constant.s": "s", "well.classify_initial.us": "us",
    "blowup.blowup_report.us": "us", "decay.fit_exponential.us": "us",
    "config.load_sweep_config.s": "s", "config.expand_sweep.s": "s",
    "cli.run_one.busy_s": "s", "cli.run_one.wait_s": "s",
    "cli.cli_sweep.self_s": "s", "trace.overhead_frac": "frac",
}


class Tracer:
    """Span recorder: (id, name, start_ns, end_ns, parent id, unit)."""

    def __init__(self):
        self.spans = []
        self.unit = 0
        self.embedding_keys = []      # (unit, (grid, q, restarts, seed))
        self._ids = itertools.count(1)
        self._stacks = {}
        self._main = threading.get_ident()
        self._saved = []

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # a pool worker's first span belongs to the span open on the
        # main thread (the sweep), so that self time sees the overlap
        main = self._stacks.get(self._main)
        return main[-1] if main else 0

    def wrap(self, name, fn):
        spans, ids, stacks = self.spans, self._ids, self._stacks

        def traced(*args, **kwargs):
            stack = stacks.setdefault(threading.get_ident(), [])
            sid, parent = next(ids), self._parent(stack)
            stack.append(sid)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.unit))
        return traced

    def _embedding(self, fn):
        signature = inspect.signature(fn)

        def keyed(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            self.embedding_keys.append(
                (self.unit, (a["grid"], a["q"], a["restarts"], a["seed"])))
            return fn(*args, **kwargs)
        return keyed

    def install(self):
        for name, owner, attr in BINDINGS:
            original = getattr(owner, attr)
            fn = original
            if name == "config.expand_sweep":
                fn = _materialized(original)
            elif name == "well.embedding_constant":
                fn = self._embedding(original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, fn))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_ns,end_ns,parent,unit\n")
            for span in self.spans:
                fh.write(",".join(str(x) for x in span) + "\n")


def _materialized(fn):
    """expand_sweep returns a generator; time its consumption too."""
    def expand(*args, **kwargs):
        return list(fn(*args, **kwargs))
    return expand


def _union_ns(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total, cur_start, cur_end = 0, None, None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def per_layer(tracer: Tracer, units: list, probes: dict, blowups: float,
              overhead_frac: float, sampler) -> dict:
    """Per-layer metrics from the spans of the traced units `units`, each
    span scaled to the reference host speed by the samples around its
    start."""
    n_units = max(len(units), 1)
    by_name, children = {}, {}
    for span in tracer.spans:
        by_name.setdefault(span[1], []).append(span)
        children.setdefault(span[4], []).append(span)
    factor = dict(zip((span[0] for span in tracer.spans), sampler.factors(
        [span[2] * 1e-9 for span in tracer.spans]))) if tracer.spans else {}

    def per_call(name, scale):
        durations = [(s[3] - s[2]) * factor[s[0]]
                     for s in by_name.get(name, ())]
        return statistics.median(durations) * scale if durations else 0.0

    def calls(name):
        return len(by_name.get(name, ())) / n_units

    def per_unit(values_by_unit):
        return statistics.median(values_by_unit.get(u, 0.0) for u in units)

    def self_s(name):
        out = {}
        for sid, _, start, end, _, unit in by_name.get(name, ()):
            kids = [(k[2], k[3]) for k in children.get(sid, ())]
            busy = (end - start) - _union_ns(kids, start, end)
            out[unit] = out.get(unit, 0.0) + busy * factor[sid] * 1e-9
        return per_unit(out)

    busy, wait = {}, {}
    expanded = {s[5]: s[3] for s in by_name.get("config.expand_sweep", ())}
    for sid, _, start, end, _, unit in by_name.get("cli.run_one", ()):
        busy[unit] = busy.get(unit, 0.0) + (end - start) * factor[sid] * 1e-9
        if unit in expanded:
            wait[unit] = wait.get(unit, 0.0) + (start - expanded[unit]) \
                * factor[sid] * 1e-9

    keys = {}
    for unit, k in tracer.embedding_keys:
        keys.setdefault(unit, []).append(k)
    distinct = {u: len(set(ks)) / len(ks) for u, ks in keys.items()}

    us, s = 1e-3, 1e-9
    metrics = {
        "integrator.step.us": per_call("integrator.step", us),
        "integrator.step.calls": calls("integrator.step"),
        "integrator.step_probe.us": probes["full"],
        "integrator.step_undamped.us": probes["undamped"],
        "integrator.step_sourceless.us": probes["sourceless"],
        "integrator.stepper_init.us": probes["init"],
        "integrator.simulate.calls": calls("integrator.simulate"),
        "integrator.simulate.self_s": self_s("integrator.simulate"),
        "integrator.blowups": blowups,
        "grid.grad_norm_sq.us": per_call("grid.grad_norm_sq", us),
        "grid.quadratic_form.us": per_call("grid.quadratic_form", us),
        "diagnostics.damping_norms.us":
            per_call("diagnostics.damping_norms", us),
        "diagnostics.make_record.us": per_call("diagnostics.make_record", us),
        "diagnostics.make_record.calls": calls("diagnostics.make_record"),
        "diagnostics.total_energy.us":
            per_call("diagnostics.total_energy", us),
        "well.well_report.s": per_call("well.well_report", s),
        "well.well_report.calls": calls("well.well_report"),
        "well.embedding_constant.s": per_call("well.embedding_constant", s),
        "well.embedding_constant.calls": calls("well.embedding_constant"),
        "well.embedding_constant.distinct_per_call": per_unit(distinct),
        "well.poincare_constant.s": per_call("well.poincare_constant", s),
        "well.classify_initial.us": per_call("well.classify_initial", us),
        "blowup.blowup_report.us": per_call("blowup.blowup_report", us),
        "decay.fit_exponential.us": per_call("decay.fit_exponential", us),
        "config.load_sweep_config.s": per_call("config.load_sweep_config", s),
        "config.expand_sweep.s": per_call("config.expand_sweep", s),
        "cli.run_one.busy_s": per_unit(busy),
        "cli.run_one.wait_s": per_unit(wait),
        "cli.cli_sweep.self_s": self_s("cli.cli_sweep"),
        "trace.overhead_frac": overhead_frac,
    }
    return {name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in PER_LAYER.items()}
