"""Tracing of kgbreather's layers from the benchmark's side.

The traced run times calls into each layer's entry points by rebinding
module attributes (every ``kgbreather.*`` module that holds a reference to
the original function gets the wrapper), so nothing under ``src/`` changes.
Untraced runs install no wrappers.

Spans are kept in memory as (name, start, end, parent, op) under one run
id, with counters per op, and written out when the run ends.  A span's
self time is its duration minus the durations of its direct children
(calls are sequential, so children never overlap).  A span opened with
``fold=True`` keeps everything it calls: wrapped calls inside it open no
span and count nothing, so its self time is its whole cost.
"""
from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np


class Tracer:
    """Span and counter recorder for one benchmark process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent, op]
        self.counts = []  # per op: {counter: value}
        self._stack = []
        self._op = None
        self._restore = []
        self._folding = 0

    # ------------------------------------------------------------ recording

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def add(self, counter, value):
        if self._op is not None:
            c = self.counts[self._op]
            c[counter] = c.get(counter, 0) + value

    def start_op(self, scope):
        self.counts.append({})
        self._op = len(self.counts) - 1
        self.begin(scope)
        return self._op

    def finish_op(self):
        self.end()
        self._op = None

    # ------------------------------------------------------------ wrappers

    def wrap(self, owner, attr, span, count=None, fold=False):
        """Rebind ``owner.attr`` to a timed wrapper.

        ``count(tracer, args, kwargs, result)`` records counters after the
        call returns.  ``span=None`` only counts.  ``fold=True`` charges
        every wrapped call made inside this one to this span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self._folding:
                return original(*args, **kwargs)
            if span is not None:
                self.begin(span)
            self._folding += fold
            try:
                result = original(*args, **kwargs)
            finally:
                self._folding -= fold
                if span is not None:
                    self.end()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))
        return original

    def wrap_everywhere(self, function, span, count=None):
        """Wrap ``function`` in every loaded kgbreather module that binds it."""
        for name, module in list(sys.modules.items()):
            if not name.startswith("kgbreather") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self.wrap(module, attr, span, count)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ analysis

    def self_times(self, op):
        """{span name: summed self time} for one op (or setup rep)."""
        durations = {}
        child_time = {}
        for i, (name, start, end, parent, span_op) in enumerate(self.spans):
            if span_op != op:
                continue
            durations[i] = end - start
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        out = {}
        for i, d in durations.items():
            name = self.spans[i][0]
            out[name] = out.get(name, 0.0) + d - child_time.get(i, 0.0)
        return out

    def op_wall(self, op):
        for name, start, end, parent, span_op in self.spans:
            if span_op == op and parent == -1:
                return end - start
        raise KeyError(op)

    def dump(self, path):
        import json

        with open(path, "w") as fh:
            json.dump(
                {
                    "run": self.run_id,
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "counts": self.counts,
                },
                fh,
            )


def install(tracer):
    """Wrap the entry points of every timed layer.

    Span names are the per-layer metric prefixes; the binding site decides
    the name where one function serves two stages (a range solve inside
    kernel Newton is ``range``, the final wide pass is ``final_range``).
    The final remainder folds its range solve and nonlinearity into
    ``final_remainder``, so ``range.*`` and ``nl.*`` count only the other
    stages' calls.
    """
    import kgbreather.breather as breather
    import kgbreather.dynamics as dynamics
    import kgbreather.groundstate as groundstate
    import kgbreather.kernelsolver as kernelsolver
    import kgbreather.rangesolver as rangesolver
    import kgbreather.timespectral as timespectral

    def newton_iters(key, report_index):
        def count(t, args, kwargs, result):
            t.add(key, result[report_index].iterations)
        return count

    def range_count(t, args, kwargs, result):
        t.add("range.calls", 1)
        t.add("range.picard_iters", result[1].iterations)

    # sizes accumulate as exact integers (values, bytes); the report scales
    # them to millions
    def opsolve_count(t, args, kwargs, result):
        t.add("range.opsolve_mvalues", np.size(args[1]))

    def nl_count(t, args, kwargs, result):
        coeffs = np.asarray(args[0])
        p = args[1] if len(args) > 1 else kwargs["p"]
        M = kwargs.get("M") or timespectral.default_node_count(
            coeffs.shape[0] - 1, p
        )
        values = M * (coeffs.size // coeffs.shape[0])
        t.add("nl.calls", 1)
        t.add("nl.mvalues", values)
        t.add("nl.mb_computed", 8 * values)

    def window_count(t, args, kwargs, result):
        t.add("window.L", int(result))

    def residual_count(t, args, kwargs, result):
        b = args[0]
        t.add("residual.mvalues", 4 * (b.L_max + 1) * b.grid.size)

    def io_count(t, args, kwargs, result):
        t.add("io.mb", os.path.getsize(args[0]))

    def leapfrog_count(t, args, kwargs, result):
        steps = result.steps_per_period * result.periods
        t.add("leapfrog.steps", steps)
        t.add("leapfrog.site_steps", steps * args[0].grid.size)

    tracer.wrap_everywhere(groundstate.solve_ground_state, "groundstate",
                           lambda t, a, k, r: t.add("groundstate.calls", 1))
    tracer.wrap_everywhere(kernelsolver.solve_dnls_ground_state, "dnls",
                           newton_iters("dnls.iters", 1))
    tracer.wrap_everywhere(kernelsolver.solve_kernel_equation, "kernel",
                           newton_iters("kernel.iters", 2))
    tracer.wrap(kernelsolver, "kernel_remainder", None,
                lambda t, a, k, r: t.add("kernel.remainder_calls", 1))
    tracer.wrap(breather, "kernel_remainder", "final_remainder", fold=True)
    tracer.wrap(kernelsolver, "solve_range_equation", "range", range_count)
    tracer.wrap(breather, "solve_range_equation", "final_range")
    tracer.wrap(rangesolver.RangeOperator, "solve", "range.opsolve",
                opsolve_count)
    tracer.wrap_everywhere(timespectral.apply_nonlinearity, "nl", nl_count)
    tracer.wrap(breather, "_window_for_residual", "window", window_count)
    tracer.wrap_everywhere(breather.kg_residual, "residual", residual_count)
    tracer.wrap_everywhere(breather.error_vs_reference, "errors")
    tracer.wrap(breather.Breather, "symmetry_error", "symmetry")
    tracer.wrap_everywhere(breather.save_breather, "io.save", io_count)
    tracer.wrap_everywhere(breather.load_breather, "io.load", io_count)
    tracer.wrap_everywhere(dynamics.integrate_period, "leapfrog",
                           leapfrog_count)
    tracer.wrap_everywhere(breather.assemble_breather, "assemble")
