"""Spans around the calls into each layer of ``qfde``, recorded from outside.

``Tracer.install()`` replaces each function in TARGETS, at every name under
which a ``qfde`` module holds it (the names the callers look up), with a
wrapper that records one span: layer name, start, end, parent span and
item id.  Spans are kept in flat arrays in memory and written out by
``save``; self time is derived from them afterwards (a span's duration
minus the durations of its direct children).

Calls to ``solve_ivp`` also get the problem's right-hand side wrapped as
``solver.f``, and the Picard updates and steps of the traces returned
within timed items are counted.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

# layer name -> (module, attribute) of the public function it wraps
TARGETS = {
    "cli.main": ("qfde.cli", "main"),
    "cli.run_solve": ("qfde.cli", "run_solve"),
    "cli.emit_convergence": ("qfde.cli", "emit_convergence"),
    "problems.make_problem": ("qfde.problems", "make_problem"),
    "solver.solve_ivp": ("qfde.solver", "solve_ivp"),
    "l1q.coefficients": ("qfde.l1q", "coefficients"),
    "l1q.build_mesh": ("qfde.l1q", "build_mesh"),
    "kernels.b1_weight": ("qfde._kernels", "b1_weight"),
    "qcore.shifted_factorial_real": ("qfde.qcore", "shifted_factorial_real"),
    "qcore.q_integral_zero": ("qfde.qcore", "q_integral_zero"),
    "qcore.q_gamma": ("qfde.qcore", "q_gamma"),
    "qfrac.caputo_q_derivative": ("qfde.qfrac", "caputo_q_derivative"),
    "qfrac.frac_q_integral": ("qfde.qfrac", "frac_q_integral"),
}
F_SPAN = "solver.f"
NO_ITEM = -1        # item id of spans outside the timed items (set-up)


class Tracer:
    def __init__(self):
        self.names = list(TARGETS) + [F_SPAN]
        self.layer = array("i")
        self.parent = array("i")
        self.item_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.open = [-1]            # stack of open span indices
        self.item = NO_ITEM         # id of the item now running
        self.picard_updates = 0
        self.steps = 0
        self._patched = []          # (module, attribute, original)

    def span(self, name: str, fn):
        """Wrap fn so that each call records one span named name."""
        layer = self.names.index(name)
        open_, start, end = self.open, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(start)
            self.layer.append(layer)
            self.parent.append(open_[-1])
            self.item_of.append(self.item)
            start.append(0.0)
            end.append(0.0)
            open_.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                open_.pop()

        return traced

    def _solve_ivp(self, solve):
        def solve_traced_f(problem, *args, **kwargs):
            problem = dataclasses.replace(problem, f=self.span(F_SPAN, problem.f))
            trace = solve(problem, *args, **kwargs)
            if self.item != NO_ITEM:
                self.picard_updates += int(np.sum(trace.fp_iterations))
                self.steps += len(trace.fp_iterations)
            return trace
        return solve_traced_f

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "qfde" or name.startswith("qfde.")]
        for name, (module, attr) in TARGETS.items():
            original = getattr(importlib.import_module(module), attr)
            inner = self._solve_ivp(original) if name == "solver.solve_ivp" else original
            wrapper = self.span(name, inner)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def arrays(self) -> dict:
        return {"layer": np.array(self.layer, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "item": np.array(self.item_of, dtype=np.int32),
                "start": np.array(self.start, dtype=float),
                "end": np.array(self.end, dtype=float)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_totals(self) -> dict:
        """Per layer: calls, seconds and self seconds, split by phase.

        Returns {"timed": {...}, "setup": {...}}, each mapping a layer
        name to (calls, seconds, self seconds).  Spans of item NO_ITEM are
        set-up, all others belong to the timed items.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        children = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                               minlength=len(dur))
        own = dur - children
        out = {}
        for phase, mask in (("timed", a["item"] != NO_ITEM),
                            ("setup", a["item"] == NO_ITEM)):
            layer = a["layer"][mask]
            calls = np.bincount(layer, minlength=len(self.names))
            secs = np.bincount(layer, weights=dur[mask], minlength=len(self.names))
            selfs = np.bincount(layer, weights=own[mask], minlength=len(self.names))
            out[phase] = {name: (int(calls[i]), float(secs[i]), float(selfs[i]))
                          for i, name in enumerate(self.names)}
        return out
