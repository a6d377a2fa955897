"""Per-layer tracing of trigsum from outside the package.

The tracer replaces module attributes with timing wrappers and puts the
originals back afterwards; nothing under ``src/`` changes.  A function is
patched in every trigsum module that holds it, because ``suites`` and
``cli`` import ``abel_sum`` and friends by name and call their own copy of
the reference.

Each wrapper records calls, busy time and self time (busy time minus the
time spent in wrapped children).  The wrapper's own bookkeeping is timed
too and reported as ``trace.wrapper_s``, so the self times plus the
harness time account for the traced wall time.

The double-double kernels in ``dd`` are counted in a separate pass with
count-only wrappers: a timing wrapper on them would slow the scalar
double-double path several-fold and distort every other self time.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

import numpy as np

#: Modules of the package, used as the layer names.  ``exceptions`` does no work.
LAYERS = ("cli", "suites", "series", "phase", "closed_forms", "binom")

#: Private stages of the Abel engine that are traced besides the public
#: functions, with the metric each one feeds.
ABEL_STAGES = {
    "_abel_term_count": "term_budget_s",
    "_dd_trig_table": "trig_table_s",
    "_dd_coeff_arrays": "coeff_table_s",
    "_dd_power_arrays": "power_table_s",
    "_dd_reduce_axis0": "reduce_s",
    "_extrapolate_radial": "extrapolate_s",
    "_abel_point_dd": "point_dd_s",
    "_abel_point_f64": "point_f64_s",
}

DD_COUNTED = ("add", "mul", "div")


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "trigsum" or name.startswith("trigsum."))]


def snapshot() -> dict:
    """Every attribute of every loaded trigsum module, to check restoration."""
    return {(m.__name__, k): v for m in _package_modules() for k, v in vars(m).items()}


def changed_attributes(before: dict) -> list[str]:
    """Names whose binding differs from ``before``."""
    after = snapshot()
    missing = object()
    return sorted(f"{m}.{k}" for m, k in before.keys() | after.keys()
                  if before.get((m, k), missing) is not after.get((m, k), missing))


def traced_functions() -> dict[str, object]:
    """Key ``<layer>.<name>`` to function for every function the tracer wraps."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"trigsum.{layer}"]
        for name, obj in vars(mod).items():
            if isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if not name.startswith("_") or (layer == "series" and name in ABEL_STAGES):
                out[f"{layer}.{name}"] = obj
    return out


class _Patcher:
    """Rebinds functions in every package module that refers to them."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, original, replacement) -> None:
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, name, value))
                    setattr(mod, name, replacement)

    def restore(self) -> None:
        for mod, name, value in reversed(self._saved):
            setattr(mod, name, value)
        self._saved.clear()


class _Stat:
    __slots__ = ("calls", "busy", "self_time", "active")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.active = 0


class Tracer:
    """Timing wrappers around the traced functions, plus workload counters."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.counts: dict[str, float] = {}
        self.wrapper_s = 0.0
        self._stack: list[float] = []
        self._patcher = _Patcher()
        self._grid_budgets: list[list[int]] = []
        self._pairs: set = set()

    # -- counters fed from call arguments and results ---------------------

    def _add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # ``result`` is None when the call raised.

    def _after_term_count(self, args, result) -> None:
        if result is None:
            return
        self._add("series.abel.terms", result)
        if self._grid_budgets:
            self._grid_budgets[-1].append(result)

    def _before_grid(self, args) -> None:
        self._grid_budgets.append([])

    def _after_grid(self, args, result) -> None:
        budgets = self._grid_budgets.pop()
        if result is not None and budgets:
            self._add("series.abel.terms_used", sum(budgets))
            self._add("series.abel.terms_tabulated", len(budgets) * max(budgets))

    def _after_extrapolate(self, args, result) -> None:
        self._add("series.abel.radial_samples", len(args[0]))

    def _after_phase(self, args, result) -> None:
        self._pairs.add((tuple(args[0]), args[1]))

    def _after_prefix(self, args, result) -> None:
        if result is not None:
            self._add("binom.binom_prefix.coeffs", len(result))

    def _after_run_cases(self, args, result) -> None:
        self._add("suites.cases", len(args[0]))

    def _hooks(self, key: str):
        before = {"series.abel_sum_grid": self._before_grid}
        after = {
            "series._abel_term_count": self._after_term_count,
            "series.abel_sum_grid": self._after_grid,
            "series._extrapolate_radial": self._after_extrapolate,
            "phase.series_at_phase": self._after_phase,
            "binom.binom_prefix": self._after_prefix,
            "suites.run_cases": self._after_run_cases,
        }
        return before.get(key), after.get(key)

    # -- spans --------------------------------------------------------------

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, _Stat())
        stack = self._stack
        clock = time.perf_counter
        before, after = self._hooks(key)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            if before is not None:
                before(args)
            stack.append(0.0)
            stat.active += 1
            result = None
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t2 = clock()
                children = stack.pop()
                stat.active -= 1
                stat.calls += 1
                if stat.active == 0:
                    stat.busy += t2 - t1
                stat.self_time += (t2 - t1) - children
                if after is not None:
                    after(args, result)
                t3 = clock()
                if stack:
                    stack[-1] += t3 - t0
                tracer.wrapper_s += (t1 - t0) + (t3 - t2)

        return wrapper

    @contextlib.contextmanager
    def span(self, key: str):
        """A span of the benchmark's own code, nested like a wrapped call."""
        stat = self.stats.setdefault(key, _Stat())
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            children = self._stack.pop()
            stat.calls += 1
            stat.busy += elapsed
            stat.self_time += elapsed - children
            if self._stack:
                self._stack[-1] += elapsed

    def install(self) -> None:
        for key, fn in traced_functions().items():
            self._patcher.patch(fn, self._wrap(key, fn))

    def uninstall(self) -> None:
        self._patcher.restore()

    @property
    def unique_phase_pairs(self) -> int:
        return len(self._pairs)


class DDCounter:
    """Count-only wrappers on the double-double kernels, in element-ops.

    ``div`` calls ``mul`` and ``add`` through the module, so those inner
    operations are counted under ``mul`` and ``add`` as well.
    """

    def __init__(self):
        self.elems = {name: 0 for name in DD_COUNTED}
        self._patcher = _Patcher()

    def _wrap(self, name: str, fn):
        elems = self.elems

        def wrapper(xh, xl, yh, yl):
            elems[name] += 1 if type(xh) is float and type(yh) is float else np.broadcast(xh, yh).size
            return fn(xh, xl, yh, yl)

        return wrapper

    def install(self) -> None:
        dd = sys.modules["trigsum.dd"]
        for name in DD_COUNTED:
            fn = getattr(dd, name)
            self._patcher.patch(fn, self._wrap(name, fn))

    def uninstall(self) -> None:
        self._patcher.restore()
