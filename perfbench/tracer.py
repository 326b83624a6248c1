"""In-memory span tracer patched around the package's public functions.

Each traced function is replaced, in every ``dirac_cyclotron`` module that
holds a reference to it, by a wrapper that records a span (id, name, start,
end, parent id).  Functions called more than about 1e5 times per pass get a
plain counter instead of a span.  Spans stay in memory and are written out
once, when the pass ends.  No package source is modified.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# functions recorded as spans, as layer.function; a method named
# _hook_<layer>_<function> on Tracer adds that call's work counters
SPANS = (
    "spectrum.phi",
    "spectrum.branch_coefficients",
    "basis.truncation_window",
    "basis.q_kernel_stack",
    "basis.build_mode_set",
    "fields.positive_energy_field",
    "fields.jc_field",
    "fields.fractional_revival_field",
    "observables.mean_velocity_positive",
    "observables.mean_spin_transverse",
    "observables.mean_velocity_jc",
    "observables.mean_spin_z_jc",
    "observables.spin_density",
    "oracle.mode_sum_field",
    "oracle.quadrature_expectation",
    "oracle.b1_quadrature",
    "cli.parse_config",
    "cli.run_scenario",
    "cli.validation_report",
)
COUNTED = ("cli.fmt",)
WORK_COUNTERS = (
    "basis.window_terms",
    "basis.q_kernel_stack.bytes",
    "fields.term_points",
    "oracle.mode_terms",
    "observables.taus",
)
TRACE_FUNCTIONS = (
    "observables.mean_velocity_positive",
    "observables.mean_spin_transverse",
    "observables.mean_velocity_jc",
    "observables.mean_spin_z_jc",
)

PACKAGE = "dirac_cyclotron"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _points(a, b) -> int:
    return int(np.broadcast(np.asarray(a), np.asarray(b)).size)


class Tracer:
    """Records spans and counters for one pass of the CLI."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counters = dict.fromkeys(WORK_COUNTERS, 0)
        self._calls: dict[str, itertools.count] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        self._windows: dict = {}
        self._distinct_params: set = set()
        self._window_fn = None

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, value: int) -> None:
        with self._lock:
            self.counters[name] += value

    def span(self, name: str, fn):
        """Wrap fn so each call records a span named ``name``.

        A call made on a pool thread with no open span of its own takes the
        main thread's innermost open span as parent, so work done for
        ``validation_report`` on the pool is counted as its children.
        """
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent))
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def counted(self, name: str, fn):
        """Wrap fn with a call counter only (no span, no clock reads)."""
        calls = self._calls[name] = itertools.count()

        @functools.wraps(fn)
        def counted(*args, _fn=fn, _tick=calls.__next__):
            _tick()
            return _fn(*args)

        return counted

    # -- work counters ------------------------------------------------------

    def _window_size(self, params, window) -> int:
        if window is None:
            window = self._windows.get(params)
            if window is None:
                window = self._windows[params] = self._window_fn(params)
        return window.n_max - window.n_min + 1

    def _hook_basis_truncation_window(self, args, kwargs, result):
        with self._lock:
            self._distinct_params.add(_arg(args, kwargs, 0, "params"))
        self.add("basis.window_terms", result.n_max - result.n_min + 1)

    def _hook_basis_q_kernel_stack(self, args, kwargs, result):
        k_max = _arg(args, kwargs, 0, "k_max")
        points = _points(_arg(args, kwargs, 1, "x"), _arg(args, kwargs, 2, "y"))
        self.add("basis.q_kernel_stack.bytes", (k_max + 1) * points * 16)

    def _count_term_points(self, args, kwargs, result):
        points = _points(_arg(args, kwargs, 0, "rho"), _arg(args, kwargs, 1, "theta"))
        window = args[4] if len(args) > 4 else kwargs.get("window")
        terms = self._window_size(_arg(args, kwargs, 3, "params"), window)
        self.add("fields.term_points", terms * points)

    _hook_fields_positive_energy_field = _count_term_points
    _hook_fields_jc_field = _count_term_points

    def _hook_oracle_mode_sum_field(self, args, kwargs, result):
        points = _points(_arg(args, kwargs, 0, "rho"), _arg(args, kwargs, 1, "theta"))
        entries = len(_arg(args, kwargs, 3, "mode_set").entries)
        self.add("oracle.mode_terms", entries * points)

    def _count_taus(self, args, kwargs, result):
        self.add("observables.taus", int(np.size(_arg(args, kwargs, 0, "tau"))))

    _hook_observables_mean_velocity_positive = _count_taus
    _hook_observables_mean_spin_transverse = _count_taus
    _hook_observables_mean_velocity_jc = _count_taus
    _hook_observables_mean_spin_z_jc = _count_taus

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Patch every traced or counted function into all package modules."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for name in SPANS + COUNTED:
            layer, func = name.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{layer}"], func)
            if name == "basis.truncation_window":
                self._window_fn = original
            wrapper = self.span(name, original) if name in SPANS else self.counted(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def dump(self) -> dict:
        """The recorded spans and counters, as plain JSON-ready data."""
        counters = dict(self.counters)
        for name, calls in self._calls.items():
            counters[name + ".calls"] = next(calls)  # calls made so far
        counters["basis.truncation_window.distinct_params"] = len(self._distinct_params)
        return {"spans": [list(s) for s in self.spans], "counters": counters}


def self_times(spans) -> dict[str, float]:
    """Sum, per span name, of span duration minus the time its children cover.

    ``spans`` holds (id, name, start, end, parent_id) tuples.  Overlapping
    children (from a thread pool) are merged before subtraction, so a parent
    is never charged negative time.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for sid, name, start, end, _ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[name] += (end - start) - covered
    return dict(out)
