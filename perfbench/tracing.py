"""Layer spans recorded from outside the package.

``traced`` wraps each traced public function of ``lqturnpike`` in one
shared wrapper and installs it at every place the package looks the
function up at call time: module globals, dict registries such as
``turnpike.SOLVERS`` and list registries such as ``verification.CRITERIA``.
Every replaced entry is put back when the block exits.  A target whose
module or attribute is missing yields no span, so refactors of the package
cannot break the benchmark.

Spans are kept in memory as ``[name, start, end, parent]`` records; the
runs are single-threaded (``jobs=1``), so one call stack is enough.
"""

import contextlib
import functools
import importlib
import os
import sys
import time

# (span name, module, attribute).  Span names are the layer metric names.
TARGETS = (
    ("lq.solve_riccati_sweep", "lqturnpike.lq", "solve_riccati_sweep"),
    ("riccati.backward_sweep_data", "lqturnpike.riccati", "backward_sweep_data"),
    ("riccati.backward_sweep_loop", "lqturnpike.riccati", "backward_sweep_loop"),
    ("lq.closed_loop_forward_loop", "lqturnpike.lq", "closed_loop_forward_loop"),
    ("lq.solve_transcription", "lqturnpike.lq", "solve_transcription"),
    ("lq.spsolve", "lqturnpike.lq", "spsolve"),
    ("lq.simulate_forward", "lqturnpike.lq", "simulate_forward"),
    ("lq.duality_residual", "lqturnpike.lq", "duality_residual"),
    ("riccati.solve_are", "lqturnpike.riccati", "solve_are"),
    ("riccati.solve_dre", "lqturnpike.riccati", "solve_dre"),
    ("stationary.solve_stationary", "lqturnpike.stationary", "solve_stationary"),
    (
        "stationary.stationary_convergence_study",
        "lqturnpike.stationary",
        "stationary_convergence_study",
    ),
    (
        "operators.approx_control_operator",
        "lqturnpike.operators",
        "approx_control_operator",
    ),
    ("turnpike.propagation_residual", "lqturnpike.turnpike", "propagation_residual"),
    ("turnpike.verify_turnpike", "lqturnpike.turnpike", "verify_turnpike"),
    ("turnpike.yosida_dynamic_study", "lqturnpike.turnpike", "yosida_dynamic_study"),
    ("turnpike.energy_diagnostics", "lqturnpike.turnpike", "energy_diagnostics"),
    ("reporting.write_csv", "lqturnpike.reporting", "write_csv"),
    ("cli.main", "lqturnpike.cli", "main"),
)
CRITERIA_SITE = ("lqturnpike.verification", "CRITERIA")


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if name == "reporting.write_csv":
                    self._count_bytes(kwargs.get("path", args[0] if args else None))

        return wrapper

    def _count_bytes(self, path):
        with contextlib.suppress(OSError, TypeError):
            key = "reporting.write_csv.bytes"
            self.counters[key] = self.counters.get(key, 0) + os.path.getsize(path)


def _package_namespaces():
    return [
        vars(module)
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "lqturnpike" or name.startswith("lqturnpike."))
    ]


def _lookup_sites(original):
    """Every (container, key) of the package that holds ``original``."""
    sites = []
    for namespace in _package_namespaces():
        for key, value in namespace.items():
            if key.startswith("__"):
                continue
            if value is original:
                sites.append((namespace, key))
            elif isinstance(value, dict):
                sites.extend((value, k) for k, v in value.items() if v is original)
            elif isinstance(value, list):
                sites.extend((value, i) for i, v in enumerate(value) if v is original)
    return sites


def _targets():
    """(span name, original function) for every target present."""
    found = []
    for span_name, module_name, attr in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        fn = getattr(module, attr, None)
        if callable(fn):
            found.append((span_name, fn))
    try:
        criteria = getattr(importlib.import_module(CRITERIA_SITE[0]), CRITERIA_SITE[1])
    except (ImportError, AttributeError):
        criteria = []
    found.extend((f"verification.criterion_{k}", fn) for k, fn in enumerate(criteria, 1))
    return found


@contextlib.contextmanager
def traced(tracer):
    """Install one shared wrapper per traced function; restore all on exit.

    Yields the list of ``(container, key, original)`` replacements made.
    """
    replaced = []
    try:
        for span_name, original in _targets():
            wrapper = tracer.wrap(span_name, original)
            for container, key in _lookup_sites(original):
                replaced.append((container, key, original))
                container[key] = wrapper
        yield replaced
    finally:
        for container, key, original in reversed(replaced):
            container[key] = original


def layer_totals(spans):
    """Per span name: total seconds (outermost calls), calls, self seconds.

    Self time is a span's duration minus the time in its direct child
    spans, which run one after another on the single call stack.
    """
    in_children = {}
    for _, start, end, parent in spans:
        in_children[parent] = in_children.get(parent, 0.0) + (end - start)
    totals = {}
    for index, (name, start, end, parent) in enumerate(spans):
        entry = totals.setdefault(name, {"s": 0.0, "calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - in_children.get(index, 0.0)
        if not _has_ancestor(spans, parent, name):
            entry["s"] += end - start
    return totals


def _has_ancestor(spans, index, name):
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False


def time_within(spans, name, ancestor):
    """Seconds in spans called ``name`` that run inside a span ``ancestor``."""
    return sum(
        end - start
        for span_name, start, end, parent in spans
        if span_name == name and _has_ancestor(spans, parent, ancestor)
    )
