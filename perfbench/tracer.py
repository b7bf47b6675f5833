"""Per-layer tracing from outside the simulator.

The simulator imports most functions by name (``from .states import
fidelity``), so wrapping ``states.fidelity`` alone would miss every call made
from ``optomech``. :func:`Tracer.install` therefore replaces a function in
every ``mechmbqc`` module namespace that holds it, which is where Python looks
the name up at call time. A target missing from the program is recorded as
absent and traced as zero.

Spans (name, start, end, parent span, op id) are kept in memory and written
out once the run ends. Hot calls are counted without a span.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

# (module, attribute, layer name, kind). "span" records a span; "count" only
# counts calls. Several functions may share one layer name.
TARGETS = (
    ("mechmbqc.cli", "main", "cli", "span"),
    ("mechmbqc.config", "load_config", "config.load", "span"),
    ("mechmbqc.config", "config_from_dict", "config.load", "span"),
    ("mechmbqc.optomech", "run_monitoring_protocol", "optomech.protocol", "span"),
    ("mechmbqc.optomech", "optimize_schedule", "optomech.optimize", "span"),
    ("mechmbqc.optomech", "build_qnd_step", "optomech.coeffs", "span"),
    ("mechmbqc.dynamics", "build_coefficients", "optomech.coeffs", "span"),
    ("mechmbqc.dynamics", "integrate", "dynamics.propagate", "span"),
    ("mechmbqc.dynamics", "suggest_dt", "dynamics.suggest_dt", "span"),
    ("mechmbqc.mbqc", "run_projective_mbqc", "mbqc.reference", "span"),
    ("mechmbqc.mbqc", "run_projective_cz", "mbqc.reference", "span"),
    ("mechmbqc.mbqc", "linear_cluster_with_input", "mbqc.cluster", "span"),
    ("mechmbqc.mbqc", "dual_rail_with_inputs", "mbqc.cluster", "span"),
    ("mechmbqc.states", "build_cluster", "mbqc.cluster", "span"),
    ("mechmbqc.states", "fidelity", "states.fidelity", "span"),
    ("mechmbqc.states", "partial_trace", "states.partial_trace", "span"),
    ("mechmbqc.states", "homodyne_project", "states.homodyne_project", "span"),
    ("mechmbqc.states", "symplectic_eigenvalues", "states.symplectic_eigenvalues",
     "count"),
)

# Per-layer metrics reported by a traced run: (metric, unit).
LAYER_METRICS = (
    ("dynamics.propagate.calls", "count"),
    ("dynamics.propagate.s", "s"),
    ("dynamics.propagate.self_s", "s"),
    ("dynamics.rk4_steps", "count"),
    ("dynamics.suggest_dt.calls", "count"),
    ("dynamics.suggest_dt.s", "s"),
    ("states.fidelity.calls", "count"),
    ("states.fidelity.s", "s"),
    ("states.fidelity.self_s", "s"),
    ("states.partial_trace.calls", "count"),
    ("states.partial_trace.s", "s"),
    ("states.symplectic_eigenvalues.calls", "count"),
    ("states.homodyne_project.calls", "count"),
    ("states.homodyne_project.s", "s"),
    ("states.homodyne_project.self_s", "s"),
    ("optomech.protocol.self_s", "s"),
    ("optomech.optimize.self_s", "s"),
    ("optomech.optimize.evals", "count"),
    ("optomech.optimize.useful_ratio", "ratio"),
    ("optomech.coeffs.calls", "count"),
    ("optomech.coeffs.s", "s"),
    ("mbqc.reference.calls", "count"),
    ("mbqc.reference.s", "s"),
    ("mbqc.cluster.s", "s"),
    ("config.load.s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def _rk4_steps(signature):
    """Fixed RK4 step count ceil(t_total / dt), as ``integrate`` takes it."""
    if signature is None or not {"t_total", "dt"} <= set(signature.parameters):
        return None

    def steps(args, kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        t_total, dt = float(bound["t_total"]), float(bound["dt"])
        return max(1, math.ceil(t_total / dt)) if t_total > 0 else 0

    return steps


class Tracer:
    """Records spans and counts for the functions in :data:`TARGETS`."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        # Each span: [name id, start, end, parent index, op id, nested].
        self.spans = []
        self.stack = []
        self.active = defaultdict(int)
        self.counts = defaultdict(int)
        self.rk4_steps = 0
        self.op_id = -1
        self.absent = []
        self._patched = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _span_wrapper(self, func, name, on_call=None):
        name_id = self._name_id(name)
        spans, stack, active = self.spans, self.stack, self.active
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                self.rk4_steps += on_call(args, kwargs)
            index = len(spans)
            span = [name_id, clock(), 0.0, stack[-1] if stack else -1,
                    self.op_id, active[name_id] > 0]
            spans.append(span)
            stack.append(index)
            active[name_id] += 1
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = clock()
                active[name_id] -= 1
                stack.pop()

        return wrapper

    def _count_wrapper(self, func, name):
        counts = self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every target in each mechmbqc namespace that holds it."""
        self.absent = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "mechmbqc"
                                         or key.startswith("mechmbqc."))]
        for module_name, attr, name, kind in TARGETS:
            home = sys.modules.get(module_name)
            func = getattr(home, attr, None) if home is not None else None
            if not callable(func):
                self.absent.append(f"{module_name}.{attr}")
                continue
            if kind == "count":
                wrapper = self._count_wrapper(func, name)
            else:
                on_call = None
                if name == "dynamics.propagate":
                    try:
                        on_call = _rk4_steps(inspect.signature(func))
                    except (TypeError, ValueError):
                        on_call = None
                    if on_call is None:
                        self.absent.append("dynamics.rk4_steps")
                wrapper = self._span_wrapper(func, name, on_call)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is func:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, func))

    def uninstall(self):
        for module, key, func in reversed(self._patched):
            setattr(module, key, func)
        self._patched.clear()

    def layer_totals(self) -> dict:
        """Per layer name: outermost calls, busy seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0}
                  for name in self.names}
        for index, (name_id, start, end, _, _, nested) in enumerate(self.spans):
            entry = totals[self.names[name_id]]
            entry["self_s"] += (end - start) - child[index]
            if not nested:
                entry["calls"] += 1
                entry["s"] += end - start
        return totals

    def evals_under(self, parent_name: str, child_name: str) -> int:
        """Spans named ``child_name`` whose parent span is ``parent_name``."""
        parent_id = self.name_ids.get(parent_name)
        child_id = self.name_ids.get(child_name)
        if parent_id is None or child_id is None:
            return 0
        return sum(1 for name_id, _, _, parent, _, _ in self.spans
                   if name_id == child_id and parent >= 0
                   and self.spans[parent][0] == parent_id)

    def dump(self) -> dict:
        return {
            "names": self.names,
            "fields": ["name", "start", "end", "parent", "op", "nested"],
            "spans": [[n, round(s, 7), round(e, 7), p, o, int(x)]
                      for n, s, e, p, o, x in self.spans],
            "counts": dict(self.counts),
            "absent": self.absent,
        }
