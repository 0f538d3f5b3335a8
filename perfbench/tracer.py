"""Outside-in tracing of dpeflow's layers.

The tracer replaces the public entry points of each module with timing
wrappers for the duration of one traced repetition and puts the originals
back afterwards; nothing under ``src/`` changes.  Modules bind some functions
by name (``simulation`` imports ``compute_labels`` and ``exit_time_fn``,
``routing`` imports ``compose_monotone``, ``pointwise_min`` and ``prune``), so
every module attribute that refers to a wrapped function is patched, not only
the defining one; that includes the benchmark's own modules.

Every call is one span: name, start, end and the index of the span it ran
inside.  Spans stay in a flat array in memory and are reduced once, at the end,
to self times (span length minus the time its children cover) and call
counts per name.  Rounds are counted from the program's own
``QueueHistory`` constructions, one per round of ``simulation.run``.
"""

from __future__ import annotations

import functools
import statistics
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter_ns

from dpeflow import flow_state, network, predictors, pwl, routing, simulation

_PREDICTOR_CLASSES = tuple(
    cls for cls in vars(predictors).values()
    if isinstance(cls, type) and "predict" in vars(cls))

# span name -> (self-time metric, call-count metric or None)
SPAN_METRICS = {
    "network.import": ("network.import_s", None),
    "predictors.predict": ("predictors.predict_s",
                           "predictors.predict_calls"),
    "predictors.exit_time_fn": ("predictors.exit_fn_s", None),
    "routing.compute_labels": ("routing.labels_s", "routing.label_sets"),
    "routing.active_edges": ("routing.active_edges_s",
                             "routing.active_queries"),
    "pwl.compose_monotone": ("pwl.compose_s", "pwl.compose_calls"),
    "pwl.pointwise_min": ("pwl.min_s", "pwl.min_calls"),
    "pwl.prune": ("pwl.prune_s", "pwl.prune_calls"),
    "pwl.construct": ("pwl.construct_s", "pwl.constructed"),
    "flow_state.advance": ("flow_state.advance_s",
                           "flow_state.advance_calls"),
    "flow_state.next_rate_change": ("flow_state.next_change_s", None),
    "flow_state.assign_inflow": ("flow_state.assign_s",
                                 "flow_state.assign_calls"),
    "simulation.run": ("simulation.self_s", None),
    "simulation.compute_metrics": ("simulation.metrics_s", None),
}


class Tracer:
    """Records spans while installed; ``with Tracer() as tr:`` installs it."""

    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # four slots per call: name id, parent offset, start ns, end ns.
        # A flat array keeps the spans out of the garbage collector's way.
        # The bottom of the stack is -1, the parent of top-level spans.
        self._spans = array("q")
        self._stack: list[int] = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self.predicted_breakpoints: list[int] = []
        self.fifo_fixes = 0
        self.label_breakpoints: list[int] = []
        self.events = 0
        self.rounds = 0

    # ------------------------------------------------------------- install

    def __enter__(self):
        self._count_rounds()
        for fn in ("import_tntp", "load_scenario"):
            self._wrap_function(network, fn, "network.import")
        for cls in _PREDICTOR_CLASSES:
            self._wrap_attr(cls, "predict", "predictors.predict",
                            self._on_predict)
        self._wrap_function(predictors, "exit_time_fn",
                            "predictors.exit_time_fn")
        self._wrap_function(routing, "compute_labels",
                            "routing.compute_labels", self._on_labels)
        self._wrap_attr(routing.LabelSet, "active_edges",
                        "routing.active_edges")
        for fn in ("compose_monotone", "pointwise_min", "prune"):
            self._wrap_function(pwl, fn, f"pwl.{fn}")
        self._wrap_attr(pwl.PiecewiseLinearFn, "__post_init__",
                        "pwl.construct")
        self._wrap_attr(flow_state.FlowOverTime, "advance",
                        "flow_state.advance", self._on_advance)
        for fn in ("next_rate_change", "assign_inflow"):
            self._wrap_attr(flow_state.FlowOverTime, fn, f"flow_state.{fn}")
        self._wrap_function(simulation, "run", "simulation.run")
        self._wrap_function(simulation, "compute_metrics",
                            "simulation.compute_metrics")
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    def _wrap_function(self, module, attr, name, on_result=None):
        original = getattr(module, attr)
        traced = self._traced(original, name, on_result)
        for mod in list(sys.modules.values()):
            for key, value in list(getattr(mod, "__dict__", {}).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, traced)

    def _count_rounds(self):
        """Count ``QueueHistory`` constructions without a span, so their
        time stays in the caller's self time."""
        original = predictors.QueueHistory.__init__
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            tracer.rounds += 1
            original(*args, **kwargs)

        self._undo.append((predictors.QueueHistory, "__init__", original))
        predictors.QueueHistory.__init__ = counted

    def _wrap_attr(self, cls, attr, name, on_result=None):
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._traced(original, name, on_result))

    def _traced(self, original, name, on_result):
        name_id = self._name_ids.setdefault(name, len(self._names))
        if name_id == len(self._names):
            self._names.append(name)
        spans, stack, clock = self._spans, self._stack, perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            at = len(spans)
            spans.extend((name_id, stack[-1], clock(), 0))
            stack.append(at)
            try:
                result = original(*args, **kwargs)
            finally:
                spans[at + 3] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # ----------------------------------------------------- result counters

    def _on_predict(self, predicted):
        self.predicted_breakpoints.append(len(predicted.fn.times))
        self.fifo_fixes += predicted.fifo_fixes

    def _on_labels(self, label_set):
        self.label_breakpoints.extend(
            len(f.times) for f in label_set.labels.values())

    def _on_advance(self, events):
        self.events += len(events)

    # -------------------------------------------------------------- reduce

    def totals(self) -> tuple[dict[str, float], Counter, float]:
        """Self time and calls per span name, and the time of root spans."""
        spans = self._spans
        child_ns = [0] * len(spans)
        root_ns = 0
        for at in range(0, len(spans), 4):
            parent, length = spans[at + 1], spans[at + 3] - spans[at + 2]
            if parent < 0:
                root_ns += length
            else:
                child_ns[parent] += length
        self_ns: dict[str, int] = defaultdict(int)
        calls: Counter = Counter()
        for at in range(0, len(spans), 4):
            name = self._names[spans[at]]
            self_ns[name] += spans[at + 3] - spans[at + 2] - child_ns[at]
            calls[name] += 1
        return ({name: ns * 1e-9 for name, ns in self_ns.items()}, calls,
                root_ns * 1e-9)

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric this tracer can give, zero when unused,
        and ``trace.span_s``, the time covered by top-level spans."""
        self_time, calls, root_s = self.totals()
        out: dict[str, float] = {"trace.span_s": root_s}
        for span_name, (time_metric, count_metric) in SPAN_METRICS.items():
            out[time_metric] = self_time.get(span_name, 0.0)
            if count_metric is not None:
                out[count_metric] = calls.get(span_name, 0)
        out["predictors.forecast_breakpoints_mean"] = _mean(
            self.predicted_breakpoints)
        out["predictors.fifo_fixes"] = self.fifo_fixes
        out["routing.label_breakpoints_mean"] = _mean(self.label_breakpoints)
        out["routing.label_breakpoints_max"] = max(self.label_breakpoints,
                                                   default=0)
        out["flow_state.events"] = self.events
        out["simulation.rounds"] = self.rounds
        return out


def _mean(values):
    return statistics.fmean(values) if values else 0.0
