"""Spans around the public functions of crms, installed from outside the package.

A traced function is replaced at every module attribute that refers to it,
because ``from .fields import l2_gradient`` binds its own name in the
importing module: both ``crms.flow.l2_gradient`` and
``crms.fields.l2_gradient`` must point at the wrapper.  Class constructions
are traced through ``__post_init__`` and methods through the class attribute,
which every caller looks up at call time.  Spans stay in memory until the
benchmark writes them out.
"""

from __future__ import annotations

import csv
import functools
import os
import sys
from collections import defaultdict
from time import perf_counter

# Bytes an l2_gradient / action call streams, as full-state array passes.
# A pass reads or writes one array of the state's size; every numpy operation
# reads its operands and writes its result once.  l2_gradient: two centered
# differences at 9 passes each (two rolls, a subtraction, a division), two
# fiber matmuls at 2, their sum at 3, the Hamiltonian gradient at 5 and the
# final difference at 3.  action: the same two differences, the theta
# contraction on quarter-size slices (about 5.5) and the Hamiltonian value
# (about 5).  The counts are a model of the code, not a measurement.
GRADIENT_PASSES = 33
ACTION_PASSES = 28.5

# (metric prefix, module, attribute path, kind): kind "function" is a module
# function, "method" a method on a class, "class" a dataclass whose
# constructions are counted through __post_init__.
TARGETS = (
    ("cli.main", "crms.cli", "main", "function"),
    ("flow.run_flow", "crms.flow", "run_flow", "function"),
    ("flow.flow_step", "crms.flow", "flow_step", "function"),
    ("flow.fueter_residual", "crms.flow", "fueter_residual", "function"),
    ("flow.write_trace_csv", "crms.flow", "write_trace_csv", "function"),
    ("fields.l2_gradient", "crms.fields", "l2_gradient", "function"),
    ("fields.action", "crms.fields", "action", "function"),
    ("fields.diff", "crms.fields", "diff", "function"),
    ("fields.FieldState", "crms.fields", "FieldState", "class"),
    ("fields.TorusGrid.coordinates", "crms.fields", "TorusGrid.coordinates", "method"),
    ("fields.make_hamiltonian", "crms.fields", "make_hamiltonian", "function"),
    ("fields.bridges_residual", "crms.fields", "bridges_residual", "function"),
    ("fields.write_state", "crms.fields", "write_state", "function"),
    ("sampling.random_smooth_state", "crms.sampling", "random_smooth_state", "function"),
    ("sampling.random_crms_form", "crms.sampling", "random_crms_form", "function"),
    ("compatible.build_compatible", "crms.compatible", "build_compatible", "function"),
    ("compatible.standard_triple", "crms.compatible", "standard_triple", "function"),
    ("linalg.standard_crms_form", "crms.linalg", "standard_crms_form", "function"),
    ("linalg.wedge3", "crms.linalg", "wedge3", "function"),
    ("linalg.pull_back", "crms.linalg", "pull_back", "function"),
    ("linalg.validate_crms", "crms.linalg", "validate_crms", "function"),
    ("linalg.AlternatingThreeForm", "crms.linalg", "AlternatingThreeForm", "class"),
    ("darboux.crms_darboux", "crms.darboux", "crms_darboux", "function"),
    ("darboux.crps_darboux", "crms.darboux", "crps_darboux", "function"),
    ("darboux.darboux_reconstruction_error", "crms.darboux", "darboux_reconstruction_error", "function"),
)

# The value and gradient of a Hamiltonian are attributes of the object that
# make_hamiltonian returns, so they are wrapped on each returned object.
HAMILTONIAN_SPANS = ("fields.hamiltonian.value", "fields.hamiltonian.gradient")
SPAN_NAMES = tuple(t[0] for t in TARGETS) + HAMILTONIAN_SPANS

# Quantities recorded by the hooks below, beside the span-derived ones.
COUNTERS = (
    "flow.trace_states_kept",
    "flow.fueter_residual.states",
    "fields.write_state.bytes",
    "fields.l2_gradient.bytes_computed",
    "fields.action.bytes_computed",
)


_CLASSES = {t[0] for t in TARGETS if t[3] == "class"}


def count_name(span: str) -> str:
    return "constructions" if span in _CLASSES else "calls"


class Tracer:
    """Records one span per traced call while ``on`` is true."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, invocation)
        self.counters: dict[str, float] = defaultdict(float)
        self.invocation = 0
        self.on = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.invocation)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every target at each crms module attribute bound to it."""
        hooks = {
            "flow.run_flow": self._after_run_flow,
            "flow.fueter_residual": self._after_fueter_residual,
            "fields.write_state": self._after_write_state,
            "fields.make_hamiltonian": self._after_make_hamiltonian,
            "fields.l2_gradient": self._after_l2_gradient,
            "fields.action": self._after_action,
        }
        for name, module, path, kind in TARGETS:
            owner = sys.modules[module]
            if kind == "method":
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                self._replace(cls, attr, self.wrap(name, getattr(cls, attr)))
            elif kind == "class":
                cls = getattr(owner, path)
                self._replace(cls, "__post_init__", self.wrap(name, cls.__post_init__))
            else:
                original = getattr(owner, path)
                wrapper = self.wrap(name, original, hooks.get(name))
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "crms" or mod_name.startswith("crms."):
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._replace(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    # -- hooks: quantities a span alone does not carry ----------------------

    def _after_run_flow(self, args, trace) -> None:
        self.counters["flow.trace_states_kept"] += len(trace.states)

    def _after_fueter_residual(self, args, result) -> None:
        self.counters["flow.fueter_residual.states"] += len(args[0])

    def _after_write_state(self, args, result) -> None:
        target = args[1]
        if isinstance(target, (str, os.PathLike)):
            self.counters["fields.write_state.bytes"] += os.path.getsize(target)

    def _after_make_hamiltonian(self, args, spec) -> None:
        for span, attr in zip(HAMILTONIAN_SPANS, ("value", "gradient")):
            object.__setattr__(spec, attr, self.wrap(span, getattr(spec, attr)))

    def _after_l2_gradient(self, args, result) -> None:
        self.counters["fields.l2_gradient.bytes_computed"] += GRADIENT_PASSES * args[0].values.nbytes

    def _after_action(self, args, result) -> None:
        self.counters["fields.action.bytes_computed"] += ACTION_PASSES * args[0].values.nbytes

    # -- derived figures -----------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive seconds and self seconds per span name.

        Self time is a span's duration minus the durations of its direct
        children; spans nest because the program is single-threaded.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child[index]
        return totals

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start_s", "end_s", "parent", "invocation"])
            for index, (name, start, end, parent, invocation) in enumerate(self.spans):
                writer.writerow([index, name, repr(start), repr(end), parent, invocation])
