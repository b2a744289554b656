"""Spans around hwenc's public functions, installed from outside the package.

``Tracer.install`` replaces each public module-level function of the ten
hwenc layers at every ``hwenc.*`` module attribute that refers to it (so
``encoders.apply_gate`` and ``simulator.apply_gate`` are one traced
function), and ``uninstall`` puts the originals back.  Nested calls become
parent and child spans; a span records its function, start, end, parent
span, op id and whether the call raised.  Spans stay in memory until
``dump``.

Two functions stay unwrapped because they run once per basis state per
gate, so wrapping them would multiply the run time: ``ir.apply_to_basis_state``
and ``ir.controls_satisfied``.  Their time counts as self time of the
caller, the ``simulator`` layer.  Methods and properties of hwenc's classes
are not wrapped either and count toward their caller.  A generator function
(``bitstrings.walk_states``) is drained inside its span, so the span covers
the walk rather than only the creation of the generator.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("bitstrings", "coordinates", "encoders", "compiler", "counting",
          "ir", "simulator", "mitigation", "qgaussian", "cli")

UNWRAPPED = frozenset({"ir.apply_to_basis_state", "ir.controls_satisfied"})

NAME, START, END, PARENT, OP, RAISED = range(6)


class Tracer:
    """Span recorder plus per-op counters taken at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.lowered: list = []  # (logical circuit, LoweringResult) of the current op
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        packages = [m for name, m in sorted(sys.modules.items())
                    if name == "hwenc" or name.startswith("hwenc.")]
        for layer in LAYERS:
            module = importlib.import_module(f"hwenc.{layer}")
            for attr, fn in sorted(vars(module).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__ or name in UNWRAPPED):
                    continue
                wrapped = self._wrap(name, fn)
                for package in packages:
                    for site, value in vars(package).items():
                        if value is fn:
                            self._patches.append((package, site, wrapped, fn))

    def install(self):
        for module, attr, wrapped, _ in self._patches:
            setattr(module, attr, wrapped)

    def uninstall(self):
        for module, attr, _, original in self._patches:
            setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook = _HOOKS.get(name)
        drain = inspect.isgeneratorfunction(fn)

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name_id, clock(), 0, stack[-1] if stack else -1, self.op, False]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = iter(list(result))
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def layer_totals(self, ops: set[int]) -> dict:
        """Per-layer and per-function self time, calls and errors over ``ops``."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += span[END] - span[START]
        totals: dict[str, Counter] = {}
        for i, span in enumerate(self.spans):
            if span[OP] not in ops:
                continue
            name = self.names[span[NAME]]
            self_s = (span[END] - span[START] - child_ns[i]) / 1e9
            for key in (name.split(".")[0], name):
                row = totals.setdefault(key, Counter())
                row["self_s"] += self_s
                row["total_s"] += (span[END] - span[START]) / 1e9
                row["calls"] += 1
                row["errors"] += span[RAISED]
        return totals

    def dump(self, path: str):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op",
                                  "raised"],
                       "names": self.names, "spans": self.spans}, f)


def _count_entries(tracer, args, kwargs, result):
    tracer.counters["simulator.apply_gate.entries"] += len(args[0])


def _count_support(tracer, args, kwargs, result):
    tracer.counters["simulator.run.support"] += len(result.amps)


def _count_shots(tracer, args, kwargs, result):
    tracer.counters["simulator.run_noisy.shots"] += (
        args[2] if len(args) > 2 else kwargs["shots"])


def _keep_lowered(tracer, args, kwargs, result):
    tracer.lowered.append((args[0], result))


def _count_logical(tracer, args, kwargs, result):
    tracer.counters["encoders.logical_gates"] += len(result.circuit.gates)


def _count_proxies(tracer, args, kwargs, result):
    tracer.counters["mitigation.proxies"] += len(result)


def _count_fits(tracer, args, kwargs, result):
    raw = args[1] if len(args) > 1 else kwargs["raw"]
    fits = result[1]
    for key, fit in fits.items():
        tracer.counters["mitigation.degenerate_fits"] += fit.degenerate
        tracer.counters["mitigation.clamped"] += not 0.0 <= fit.apply(raw[key]) <= 1.0


def _count_bytes(tracer, args, kwargs, result):
    tracer.counters["ir.out_bytes"] += len(result)


_HOOKS = {
    "simulator.apply_gate": _count_entries,
    "simulator.run": _count_support,
    "simulator.run_noisy": _count_shots,
    "compiler.lower": _keep_lowered,
    "encoders.encode_dense_real": _count_logical,
    "encoders.encode_dense_complex": _count_logical,
    "encoders.encode_sparse": _count_logical,
    "encoders.encode_binary": _count_logical,
    "encoders.encode_binary_complex": _count_logical,
    "mitigation.near_clifford_ensemble": _count_proxies,
    "mitigation.fit_and_mitigate": _count_fits,
    "ir.serialize": _count_bytes,
    "ir.emit_qasm": _count_bytes,
}
