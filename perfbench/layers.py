"""Per-layer host time, measured from outside the program.

A :class:`Tracer` wraps the public entry points of each layer for the
duration of one traced operation and restores them afterwards, so an
untraced operation runs the unmodified code.  A timed wrapper keeps a
span stack: each call adds one to its layer's count, its duration to the
layer's total, and its duration minus the time its wrapped children took
to the layer's self time.  Entry points called once per engine event
(``schedule``, ``unschedule``, process creation) are only counted, to
keep the tracing overhead small.

Engine self time covers everything the engine resumes that has no span
of its own: the approach runners and the ``cuda`` and ``hw`` generators.
"""

from __future__ import annotations

import sys
import time

import repro.kernels  # noqa: F401 - loads every profiled kernel
from repro.hetsort.context import RunContext
from repro.hetsort.plan import make_plan
from repro.hetsort.validate import check_sorted_permutation
from repro.obs import flows as obs_flows
from repro.obs import profile
from repro.obs.counters import CounterSeries
from repro.obs.memory import MemoryLedger
from repro.obs.metrics import compute_metrics
from repro.service.controller import AdaptiveController
from repro.service.service import SortService
from repro.service.verdict import build_verdict
from repro.sim import allocators
from repro.sim.bandwidth import FlowNetwork
from repro.sim.engine import Environment, Process
from repro.sim.trace import Trace

#: Kernel names as :func:`repro.obs.profile.profiled` registers them.
KERNELS = ("radix.sort_floats", "mergepath.merge_two",
           "multiway.multiway_merge", "multiway.losertree_merge",
           "samplesort.sample_sort")

# (owner, attribute, layer): class methods wrapped in place.
_METHODS = (
    (FlowNetwork, "transfer", "sim.bandwidth.transfer"),
    (obs_flows.FlowLedger, "on_start", "obs.flows.capture"),
    (obs_flows.FlowLedger, "on_update", "obs.flows.capture"),
    (obs_flows.FlowLedger, "on_end", "obs.flows.capture"),
    (obs_flows.FlowLedger, "summary", "obs.flows.summary"),
    (MemoryLedger, "_record", "obs.memory.capture"),
    (MemoryLedger, "check_balanced", "obs.memory.check_balanced"),
    (CounterSeries, "add", "obs.counters.capture"),
    (Trace, "record", "sim.trace.record"),
    (SortService, "_footprint", "service.plan"),
    (AdaptiveController, "_epoch", "service.controller"),
)

# (function, layer): module-level functions, replaced in every loaded
# ``repro`` module that imported them by name.
_FUNCTIONS = (
    (allocators.fill_component, "sim.allocators.fill_component"),
    (obs_flows.attribute_contention, "obs.flows.attribute_contention"),
    (compute_metrics, "obs.metrics.compute"),
    (make_plan, "hetsort.plan"),
    (check_sorted_permutation, "hetsort.validate"),
    (build_verdict, "service.verdict"),
)

# (owner, attribute, counter): counted only, because they run once per
# engine event or, for the generator function ``_job``, return at once.
_COUNTED = (
    (Environment, "schedule", "sim.engine.scheduled"),
    (Environment, "unschedule", "sim.engine.cancelled"),
    (Process, "__init__", "sim.engine.processes"),
    (SortService, "_job", "service.jobs"),
)


def _repro_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro"
                                  or name.startswith("repro."))]


def _profiled_kernels() -> dict:
    """Every profiled kernel object, by its profiled name."""
    found = {}
    for mod in _repro_modules():
        for value in vars(mod).values():
            name = getattr(value, "__profiled_name__", None)
            if name is not None:
                found[name] = value
    return found


class Tracer:
    """Spans and counts for one traced operation."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.events = 0
        self.chunks = 0
        self._stack: list[list[float]] = []   # child seconds per frame
        self._restore: list = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, layer: str, fn):
        calls, total, own = self.calls, self.total_s, self.self_s
        stack = self._stack
        clock = time.perf_counter
        calls.setdefault(layer, 0)
        total.setdefault(layer, 0.0)
        own.setdefault(layer, 0.0)

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                calls[layer] += 1
                total[layer] += dt
                own[layer] += dt - frame[0]
        return wrapper

    def _count(self, layer: str, fn):
        calls = self.calls
        calls.setdefault(layer, 0)

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _engine_run(self, fn):
        timed = self._span("sim.engine", fn)

        def run(env, *args, **kwargs):
            before = env.processed_events
            try:
                return timed(env, *args, **kwargs)
            finally:
                self.events += env.processed_events - before
        return run

    def _run_context(self, fn):
        def init(ctx, *args, **kwargs):
            fn(ctx, *args, **kwargs)
            plan = ctx.plan
            self.chunks += sum(len(plan.chunks(b)) for b in plan.batches)
        return init

    # -- install / remove ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_function(self, fn, wrapper) -> None:
        for mod in _repro_modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        self._set(Environment, "run",
                  self._engine_run(Environment.run))
        self._set(RunContext, "__init__",
                  self._run_context(RunContext.__init__))
        for owner, attr, layer in _METHODS:
            self._set(owner, attr, self._span(layer, getattr(owner, attr)))
        for owner, attr, layer in _COUNTED:
            self._set(owner, attr, self._count(layer, getattr(owner, attr)))
        for fn, layer in _FUNCTIONS:
            self._replace_function(fn, self._span(layer, fn))
        kernels = _profiled_kernels()
        if set(KERNELS) - set(kernels):
            raise RuntimeError("profiled kernels not found: "
                               f"{sorted(set(KERNELS) - set(kernels))}")
        for name, fn in kernels.items():
            self._replace_function(fn, self._span(f"kernels.{name}", fn))
        profile.reset_profiling()
        profile.enable_profiling()

    def remove(self) -> None:
        profile.disable_profiling()
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- results -------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """The deterministic op counts: equal on every traced run of the
        same code and input."""
        c = self.calls
        out = {
            "sim.engine.events": self.events,
            "sim.engine.scheduled": c["sim.engine.scheduled"],
            "sim.engine.cancelled": c["sim.engine.cancelled"],
            "sim.engine.processes": c["sim.engine.processes"],
            "sim.bandwidth.flows": c["sim.bandwidth.transfer"],
            "sim.allocators.fill_component_calls":
                c["sim.allocators.fill_component"],
            "obs.flows.capture_calls": c["obs.flows.capture"],
            "sim.trace.spans": c["sim.trace.record"],
            "hetsort.chunks": self.chunks,
            "service.jobs": c["service.jobs"],
            "service.controller_epochs": c["service.controller"],
        }
        for name in KERNELS:
            out[f"kernels.{name}.calls"] = c.get(f"kernels.{name}", 0)
        return out

    def attributed_s(self) -> float:
        """Host seconds inside any span (the sum of self times)."""
        return sum(self.self_s.values())

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of one traced operation."""
        own, total = self.self_s, self.total_s
        counts = self.counts()
        chunks = counts["hetsort.chunks"]
        scheduled = counts["sim.engine.scheduled"]
        out: dict[str, float] = dict(counts)
        out.update({
            "sim.engine.self_s": own["sim.engine"],
            "sim.engine.events_per_chunk":
                self.events / chunks if chunks else 0.0,
            "sim.engine.useful_ratio":
                self.events / scheduled if scheduled else 0.0,
            "sim.bandwidth.transfer_s": own["sim.bandwidth.transfer"],
            "sim.allocators.fill_component_s":
                own["sim.allocators.fill_component"],
            "obs.flows.capture_s": own["obs.flows.capture"],
            "obs.memory.capture_s": own["obs.memory.capture"],
            "obs.counters.capture_s": own["obs.counters.capture"],
            "sim.trace.record_s": own["sim.trace.record"],
            "obs.flows.summary_s": own["obs.flows.summary"],
            "obs.flows.attribute_contention_s":
                own["obs.flows.attribute_contention"],
            "obs.metrics.compute_s": own["obs.metrics.compute"],
            "obs.memory.check_balanced_s":
                own["obs.memory.check_balanced"],
            "hetsort.plan_s": own["hetsort.plan"],
            "hetsort.validate_s": own["hetsort.validate"],
            # The per-job planner, make_plan included.
            "service.plan_s": total["service.plan"],
            "service.verdict_s": own["service.verdict"],
        })
        # Throughput over the whole call: multiway_merge spends nearly
        # all of its time in merge_two, so its self time is near zero.
        stats = profile.snapshot()
        for name in KERNELS:
            layer = f"kernels.{name}"
            elements = stats[name].elements if name in stats else 0
            out[f"{layer}.self_s"] = own.get(layer, 0.0)
            out[f"{layer}.elements_per_s"] = (
                elements / total[layer] if total.get(layer) else 0.0)
        return out
