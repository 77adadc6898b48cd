"""One run's setup: the engine, the machine and its observers.

A single heterogeneous sort, the CPU reference and a multi-tenant
service run are all set up by :class:`Session`, so every run accounts
the same way (Sec. III-C, IV-E): the same ledgers, fault model and
telemetry.  What differs between callers is an argument, not an option:
the GPU count and how much host DRAM the pinned pool may use.
"""

from __future__ import annotations

import typing as _t

from repro.hetsort.resilience import RetryPolicy
from repro.hw.machine import Machine
from repro.hw.spec import PlatformSpec
from repro.obs.events import EV, EventBus, connect_machine
from repro.obs.flows import FlowLedger
from repro.obs.memory import MemoryLedger
from repro.sim.engine import Environment
from repro.sim.faults import FaultInjector

__all__ = ["Session"]


class Session:
    """The environment, machine and observers of one run: a memory
    ledger and a flow ledger, ``faults`` (a
    :class:`~repro.sim.faults.FaultPlan`) under ``retry`` (the standard
    :class:`RetryPolicy` when omitted), and ``sinks`` on a bus wired
    into the machine.  The caller builds its processes on :attr:`env`,
    calls :meth:`start` before running the engine and :meth:`finish`
    after it.
    """

    def __init__(self, platform: PlatformSpec, *, n_gpus: int,
                 pinned_bytes: int, faults=None, retry=None,
                 sinks: _t.Sequence = ()) -> None:
        env = self.env = Environment()
        machine = self.machine = Machine(env, platform, n_gpus=n_gpus)
        capacities = {f"gpu{g.index}": g.spec.mem_bytes
                      for g in machine.gpus}
        capacities["pinned"] = pinned_bytes
        machine.memory = MemoryLedger(clock=lambda: env.now,
                                      capacities=capacities)
        machine.net.ledger = FlowLedger(
            clock=lambda: env.now,
            capacities={lv.name: lv.capacity
                        for lv in machine.net.link_snapshot()})

        self.injector = None
        if faults is not None:
            self.injector = FaultInjector(faults).attach(machine)
            machine.retry = retry if retry is not None else RetryPolicy()

        self.bus = None
        if sinks:
            self.bus = EventBus(clock=lambda: env.now)
            for sink in sinks:
                self.bus.attach(sink)
            connect_machine(self.bus, machine)

    def start(self, **fields) -> None:
        """Publish ``run.start`` with ``fields`` and schedule the plan's
        timed faults (device loss, bandwidth windows)."""
        if self.bus is not None:
            self.bus.emit(EV.RUN_START, platform=self.machine.platform.name,
                          **fields)
        if self.injector is not None:
            self.injector.start(self.env)

    def finish(self, elapsed_s: float, **fields) -> dict:
        """End the run: every memory pool must balance back to zero
        (degraded runs included), then ``run.end`` is published and the
        sinks closed.  Returns the run's fault metadata --
        ``{"faults": summary}`` when any fault fired, else ``{}``."""
        self.machine.memory.check_balanced()
        if self.bus is not None:
            self.bus.emit(EV.RUN_END, elapsed_s=elapsed_s,
                          makespan_s=self.machine.trace.makespan(), **fields)
            self.bus.close()
        if self.injector is not None and self.injector.fired_total:
            return {"faults": self.injector.summary()}
        return {}
