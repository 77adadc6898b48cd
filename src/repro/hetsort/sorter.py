"""The public facade: :class:`HeterogeneousSorter` and the CPU reference.

>>> from repro import HeterogeneousSorter, PLATFORM1
>>> import numpy as np
>>> sorter = HeterogeneousSorter(PLATFORM1, batch_size=25_000)
>>> data = np.random.default_rng(0).uniform(size=100_000)
>>> res = sorter.sort(data, approach="pipemerge")
>>> bool(np.all(res.output[:-1] <= res.output[1:]))
True
"""

from __future__ import annotations

import typing as _t

import numpy as np

from repro.cuda import Runtime
from repro.errors import PlanError
from repro.hetsort.bline import run_bline
from repro.hetsort.blinemulti import run_blinemulti
from repro.hetsort.config import Approach, SortConfig
from repro.hetsort.context import RunContext
from repro.hetsort.gpumerge import run_gpumerge
from repro.hetsort.pipedata import run_pipedata
from repro.hetsort.pipemerge import run_pipemerge
from repro.hetsort.plan import make_plan
from repro.hetsort.result import SortResult
from repro.hetsort.session import Session
from repro.hetsort.validate import check_sorted_permutation
from repro.hw.platforms import PLATFORM1
from repro.hw.spec import PlatformSpec
from repro.kernels.samplesort import sample_sort
from repro.obs.counters import MetricsRecorder
from repro.obs.events import connect_context

__all__ = ["HeterogeneousSorter", "APPROACH_RUNNERS", "cpu_reference_sort"]

APPROACH_RUNNERS: dict[str, _t.Callable[[RunContext], _t.Generator]] = {
    Approach.BLINE: run_bline,
    Approach.BLINEMULTI: run_blinemulti,
    Approach.PIPEDATA: run_pipedata,
    Approach.PIPEMERGE: run_pipemerge,
    Approach.GPUMERGE: run_gpumerge,
}


class HeterogeneousSorter:
    """Hybrid CPU/GPU sorter for data larger than GPU global memory.

    Parameters mirror the paper's knobs (Table I); every keyword of
    :class:`~repro.hetsort.config.SortConfig` is accepted.

    Parameters
    ----------
    platform:
        A :class:`~repro.hw.spec.PlatformSpec` (default PLATFORM1).
    n_gpus:
        How many of the platform's GPUs to use.
    **config_kw:
        Forwarded to :class:`SortConfig` (``approach``, ``n_streams``,
        ``batch_size``, ``pinned_elements``, ``memcpy_threads``, ...).
    """

    def __init__(self, platform: PlatformSpec = PLATFORM1,
                 n_gpus: int = 1, config: SortConfig | None = None,
                 **config_kw) -> None:
        if config is not None and config_kw:
            raise PlanError("pass either a SortConfig or keywords, not both")
        self.platform = platform
        self.n_gpus = n_gpus
        self.config = config if config is not None else SortConfig(**config_kw)

    def sort(self, data: np.ndarray | None = None, n: int | None = None,
             approach: str | None = None, validate: bool = True,
             sinks: _t.Sequence = (), faults=None, retry=None,
             **overrides) -> SortResult:
        """Run one heterogeneous sort.

        Exactly one of ``data`` (functional mode: a float64 array that is
        really sorted) or ``n`` (timing-only mode: paper-scale inputs)
        must be given.  ``approach`` and any other config field may be
        overridden per call.

        ``sinks`` optionally attaches streaming-telemetry subscribers
        (:class:`~repro.obs.events.Sink`) for the run's event bus --
        spans, queue depths, counters and phase transitions are
        published live.  Sinks are passive observers: attaching any
        combination never changes the simulated timeline, the sorted
        output or the canonical run report (pinned by the determinism
        tests).

        ``faults`` optionally attaches a deterministic
        :class:`~repro.sim.faults.FaultPlan`; injected faults are
        retried, replanned or degraded to the CPU under ``retry`` (a
        :class:`~repro.hetsort.resilience.RetryPolicy`, defaulting to
        the standard one whenever a plan is attached).  An empty plan is
        exactly equivalent to no plan (pinned byte-for-byte by the
        fault-neutrality tests).
        """
        if (data is None) == (n is None):
            raise PlanError("pass exactly one of `data` or `n`")
        cfg = self.config
        if approach is not None:
            overrides = {**overrides, "approach": approach}
        if overrides:
            cfg = cfg.with_(**overrides)
        n_elems = int(n) if n is not None else len(data)

        plan = make_plan(n_elems, self.platform, cfg, n_gpus=self.n_gpus)
        session = Session(self.platform, n_gpus=self.n_gpus,
                          pinned_bytes=(self.platform.hostmem.capacity_bytes
                                        - plan.host_bytes),
                          faults=faults, retry=retry, sinks=sinks)
        env, machine = session.env, session.machine
        ctx = RunContext(env, machine, Runtime(machine), plan, cfg,
                         data=data)
        machine.attach_recorder(ctx.obs)
        if session.bus is not None:
            connect_context(session.bus, ctx)
        session.start(approach=cfg.approach, n=plan.n,
                      n_batches=plan.n_batches, batch_size=plan.batch_size,
                      n_gpus=plan.n_gpus, n_streams=plan.n_streams,
                      functional=ctx.functional)
        proc = env.process(APPROACH_RUNNERS[cfg.approach](ctx),
                           name=cfg.approach)
        env.run(proc)
        ctx.meta.update(session.finish(env.now,
                                       n_spans=len(machine.trace.spans)))

        output = ctx.B.data
        if validate and data is not None:
            check_sorted_permutation(np.asarray(data, dtype=np.float64),
                                     output)
        return SortResult(
            platform_name=self.platform.name,
            approach=cfg.approach,
            config=cfg,
            plan=plan,
            elapsed=env.now,
            trace=machine.trace,
            output=output,
            meta=dict(ctx.meta),
            recorder=ctx.obs,
            memory_ledger=machine.memory,
            flow_ledger=machine.net.ledger,
            processed_events=env.processed_events,
        )


def cpu_reference_sort(platform: PlatformSpec = PLATFORM1,
                       data: np.ndarray | None = None,
                       n: int | None = None,
                       library: str = "gnu",
                       threads: int | None = None) -> SortResult:
    """The parallel CPU reference implementation (Sec. IV-C): the GNU
    parallel-mode sort at the platform's reference thread count.

    Functional mode really sorts ``data`` with the sample-sort stand-in.
    """
    if (data is None) == (n is None):
        raise PlanError("pass exactly one of `data` or `n`")
    n_elems = int(n) if n is not None else len(data)
    threads = platform.reference_threads if threads is None else threads

    session = Session(platform, n_gpus=1,
                      pinned_bytes=platform.hostmem.capacity_bytes)
    env, machine = session.env, session.machine
    machine.attach_recorder(MetricsRecorder(clock=lambda: env.now))
    out: dict = {}

    def work():
        if data is not None:
            out["output"] = sample_sort(
                np.asarray(data, dtype=np.float64), threads=threads)

    def runner():
        yield from machine.cpu_sort(n_elems, library=library,
                                    threads=threads,
                                    label=f"{library}::sort", work=work)

    session.start()
    proc = env.process(runner(), name="cpu_reference")
    env.run(proc)
    session.finish(env.now)
    return SortResult(
        platform_name=platform.name,
        approach=f"cpu:{library}",
        config=SortConfig(sort_library=library),
        plan=None,
        elapsed=env.now,
        trace=machine.trace,
        output=out.get("output"),
        meta={"threads": threads, "n": n_elems},
        recorder=machine.recorder,
    )
