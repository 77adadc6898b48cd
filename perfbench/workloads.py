"""The benchmark's three workloads.

Each workload splits into the set-up a user pays once (``setup``: import
is done by the caller, then platform, sorter or service and the plan),
the seeded input (``inputs``), and the timed operation (``op``).  The
canonical digest of the simulated result and the output check run
outside the timed region.

Why these three:

* ``paper_fig9`` is the paper's fastest Fig. 9 point, timing-only: about
  110k engine events over 5,000 staged chunks and 20k flows.  It loads
  the engine, fair-share allocation, the observers and the post-hoc
  analyses and runs no numpy kernel.
* ``functional_sort`` really sorts 4e6 seeded keys on the same path;
  nearly all host time is numpy kernels and validation, with under 1k
  engine events.  It is the contrast for every engine, allocator and
  observer change.
* ``serve_qos`` is a timing-only multi-tenant service run under
  fixed-levels with the adaptive controller: the only workload that
  reaches ``sim.allocators.fill_component``, the per-job planner,
  admission and the controller.  It uses the single-GPU PLATFORM1
  because ``repro serve --platform PLATFORM2 --timing`` fails with
  ``CudaInvalidValue: stream on gpu0 cannot copy to/from gpu1``: the
  per-job machine view hands runners view-local GPU index 0 for streams
  while the buffers carry physical index 1.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro import PLATFORM1, HeterogeneousSorter
from repro.hetsort.plan import make_plan
from repro.obs.diff import canonical_json, run_report
from repro.service import ServiceConfig, SortService, Tenant
from repro.service.workload import build_jobs
from repro.workloads import generate

#: Fig. 9 table of EXPERIMENTS.md: the paper's PIPEMERGE+PARMEMCPY time.
PAPER_FIG9_S = 22.2


def _digest(doc: dict) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


class PaperFig9:
    name = "paper_fig9"
    n = 5_000_000_000
    paper_s = PAPER_FIG9_S
    #: The simulated result does not depend on the seed, so every op
    #: must reproduce the recorded digest.
    seed_free_digest = True

    def setup(self, seed: int):
        sorter = HeterogeneousSorter(PLATFORM1, approach="pipemerge",
                                     batch_size=500_000_000, n_streams=2,
                                     memcpy_threads=8)
        make_plan(self.n, PLATFORM1, sorter.config)
        return sorter

    def inputs(self, seed: int):
        return None

    def op(self, sorter, _inputs):
        return sorter.sort(n=self.n)

    def elements(self, _inputs) -> int:
        return self.n

    def digest(self, result) -> str:
        return _digest(run_report(result))

    def output_ok(self, _inputs, _expected, _result) -> bool:
        return True

    def expected_output(self, _inputs):
        return None

    def sim_seconds(self, result) -> float:
        return result.elapsed


class FunctionalSort(PaperFig9):
    name = "functional_sort"
    n = 4_000_000
    paper_s = None

    def setup(self, seed: int):
        sorter = HeterogeneousSorter(PLATFORM1, approach="pipemerge",
                                     batch_size=500_000,
                                     pinned_elements=100_000)
        make_plan(self.n, PLATFORM1, sorter.config)
        return sorter

    def inputs(self, seed: int):
        return generate(self.n, "uniform", seed=seed)

    def op(self, sorter, keys):
        return sorter.sort(keys)

    def expected_output(self, keys):
        return np.sort(keys)

    def output_ok(self, _keys, expected, result) -> bool:
        return np.array_equal(result.output, expected)


class ServeQos:
    """Three tenants submit seeded Poisson streams of 2e6-element jobs
    (20 batches each, ``batch_size = pinned_elements = 1e5``) at 4 jobs/s
    each, faster than PLATFORM1 drains them, so the run stays
    transfer-bound and its makespan is set by the work, not the seed."""

    name = "serve_qos"
    paper_s = None
    seed_free_digest = False
    tenants = (
        Tenant("gold", priority=2, share=2.0, slo_s=5.0, rate_hz=4.0,
               n_jobs=40, n_elements=2_000_000),
        Tenant("silver", priority=1, share=1.0, rate_hz=4.0, n_jobs=40,
               n_elements=2_000_000),
        Tenant("batch", priority=0, share=0.5, rate_hz=4.0, n_jobs=40,
               n_elements=2_000_000),
    )

    def setup(self, seed: int):
        cfg = ServiceConfig(allocator="fixed-levels", seed=seed,
                            functional=False, batch_size=100_000,
                            pinned_elements=100_000, max_concurrent=12,
                            controller=True)
        service = SortService(self.tenants, cfg, platform=PLATFORM1)
        build_jobs(self.tenants, seed=seed)
        return service

    def inputs(self, seed: int):
        return None

    def op(self, service, _inputs):
        # SortService.run builds its machine and job stream afresh on
        # every call, so one service object serves every op.
        return service.run()

    def elements(self, _inputs) -> int:
        return sum(t.n_jobs * t.n_elements for t in self.tenants)

    def digest(self, result) -> str:
        return _digest(result.verdict)

    def expected_output(self, _inputs):
        return None

    def output_ok(self, _inputs, _expected, result) -> bool:
        return result.verdict["n_jobs"] == sum(t.n_jobs
                                               for t in self.tenants)

    def sim_seconds(self, result) -> float:
        return result.verdict["elapsed_s"]


WORKLOADS = {w.name: w for w in (PaperFig9(), FunctionalSort(), ServeQos())}
