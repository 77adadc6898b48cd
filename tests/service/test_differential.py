"""The differential service battery.

The allocator family changes *when* bytes move, never *which* bytes
move: the same seeded job stream must produce identical sorted outputs
(digest for digest) under every allocator, the flow ledger's exact
rate-integral invariant must hold under every allocator, and each
tenant must move the same bytes regardless of policy -- only latencies
may differ.  The chaos cross-test extends the "never silently wrong"
contract to mid-stream fault plans.
"""

import pytest

from repro.errors import ReproError
from repro.hw.platforms import PLATFORM2
from repro.obs.flows import verify_rate_integral
from repro.service import ServiceConfig, Tenant, run_service
from repro.sim.allocators import ALLOCATORS
from repro.sim.faults import FaultKind, FaultPlan, FaultSpec

ALLOCATOR_NAMES = sorted(ALLOCATORS)

TENANTS = (
    Tenant("gold", priority=2, share=2.0, rate_hz=40.0, n_jobs=2,
           n_elements=60_000, slo_s=0.5),
    Tenant("silver", priority=1, share=1.0, rate_hz=30.0, n_jobs=2,
           n_elements=60_000),
    Tenant("batch", priority=0, share=0.5, rate_hz=20.0, n_jobs=2,
           n_elements=120_000),
)


def _cfg(allocator, **kw):
    base = dict(allocator=allocator, seed=11, batch_size=20_000,
                pinned_elements=5_000)
    base.update(kw)
    return ServiceConfig(**base)


@pytest.fixture(scope="module")
def runs():
    """One functional run per allocator over the identical job stream."""
    return {name: run_service(TENANTS, _cfg(name))
            for name in ALLOCATOR_NAMES}


def test_all_jobs_complete_under_every_allocator(runs):
    for name, res in runs.items():
        assert res.verdict["n_jobs"] == 6, name
        assert {r["job_id"] for r in res.jobs} == {
            "gold/0", "gold/1", "silver/0", "silver/1",
            "batch/0", "batch/1"}


def test_identical_outputs_across_allocators(runs):
    """Digest-for-digest: the allocator never changes what is sorted."""
    digests = {
        name: {r["job_id"]: r["digest"] for r in res.jobs}
        for name, res in runs.items()}
    reference = digests["fair-share"]
    assert all(d == reference for d in digests.values())


def test_rate_integral_holds_under_every_allocator(runs):
    """The ledger's bit-exact ``p[i+1] == p[i] + rate*dt`` invariant is
    allocator-independent."""
    for name, res in runs.items():
        doc = res.flow_ledger.to_dict()
        verdict = verify_rate_integral(doc)
        assert verdict["ok"], (name, verdict["failures"])
        assert verdict["checked"] == doc["n_flows"] > 0


def test_tenant_bytes_identical_across_allocators(runs):
    """Each tenant moves the same bytes under every policy; only the
    schedule differs."""
    per_alloc = {name: res.verdict["flows"]["tenant_bytes"]
                 for name, res in runs.items()}
    reference = per_alloc["fair-share"]
    assert set(reference) == {"gold", "silver", "batch"}
    for name, bytes_by_tenant in per_alloc.items():
        assert set(bytes_by_tenant) == set(reference), name
        for tenant, moved in bytes_by_tenant.items():
            assert moved == pytest.approx(reference[tenant],
                                          rel=1e-9), (name, tenant)


def test_every_flow_carries_a_tenant(runs):
    for name, res in runs.items():
        recs = res.flow_ledger.flows
        assert recs, name
        assert all(rec.get("tenant") in ("gold", "silver", "batch")
                   for rec in recs), name


def test_memory_ledger_balanced_under_every_allocator(runs):
    """Every pool drains back to zero whatever the policy (no leak)."""
    for name, res in runs.items():
        res.memory_ledger.check_balanced()   # raises on a leak
        assert all(b == 0 for b in res.memory_ledger.balances.values()), name
        assert res.memory_ledger.n_allocs == res.memory_ledger.n_frees > 0


# -- chaos cross-test --------------------------------------------------------

@pytest.mark.parametrize("fault_seed", [1, 5, 9])
@pytest.mark.parametrize("allocator", ["fair-share", "strict-priority"])
def test_chaos_mid_stream_never_silently_wrong(fault_seed, allocator):
    """A random fault plan injected into the shared machine mid-stream:
    the service either completes with every job's output verified (the
    per-job ``check_sorted_permutation`` runs inside the service) and
    digests identical to the fault-free run, or dies with a typed
    ReproError -- never a silently wrong sort."""
    plan = FaultPlan.random(fault_seed, n_gpus=1)
    clean = run_service(TENANTS, _cfg(allocator))
    clean_digests = {r["job_id"]: r["digest"] for r in clean.jobs}
    try:
        res = run_service(TENANTS, _cfg(allocator), faults=plan)
    except ReproError:
        return      # typed failure is an acceptable outcome
    assert {r["job_id"]: r["digest"] for r in res.jobs} == clean_digests
    if res.meta.get("faults"):
        assert res.meta["faults"]["fired"] >= 1


# -- timed faults reach the service ----------------------------------------

def test_bandwidth_fault_fires_in_the_service(runs):
    """A ``bandwidth.degrade`` window is scheduled on the service's
    machine like on a single sort's: it fires and slows the run."""
    plan = FaultPlan((FaultSpec(kind=FaultKind.BANDWIDTH, link="host_bus",
                                at_s=0.0, duration_s=1.0, factor=0.1),))
    res = run_service(TENANTS, _cfg("fair-share"), faults=plan)
    assert res.meta["faults"]["fired"] >= 1
    assert res.meta["faults"]["by_kind"] == {FaultKind.BANDWIDTH: 1}
    assert res.elapsed > runs["fair-share"].elapsed


def test_gpu_loss_fires_in_the_service_and_keeps_every_digest():
    """Losing PLATFORM2's gpu1 mid-stream fires, the jobs placed on it
    fall back to the CPU, and every job's output is what the fault-free
    run sorted."""
    clean = run_service(TENANTS, _cfg("fair-share"), platform=PLATFORM2)
    plan = FaultPlan((FaultSpec(kind=FaultKind.GPU_LOST, gpu=1,
                                at_s=0.01),))
    res = run_service(TENANTS, _cfg("fair-share"), platform=PLATFORM2,
                      faults=plan)
    assert res.meta["faults"]["fired"] >= 1
    assert res.meta["faults"]["by_kind"] == {FaultKind.GPU_LOST: 1}
    assert {r["job_id"]: r["digest"] for r in res.jobs} == \
        {r["job_id"]: r["digest"] for r in clean.jobs}
    assert any(s.lane == "cpu.fallback" for s in res.trace.spans)
    assert not any(s.lane == "cpu.fallback" for s in clean.trace.spans)


@pytest.mark.parametrize("functional", [False, True],
                         ids=["timing", "functional"])
def test_platform2_jobs_on_the_second_gpu(functional):
    """Single-GPU jobs placed on PLATFORM2's gpu1 run through a job
    runtime that numbers the device 0; copies must still be accepted and
    the memory ledger must charge the physical pool ``gpu1``."""
    tenants = (Tenant("a", rate_hz=40.0, n_jobs=2, n_elements=60_000),
               Tenant("b", rate_hz=40.0, n_jobs=2, n_elements=60_000))
    res = run_service(tenants, _cfg("fair-share", functional=functional,
                                    gpus_per_job=1),
                      platform=PLATFORM2)
    assert res.verdict["n_jobs"] == 4
    assert any(r["gpus"] == [1] for r in res.jobs)
    res.memory_ledger.check_balanced()
    assert res.memory_ledger.peaks.get("gpu1", 0) > 0
