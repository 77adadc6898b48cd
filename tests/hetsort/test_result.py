"""Tests for SortResult accounting."""

import pytest

from repro.hetsort import HeterogeneousSorter, cpu_reference_sort
from repro.hw.platforms import PLATFORM1
from repro.sim import CAT


@pytest.fixture(scope="module")
def result():
    s = HeterogeneousSorter(PLATFORM1, batch_size=int(2e8),
                            n_streams=2)
    return s.sort(n=int(8e8), approach="pipedata")


def test_elapsed_positive_and_matches_trace(result):
    assert result.elapsed > 0
    assert result.trace.makespan() <= result.elapsed + 1e-9


def test_breakdown_contains_expected_components(result):
    bd = result.breakdown
    for cat in (CAT.HTOD, CAT.DTOH, CAT.GPUSORT, CAT.MCPY,
                CAT.PINNED_ALLOC, CAT.SYNC, CAT.MERGE):
        assert cat in bd, f"missing {cat}"
        assert bd[cat] > 0


def test_related_work_total_less_than_elapsed(result):
    """The related-work accounting must omit real overheads (Sec. IV-E)."""
    assert result.related_work_end_to_end < result.elapsed
    assert result.missing_overhead > 0
    assert result.missing_overhead == pytest.approx(
        result.elapsed - result.related_work_end_to_end)


def test_component_bytes_conserved(result):
    """Every element crosses PCIe exactly once per direction."""
    n_bytes = result.plan.n * 8
    assert result.trace.bytes_moved(CAT.HTOD) == pytest.approx(n_bytes)
    assert result.trace.bytes_moved(CAT.DTOH) == pytest.approx(n_bytes)
    # Staging copies both directions: 2 n bytes of MCpy.
    assert result.trace.bytes_moved(CAT.MCPY) == pytest.approx(2 * n_bytes)


def test_speedup_over(result):
    ref = cpu_reference_sort(PLATFORM1, n=result.plan.n)
    sp = result.speedup_over(ref)
    assert sp == pytest.approx(ref.elapsed / result.elapsed)
    assert result.speedup_over(ref.elapsed) == pytest.approx(sp)


def test_throughput(result):
    assert result.throughput == pytest.approx(
        result.plan.n / result.elapsed)


def test_summary_mentions_key_facts(result):
    s = result.summary()
    assert "pipedata" in s
    assert "PLATFORM1" in s
    assert "n_b=4" in s


def test_cpu_reference_result_shape():
    ref = cpu_reference_sort(PLATFORM1, n=10 ** 9)
    assert ref.plan is None
    assert ref.approach == "cpu:gnu"
    assert ref.meta["threads"] == 16
    assert ref.trace.count(CAT.CPUSORT) == 1
    assert ref.elapsed == pytest.approx(
        PLATFORM1.reference_sort_seconds(10 ** 9), rel=0.01)


def test_to_dict_serialisable(result):
    import json
    doc = result.to_dict()
    assert json.dumps(doc)
    assert doc["approach"] == "pipedata"
    assert doc["plan"]["n_batches"] == 4
    assert doc["elapsed_s"] == result.elapsed
    assert doc["breakdown_s"] == result.breakdown


def test_conformance_property(result):
    from repro.hw.platforms import PLATFORM1 as _p1
    from repro.model.lowerbound import measure_bline_throughput
    from repro.obs import attach_conformance
    assert result.conformance is None
    model = measure_bline_throughput(_p1, n=4_000_000)
    record = attach_conformance(result, model)
    assert result.conformance is record
    assert "conformance" not in result.metrics
    assert record["measured_s"] == result.trace.makespan()


# ---------------------------------------------------------------------------
# Metrics are built on first read, never inside the sort
# ---------------------------------------------------------------------------

def _eager_metrics(res, engine: bool) -> dict:
    """The metrics dict as the sort used to build it before returning:
    every post-hoc analysis run at once, the flow summary over a full
    ``to_dict`` copy of the ledger."""
    from repro.obs.flows import attribute_contention, link_peaks
    from repro.obs.metrics import compute_metrics
    metrics = compute_metrics(res.trace, elapsed=res.elapsed,
                              counters=res.recorder.summary(res.elapsed))
    if engine:
        metrics["memory"] = res.memory_ledger.summary()
        ledger = res.flow_ledger
        doc = ledger.to_dict()
        peaks = {name: d["peak_utilization"]
                 for name, d in link_peaks(doc).items()}
        metrics["flows"] = {
            "n_flows": ledger.n_flows,
            "bytes_moved": ledger.bytes_moved,
            "spans_bound": ledger.spans_bound,
            "peak_utilization": peaks,
            "link_peak_utilization": max(peaks.values(), default=0.0),
            "transfer_contention_s":
                attribute_contention(doc)["total_contention_s"],
        }
        n = res.processed_events
        metrics["engine"] = {"processed_events": n,
                             "events_per_sim_s": n / res.elapsed}
    return metrics


def _run_case(case: str):
    from repro.hw.platforms import PLATFORM2
    from repro.sim.faults import FaultPlan, FaultSpec
    if case == "cpu-reference":
        return cpu_reference_sort(PLATFORM1, n=10 ** 9)
    if case == "platform2-2gpu":
        return HeterogeneousSorter(PLATFORM2, n_gpus=2, batch_size=int(1e8),
                                   n_streams=2).sort(n=int(8e8),
                                                     approach="pipemerge")
    if case == "faults":
        plan = FaultPlan(faults=(
            FaultSpec(kind="pcie.transient", times=3),
            FaultSpec(kind="alloc.pinned", times=1),
            FaultSpec(kind="bandwidth.degrade", link="pcie.htod",
                      at_s=0.002, duration_s=0.01, factor=0.3),))
        res = HeterogeneousSorter(PLATFORM1, batch_size=50_000,
                                  pinned_elements=10_000).sort(
            n=200_000, approach="pipedata", faults=plan)
        assert res.meta["faults"], "the plan must actually fire"
        return res
    kw = {} if case == "bline" else {"batch_size": int(1e8)}
    return HeterogeneousSorter(PLATFORM1, n_streams=2, memcpy_threads=4,
                               **kw).sort(n=int(4e8), approach=case)


LAZY_CASES = ["bline", "blinemulti", "pipedata", "pipemerge", "gpumerge",
              "platform2-2gpu", "faults", "cpu-reference"]


@pytest.mark.parametrize("case", LAZY_CASES)
def test_first_metrics_read_equals_eager_build(case):
    from repro.obs.diff import canonical_json, run_report
    res = _run_case(case)
    engine = case != "cpu-reference"
    report = canonical_json(run_report(res))
    flows = canonical_json(res.flow_ledger.to_dict()) if engine else None
    eager = canonical_json(_eager_metrics(res, engine))
    first = res.metrics
    assert canonical_json(first) == eager
    assert res.metrics is first
    assert canonical_json(run_report(res)) == report
    if engine:
        assert canonical_json(res.flow_ledger.to_dict()) == flows
    else:
        # The CPU reference keeps its key set: no ledger, no engine block.
        assert not {"memory", "flows", "engine"} & set(first)


def _count_calls(monkeypatch, owner, name: str, counts: dict) -> None:
    """Count calls of ``owner.name`` under ``counts[owner.name]``; a
    module-level function is replaced in every loaded ``repro`` module
    that bound it by name."""
    import sys
    fn = getattr(owner, name)
    key = f"{owner.__name__.rsplit('.', 1)[-1]}.{name}"
    counts[key] = 0

    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, counted)
        return
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("repro") and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counted)


@pytest.mark.parametrize("case", ["pipemerge", "cpu-reference"])
def test_sort_runs_no_post_hoc_analysis_until_metrics_read(case,
                                                           monkeypatch):
    from repro.obs import flows, metrics
    from repro.obs.memory import MemoryLedger
    counts: dict = {}
    _count_calls(monkeypatch, metrics, "compute_metrics", counts)
    _count_calls(monkeypatch, flows, "attribute_contention", counts)
    _count_calls(monkeypatch, flows.FlowLedger, "summary", counts)
    _count_calls(monkeypatch, MemoryLedger, "summary", counts)
    res = _run_case(case)
    assert set(counts.values()) == {0}
    res.metrics
    res.metrics
    once = 0 if case == "cpu-reference" else 1
    assert counts == {"metrics.compute_metrics": 1,
                      "flows.attribute_contention": once,
                      "FlowLedger.summary": once,
                      "MemoryLedger.summary": once}


def test_result_keeps_no_run_context_or_machine_alive(monkeypatch):
    """The result keeps what the metrics are built from -- trace,
    recorder, ledgers, counts taken at run end -- not the functional
    run's context (which holds the working arrays) or the machine."""
    import gc
    import weakref

    import numpy as np

    from repro.hetsort import session, sorter
    refs = []
    for module, name in ((sorter, "RunContext"), (session, "Machine")):
        cls = getattr(module, name)

        def make(*args, _cls=cls, **kwargs):
            obj = _cls(*args, **kwargs)
            refs.append(weakref.ref(obj))
            return obj
        monkeypatch.setattr(module, name, make)
    data = np.random.default_rng(0).uniform(size=20_000)
    res = HeterogeneousSorter(PLATFORM1, batch_size=5_000,
                              pinned_elements=1_000).sort(data)
    gc.collect()
    assert len(refs) == 2 and all(r() is None for r in refs)
    assert res.metrics["engine"]["processed_events"] > 0
    assert res.metrics["memory"]["balanced"]
