#!/usr/bin/env python
"""One driver for every gate: measure, compare with the baseline, archive.

The simulator is deterministic, so what a gate measures is a pure
function of the code.  ``GATES`` registers six gates, in run order:

* ``regression`` -- run reports of two pinned sorts: makespan within
  2 % and an identical span structure;
* ``conformance`` -- the ``ci`` sweep grid against the Sec. IV-G lower
  bound: no anomalous run, every fitted slope within 2 %;
* ``memory`` -- every pool's peak and the alloc/free counts, exactly
  (invariants: the ledger balances, ``plan-mem`` predicts the peaks);
* ``flows`` -- the ``repro.flows/v1`` ledger digest, exactly
  (invariants: bit-exact rate integrals, contention sums, span match);
* ``engine`` -- exact event counts and events/sec at least 0.25x the
  frozen rate (wall-clock: the one gate that differs run to run);
* ``service`` -- each allocator's ``repro.service/v1`` verdict digest,
  exactly (invariants: rate integrals, balanced memory, equal bytes).

A gate supplies its scenarios, ``measure``, ``compare``, an archive
entry builder, its baseline path and its bound; the driver does the
rest once for all of them.  ``--update`` re-freezes a baseline unless
an invariant failed.  Otherwise every scenario missing from the
baseline fails, every frozen scenario no longer measured fails, and the
rest are compared.  ``--archive PATH`` appends one ``repro.archive/v1``
entry per scenario and tags each failure with its trend there (one-off
miss or sustained regression); ``--json`` prints one ``repro.gate/v1``
document per gate; ``--artifacts DIR`` receives the regression gate's
Perfetto traces and the engine gate's profile snapshot.  The JSON
baselines share the ``repro.gate_baseline/v1`` schema; the conformance
baseline is the ``repro.sweep/v1`` ledger ``repro conformance`` reads.

Usage::

    python benchmarks/gates.py                   # every gate
    python benchmarks/gates.py memory flows      # just these two
    python benchmarks/gates.py service --update  # re-freeze one baseline
    python benchmarks/gates.py --json --archive runs.jsonl --artifacts out

Exit status: 0 = every selected gate passed, 1 = a gate failed or an
update was refused.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import typing as _t

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(_HERE, os.pardir, "src"))

from repro.errors import LedgerError, MemoryLedgerError  # noqa: E402
from repro.hetsort import HeterogeneousSorter  # noqa: E402
from repro.hw.platforms import get_platform  # noqa: E402
from repro.obs import (  # noqa: E402
    GRIDS, append_entries, attribute_contention, canonical_json,
    check_regression, conformance_summary, entry_from_ledger,
    entry_from_result, load_archive, load_ledger, make_entry,
    measured_peaks, memory_conformance, plan_memory, reconcile_flow_spans,
    run_report, run_sweep, sweep_points, verify_contention,
    verify_rate_integral, write_ledger)

RESULTS = os.path.join(_HERE, "results")
BASELINE_SCHEMA = "repro.gate_baseline/v1"
GATE_SCHEMA = "repro.gate/v1"

#: Informational output channel; main() points it at stderr under
#: --json so stdout carries only the gate documents.
_INFO = sys.stdout


def say(msg: str) -> None:
    print(msg, file=_INFO)


def _digest(doc) -> str:
    """First 16 hex chars of the SHA-256 of a document's canonical JSON."""
    return hashlib.sha256(
        canonical_json(doc, indent=None).encode()).hexdigest()[:16]


def _common(frozen: dict, measured: dict):
    """``(name, measured, frozen)`` for every scenario on both sides."""
    return [(name, cur, frozen[name]) for name, cur in measured.items()
            if name in frozen]


def _diff_exact(frozen, measured, _bound):
    """Every frozen field must reproduce exactly: the simulator is
    deterministic, so any drift is a behaviour change, not noise."""
    return {name: [f"{name}: {field} drifted {base.get(field)} -> "
                   f"{cur.get(field)} (deterministic; re-freeze only if "
                   "intended)" for field in sorted(set(cur) | set(base))
                   if cur.get(field) != base.get(field)]
            for name, cur, base in _common(frozen, measured)}


def _invariant(name: str, what: str, result: dict) -> list[str]:
    """The failure of one ``{"ok", "failures"}`` invariant check."""
    return [] if result["ok"] else [
        f"{name}: {what} ({'; '.join(result['failures'][:3])})"]


def _point_entry(gate: str, name: str, metrics: dict,
                 verdict: dict, profile=None) -> dict:
    """An archive entry keyed by ``{"gate", "scenario"}``: re-running a
    deterministic gate appends nothing new, so the series only grows
    when the measurement changes."""
    return make_entry(source=f"gate:{gate}", label=name,
                      point={"gate": gate, "scenario": name},
                      metrics=metrics, profile=profile, verdicts=[verdict])


class Gate(_t.NamedTuple):
    """One gate: what it measures and how a measurement fails."""

    name: str
    #: the committed baseline (``.json``, or a ``.jsonl`` sweep ledger)
    baseline: str
    #: the gate's fixed tolerance, or None where every check is exact
    bound: float | None
    scenarios: _t.Any
    #: ``(scenarios, artifacts) -> (values, invariants, extras)``, each
    #: keyed by scenario; ``values`` is what the baseline freezes,
    #: ``extras`` whatever else the archive entry needs
    measure: _t.Callable
    #: ``(frozen, measured, bound) -> {scenario: [failure, ...]}``
    diff: _t.Callable
    #: ``(name, value, extra, verdict) -> repro.archive/v1 entry``
    entry: _t.Callable
    #: ``value -> str``, the scenario's one-line progress summary
    show: _t.Callable

    def compare(self, frozen: dict, measured: dict) -> dict:
        """Failures of ``measured`` against ``frozen``, by scenario."""
        return self.diff(frozen, measured, self.bound)


# ---------------------------------------------------------------------------
# Pinned sorts (regression, memory, flows)
# ---------------------------------------------------------------------------

#: Small enough for CI, spanning the blocking baseline and the fastest
#: pipelined approach (one multi-batch, multi-stream).
SORTS = [
    {"name": "bline_1m", "platform": "PLATFORM1", "approach": "bline",
     "n": 1_000_000, "pinned_elements": 50_000},
    {"name": "pipemerge_2m", "platform": "PLATFORM1",
     "approach": "pipemerge", "n": 2_000_000, "batch_size": 250_000,
     "pinned_elements": 50_000},
]

#: Plus a two-GPU point: a gpu1 pool, the multi-worker pinned aggregate
#: and PCIe links that see concurrent flows.
SORTS_2GPU = SORTS + [
    {"name": "pipedata_2gpu_2m", "platform": "PLATFORM2",
     "approach": "pipedata", "n": 2_000_000, "batch_size": 250_000,
     "pinned_elements": 50_000, "n_gpus": 2},
]


def _plan_kwargs(sc: dict) -> dict:
    return {k: sc[k] for k in ("batch_size", "pinned_elements",
                               "n_streams", "memcpy_threads") if k in sc}


def run_sort(sc: dict):
    """Run one pinned sort; returns its SortResult."""
    sorter = HeterogeneousSorter(get_platform(sc["platform"]),
                                 approach=sc["approach"],
                                 n_gpus=sc.get("n_gpus", 1),
                                 **_plan_kwargs(sc))
    return sorter.sort(n=sc["n"])


def _measure_regression(scenarios, artifacts):
    values, extras = {}, {}
    for sc in scenarios:
        res = run_sort(sc)
        values[sc["name"]] = run_report(res, label=sc["name"])
        extras[sc["name"]] = (sc, res)
        if artifacts:
            from repro.reporting import write_chrome_trace
            path = os.path.join(artifacts, f"{sc['name']}.trace.json")
            write_chrome_trace(res.trace, path, counters=res.recorder)
            say(f"wrote {path}")
    return values, {}, extras


def _diff_regression(frozen, measured, tolerance):
    return {name: [f"{name}: {msg}" for msg in check_regression(
                cur, base, tolerance=tolerance)["failures"]]
            for name, cur, base in _common(frozen, measured)}


def _regression_entry(name, report, extra, verdict):
    sc, res = extra
    return entry_from_result(res, source="gate:regression", label=name,
                             point=dict(sc), report=report,
                             verdicts=[verdict])


def _measure_memory(scenarios, artifacts):
    values, invariants = {}, {}
    for sc in scenarios:
        name = sc["name"]
        res = run_sort(sc)
        peaks = measured_peaks(res)
        mem = res.metrics["memory"]
        memplan = plan_memory(get_platform(sc["platform"]), sc["n"],
                              approach=sc["approach"],
                              n_gpus=sc.get("n_gpus", 1),
                              **_plan_kwargs(sc))
        conf = memory_conformance(memplan, peaks)
        broken = []
        if not mem["balanced"]:
            broken.append(
                f"{name}: ledger did not balance to zero "
                f"({mem['n_allocs']} allocs, {mem['n_frees']} frees)")
        if not conf["ok"]:
            bad = "; ".join(
                f"{p}: predicted {v['predicted_bytes']} B, measured "
                f"{v['measured_bytes']} B"
                for p, v in conf["pools"].items() if not v["ok"])
            broken.append(f"{name}: planner residual outside tolerance "
                          f"({bad})")
        invariants[name] = broken
        values[name] = {
            "peaks": {p: int(b) for p, b in sorted(peaks.items())},
            "n_allocs": mem["n_allocs"],
            "n_frees": mem["n_frees"],
        }
    return values, invariants, {}


def _memory_entry(name, cur, _extra, verdict):
    metrics = {"peak_pinned_bytes": cur["peaks"].get("pinned", 0),
               "mem_allocs": cur["n_allocs"],
               "mem_frees": cur["n_frees"]}
    for pool, nbytes in cur["peaks"].items():
        if pool != "pinned":
            metrics[f"peak_device_bytes.{pool}"] = nbytes
    return _point_entry("memory", name, metrics, verdict)


def _measure_flows(scenarios, artifacts):
    values, invariants = {}, {}
    for sc in scenarios:
        name = sc["name"]
        res = run_sort(sc)
        doc = res.flow_ledger.to_dict()
        invariants[name] = (
            _invariant(name, "rate integral broke",
                       verify_rate_integral(doc))
            + _invariant(name, "contention charges did not sum to "
                         "duration",
                         verify_contention(attribute_contention(doc)))
            + _invariant(name, "flow/span reconciliation failed",
                         reconcile_flow_spans(doc, res.trace)))
        flows = res.metrics["flows"]
        values[name] = {
            "digest": _digest(doc),
            "n_flows": flows["n_flows"],
            "link_peak_utilization": flows["link_peak_utilization"],
            "transfer_contention_s": flows["transfer_contention_s"],
        }
    return values, invariants, {}


def _flows_entry(name, cur, _extra, verdict):
    # the digest lives in the baseline; archive metrics are numbers only
    return _point_entry("flows", name, {
        k: cur[k] for k in ("n_flows", "link_peak_utilization",
                            "transfer_contention_s")}, verdict)


# ---------------------------------------------------------------------------
# Sweep grid (conformance)
# ---------------------------------------------------------------------------

GRID = "ci"


def _measure_conformance(scenarios, artifacts):
    records = run_sweep(scenarios, model_n=GRIDS[GRID][1])
    return {r["run_id"]: r for r in records}, {}, {}


def _diff_conformance(frozen, measured, slope_tolerance):
    """Anomalies keyed by run, slope drift keyed by fit group."""
    out: dict = {}
    base = conformance_summary(list(frozen.values()))
    cur = conformance_summary(list(measured.values()))
    for a in cur["anomalies"]:
        out.setdefault(a["run_id"], []).append(
            f"{a['run_id']} ({a['group']}): anomalous -- measured "
            f"{a['measured_s']:.6f}s vs fit {a['expected_s']:.6f}s "
            f"({'/'.join(a['flags'])})")
    for key, g in cur["groups"].items():
        group = base["groups"].get(key)
        if group is None:
            out[key] = [f"{key}: group missing from baseline "
                        "(run with --update)"]
            continue
        b_slope, c_slope = group["fitted_slope"], g["fitted_slope"]
        drift = abs(c_slope - b_slope) / b_slope if b_slope else 0.0
        if drift > slope_tolerance:
            out[key] = [f"{key}: fitted slope drifted {drift * 100:.2f}% "
                        f"(baseline {b_slope:.6e}, current {c_slope:.6e}, "
                        f"tolerance {slope_tolerance * 100:.1f}%)"]
    for key in sorted(set(base["groups"]) - set(cur["groups"])):
        out[key] = [f"{key}: group vanished from the {GRID} grid"]
    return out


def _conformance_entry(name, record, _extra, verdict):
    return entry_from_ledger(record, source="gate:conformance",
                             verdicts=[verdict])


# ---------------------------------------------------------------------------
# Simulator throughput (engine)
# ---------------------------------------------------------------------------

#: Best-of-N wall-clock sampling per scenario (plus one warm-up).
ENGINE_REPS = 3


def _engine_sorter_scenario():
    """The sorter hot path: a mid-size PIPEDATA run on the multi-GPU
    platform (the fig11 configuration, scaled for CI)."""
    sorter = HeterogeneousSorter(get_platform("PLATFORM2"), n_gpus=2,
                                 approach="pipedata", n_streams=2,
                                 batch_size=1_000_000,
                                 pinned_elements=100_000)
    sorter.sort(n=80_000_000)


def _engine_flow_stress_scenario():
    """Allocator-dominated storm: hundreds of concurrent flows over
    disjoint link components (the workload the incremental water-filling
    recompute exists for)."""
    from repro.sim.bandwidth import FlowNetwork
    from repro.sim.engine import Environment
    env = Environment()
    net = FlowNetwork(env)
    links = [net.add_link(f"l{i}", 10e9) for i in range(32)]

    def prog(i):
        for _ in range(4):
            yield net.transfer(1e8 + i * 1e5, links=[links[i % 32]])

    for i in range(32 * 12):
        env.process(prog(i), name=f"p{i}")
    env.run()


def _measure_engine(scenarios, artifacts):
    """Exact event counts and best-of-``ENGINE_REPS`` wall-clock from
    the profile hooks; the extras are each scenario's full profile
    snapshot of its best rep."""
    from repro.obs import profile as prof
    values, snapshots = {}, {}
    for name, scenario in scenarios.items():
        scenario()                    # warm-up, unprofiled
        best = None
        for _ in range(ENGINE_REPS):
            prof.reset_profiling()
            prof.enable_profiling()
            try:
                scenario()
            finally:
                prof.disable_profiling()
            stats = prof.snapshot()["sim.engine.run"]
            if best is None or stats.total_s < best.total_s:
                best = stats
                snapshots[name] = {k: s.to_dict()
                                   for k, s in prof.snapshot().items()}
        values[name] = {"events": best.elements,
                        "events_per_s": best.elements_per_s,
                        "wall_s": best.total_s}
    if artifacts:
        path = os.path.join(artifacts, "engine_profile.json")
        with open(path, "w") as fh:
            json.dump({"schema": "repro.engine_profile/v1",
                       "scenarios": snapshots, "measured": values},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
        say(f"wrote {path}")
    return values, {}, snapshots


def _diff_engine(frozen, measured, floor):
    """Event counts exactly; events/sec above ``floor`` times the frozen
    rate (CI machines vary, an order-of-magnitude slowdown still trips
    it)."""
    out = {}
    for name, cur, base in _common(frozen, measured):
        min_rate = base["events_per_s"] * floor
        msgs = []
        if cur["events"] != base["events"]:
            msgs.append(f"{name}: event count drifted {base['events']} -> "
                        f"{cur['events']} (semantic change, not noise; "
                        "re-freeze only if intended)")
        if cur["events_per_s"] < min_rate:
            msgs.append(f"{name}: throughput {cur['events_per_s']:,.0f} "
                        f"ev/s below floor {min_rate:,.0f} ({floor:.0%} "
                        f"of frozen {base['events_per_s']:,.0f})")
        out[name] = msgs
    return out


def _engine_entry(name, cur, snapshot, verdict):
    # wall-clock differs per run, so every run lands a new entry
    return _point_entry("engine", name, dict(cur), verdict,
                        profile=snapshot)


# ---------------------------------------------------------------------------
# Multi-tenant service
# ---------------------------------------------------------------------------

#: One scenario per allocator over the identical seeded job stream
#: (timing-only, CI-sized).
SERVICES = [{"name": f"serve_{alloc.replace('-', '_')}", "allocator": alloc}
            for alloc in ("fair-share", "max-min", "fixed-levels",
                          "strict-priority")]


def _service_tenants():
    from repro.service import Tenant
    return (
        Tenant("gold", priority=2, share=2.0, rate_hz=40.0, n_jobs=2,
               n_elements=50_000, slo_s=0.5),
        Tenant("silver", priority=1, share=1.0, rate_hz=30.0, n_jobs=2,
               n_elements=50_000),
        Tenant("batch", priority=0, share=0.5, rate_hz=20.0, n_jobs=2,
               n_elements=100_000),
    )


def _measure_service(scenarios, artifacts):
    """The extras are the verdict documents themselves."""
    from repro.service import ServiceConfig, run_service
    tenants = _service_tenants()
    values, invariants, docs = {}, {}, {}
    tenant_bytes_ref = None
    for sc in scenarios:
        name = sc["name"]
        cfg = ServiceConfig(allocator=sc["allocator"], seed=0,
                            functional=False, batch_size=20_000,
                            pinned_elements=5_000)
        res = run_service(tenants, cfg)
        verdict = docs[name] = res.verdict
        broken = _invariant(
            name, f"rate integral broke under {sc['allocator']}",
            verify_rate_integral(res.flow_ledger.to_dict()))
        try:
            res.memory_ledger.check_balanced()
        except MemoryLedgerError as exc:
            broken.append(f"{name}: memory ledger unbalanced ({exc})")
        tb = verdict["flows"]["tenant_bytes"]
        if tenant_bytes_ref is None:
            tenant_bytes_ref = tb
        elif any(abs(tb[t] - tenant_bytes_ref[t])
                 > 1e-6 * max(tenant_bytes_ref[t], 1.0)
                 for t in tenant_bytes_ref):
            broken.append(f"{name}: per-tenant bytes moved differ from "
                          "the fair-share run (allocators must not "
                          "change the work)")
        invariants[name] = broken
        values[name] = {
            "digest": _digest(verdict), "n_jobs": verdict["n_jobs"],
            "elapsed_s": verdict["elapsed_s"],
            "jain_latency_index":
                verdict["fairness"]["jain_latency_index"],
            "p99_latency_s.gold":
                verdict["tenants"]["gold"]["p99_latency_s"],
            "slo_hit_rate": verdict["slo"]["hit_rate"]}
    return values, invariants, docs


def _service_entry(name, _cur, doc, verdict):
    # the same series as `repro serve --archive` of this configuration
    from repro.service import archive_entry
    return archive_entry(doc, label=name, gate_verdicts=[verdict],
                         source="gate:service")


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

GATES: dict[str, Gate] = {g.name: g for g in (
    Gate("regression", os.path.join(RESULTS, "baseline.json"), 0.02,
         SORTS, _measure_regression, _diff_regression, _regression_entry,
         lambda r: f"makespan {r['makespan_s']:.6f}s"),
    Gate("conformance",
         os.path.join(RESULTS, "conformance_baseline.jsonl"), 0.02,
         sweep_points(GRID), _measure_conformance, _diff_conformance,
         _conformance_entry,
         lambda r: (f"measured {r['conformance']['measured_s']:.6f}s  "
                    f"model {r['conformance']['predicted_s']:.6f}s")),
    Gate("memory", os.path.join(RESULTS, "memory_baseline.json"), None,
         SORTS_2GPU, _measure_memory, _diff_exact, _memory_entry,
         lambda v: (f"peaks {v['peaks']} B  {v['n_allocs']} allocs / "
                    f"{v['n_frees']} frees")),
    Gate("flows", os.path.join(RESULTS, "flows_baseline.json"), None,
         SORTS_2GPU, _measure_flows, _diff_exact, _flows_entry,
         lambda v: (f"{v['n_flows']} flows  peak util "
                    f"{v['link_peak_utilization']:.3f}  contention "
                    f"{v['transfer_contention_s']:.6f} s  [{v['digest']}]")),
    Gate("engine", os.path.join(RESULTS, "engine_baseline.json"), 0.25,
         {"pipedata_hotpath": _engine_sorter_scenario,
          "flow_stress": _engine_flow_stress_scenario},
         _measure_engine, _diff_engine, _engine_entry,
         lambda v: f"events {v['events']}  {v['events_per_s']:,.0f} ev/s"),
    Gate("service", os.path.join(RESULTS, "service_baseline.json"), None,
         SERVICES, _measure_service, _diff_exact, _service_entry,
         lambda v: (f"{v['n_jobs']} jobs  elapsed {v['elapsed_s']:.6f}s  "
                    f"gold p99 {v['p99_latency_s.gold']:.6f}s  "
                    f"jain {v['jain_latency_index']:.4f}  [{v['digest']}]")),
)}


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------

def load_baseline(gate: Gate) -> dict:
    """The frozen values of ``gate``, keyed by scenario."""
    if gate.baseline.endswith(".jsonl"):
        return {r["run_id"]: r for r in load_ledger(gate.baseline)}
    with open(gate.baseline) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("schema") != BASELINE_SCHEMA \
            or doc.get("gate") != gate.name \
            or not isinstance(doc.get("scenarios"), dict):
        raise ValueError(f"not a {BASELINE_SCHEMA} document for gate "
                         f"{gate.name!r}")
    return doc["scenarios"]


def save_baseline(gate: Gate, values: dict) -> None:
    os.makedirs(os.path.dirname(gate.baseline), exist_ok=True)
    if gate.baseline.endswith(".jsonl"):
        write_ledger(list(values.values()), gate.baseline)
        return
    with open(gate.baseline, "w") as fh:
        json.dump({"schema": BASELINE_SCHEMA, "gate": gate.name,
                   "scenarios": values}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def check(gate: Gate, frozen: dict, values: dict,
          invariants: dict) -> dict[str, list[str]]:
    """Every failure of one gate run, keyed by scenario (or fit group);
    scenarios without failures are absent."""
    failures: dict[str, list[str]] = {}

    def add(key, msgs):
        if msgs:
            failures.setdefault(key, []).extend(msgs)

    for key, msgs in invariants.items():
        add(key, msgs)
    for key in values:
        if key not in frozen:
            add(key, [f"{key}: missing from the {gate.name} baseline "
                      f"(run `gates.py {gate.name} --update`)"])
    for key, msgs in gate.compare(frozen, values).items():
        add(key, msgs)
    for key in frozen:
        if key not in values:
            add(key, [f"{key}: frozen in the {gate.name} baseline but no "
                      "longer measured (re-freeze only if it was retired "
                      "on purpose)"])
    return failures


def build_entries(gate: Gate, values: dict, extras: dict,
                  failures: dict) -> dict[str, dict]:
    """One archive entry per measured scenario, carrying its verdict."""
    return {name: gate.entry(name, value, extras.get(name),
                             {"gate": gate.name,
                              "ok": not failures.get(name),
                              "failures": failures.get(name, [])})
            for name, value in values.items()}


def trend_notes(gate: Gate, failures: dict, entries: dict,
                history: list[dict]) -> dict[str, str]:
    """Classify each failing scenario against the archive: prior entries
    of the same fingerprint whose verdict for this gate was not ok count
    towards a sustained regression."""
    from repro.obs.trends import classify_miss
    notes = {}
    for key in failures:
        if key not in entries:
            continue
        fp = entries[key]["fingerprint"]
        prior = [any(v["gate"] == gate.name and not v["ok"]
                     for v in e["verdicts"])
                 for e in history if e["fingerprint"] == fp]
        notes[key] = classify_miss(prior)["message"]
    return notes


def run_gate(gate: Gate, update: bool = False, archive: str | None = None,
             artifacts: str | None = None, as_json: bool = False) -> int:
    """Measure one gate, then freeze or check it; returns the exit code."""
    values, invariants, extras = gate.measure(gate.scenarios, artifacts)
    if update:
        broken = [m for msgs in invariants.values() for m in msgs]
        for msg in broken:
            print(f"INVARIANT: {msg}", file=sys.stderr)
        if broken:
            print(f"refusing to freeze the {gate.name} baseline from a "
                  "run that broke its invariants", file=sys.stderr)
            return 1
        save_baseline(gate, values)
        say(f"{gate.name} baseline updated: {gate.baseline} "
            f"({len(values)} scenarios)")
        return 0

    try:
        frozen, unreadable = load_baseline(gate), []
    except (OSError, ValueError, LedgerError) as exc:
        frozen, unreadable = {}, [
            f"cannot load the {gate.name} baseline ({exc}); run "
            f"`gates.py {gate.name} --update`"]
    failures = check(gate, frozen, values, invariants)
    for name, value in values.items():
        say(f"{name}: {'FAIL' if name in failures else 'ok'}  "
            f"{gate.show(value)}")
    entries = build_entries(gate, values, extras, failures)
    if archive:
        history = load_archive(archive) if os.path.exists(archive) else []
        notes = trend_notes(gate, failures, entries, history)
        failures = {k: [f"{m} [{notes[k]}]" if k in notes else m
                        for m in msgs] for k, msgs in failures.items()}
        fresh = append_entries(archive, list(entries.values()))
        say(f"archived {len(fresh)} of {len(entries)} entries to {archive}")
    flat = unreadable + [m for msgs in failures.values() for m in msgs]
    if as_json:
        print(canonical_json({"schema": GATE_SCHEMA, "gate": gate.name,
                              "ok": not flat, "failures": flat,
                              "entries": list(entries.values())},
                             indent=None))
    else:
        for msg in flat:
            print(f"FAIL [{gate.name}] {msg}", file=sys.stderr)
    return 1 if flat else 0


def main(argv=None) -> int:
    global _INFO
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("gates", nargs="*", metavar="GATE",
                   help=f"gates to run (default: all, in order: "
                        f"{', '.join(GATES)})")
    p.add_argument("--update", action="store_true",
                   help="re-measure and rewrite the baselines")
    p.add_argument("--json", action="store_true",
                   help="print one repro.gate/v1 document per gate on "
                        "stdout (progress lines go to stderr)")
    p.add_argument("--archive", metavar="PATH",
                   help="append every measurement to a repro.archive/v1 "
                        "archive and classify failures against its "
                        "history (one-off miss vs sustained regression)")
    p.add_argument("--artifacts", metavar="DIR",
                   help="write the regression gate's Perfetto traces and "
                        "the engine gate's profile snapshot here")
    args = p.parse_args(argv)
    unknown = [g for g in args.gates if g not in GATES]
    if unknown:
        p.error(f"unknown gate {', '.join(unknown)} "
                f"(choose from {', '.join(GATES)})")
    if args.artifacts:
        os.makedirs(args.artifacts, exist_ok=True)
    if args.json:
        _INFO = sys.stderr
    try:
        return max(run_gate(GATES[name], update=args.update,
                            archive=args.archive, artifacts=args.artifacts,
                            as_json=args.json)
                   for name in dict.fromkeys(args.gates or GATES))
    finally:
        _INFO = sys.stdout


if __name__ == "__main__":
    raise SystemExit(main())
