"""Tests for trace diffing and the regression-gate verdict logic."""

import importlib.util
import json
import pathlib

import pytest

from repro.hetsort import HeterogeneousSorter
from repro.hw.platforms import PLATFORM1
from repro.obs.diff import (check_regression, diff_reports, load_report,
                            render_diff, report_from_trace, run_report,
                            write_report)
from repro.sim.trace import CAT, Trace


def small_run():
    sorter = HeterogeneousSorter(PLATFORM1, approach="pipemerge",
                                 batch_size=250_000,
                                 pinned_elements=50_000)
    return sorter.sort(n=1_000_000)


def scaled_trace(trace, factor, category=None):
    """Re-record a trace with (selected) durations scaled."""
    out = Trace()
    shift = {}
    new_end = {}
    for s in trace.spans:
        if s.deps:
            sh = max(new_end[d] for d in s.deps) \
                - max(trace.spans[d].end for d in s.deps)
        else:
            sh = 0.0
        start = s.start + sh
        k = factor if category in (None, s.category) else 1.0
        end = start + k * s.duration
        out.record(s.category, s.label, start, end, lane=s.lane,
                   nbytes=s.nbytes, elements=s.elements, meta=s.meta,
                   deps=s.deps)
        new_end[s.id] = end
    return out


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_run_report_shape():
    rep = run_report(small_run(), label="x")
    assert rep["schema"] == "repro.report/v1"
    assert rep["label"] == "x"
    assert rep["context"]["approach"] == "pipemerge"
    assert rep["makespan_s"] > 0
    assert rep["n_spans"] == sum(rep["span_index"].values())
    assert set(rep["categories"]) >= {CAT.GPUSORT, CAT.MCPY}
    assert rep["critical_path"]["duration"] == rep["makespan_s"]


def test_report_round_trip(tmp_path):
    rep = run_report(small_run())
    path = tmp_path / "report.json"
    write_report(rep, path)
    assert load_report(path) == rep
    # Canonical bytes: rewriting the same report is a no-op.
    first = path.read_bytes()
    write_report(load_report(path), path)
    assert path.read_bytes() == first


# ---------------------------------------------------------------------------
# Diffing
# ---------------------------------------------------------------------------


def test_self_diff_is_zero():
    rep = run_report(small_run())
    d = diff_reports(rep, rep)
    assert d["zero"]
    assert not d["regression"]
    assert not d["structural_change"]
    assert d["makespan"]["delta"] == 0.0
    assert "identical" in render_diff(d)


def test_timing_regression_detected():
    res = small_run()
    a = run_report(res, label="before")
    slower = scaled_trace(res.trace, 1.5, category=CAT.GPUSORT)
    b = report_from_trace(slower, label="after")
    d = diff_reports(a, b, tolerance=0.02)
    assert not d["zero"]
    assert d["regression"]
    assert not d["structural_change"]          # same span shapes
    assert d["makespan"]["delta"] > 0
    assert d["categories"][CAT.GPUSORT]["delta"] > 0
    assert d["categories"][CAT.MCPY]["delta"] == 0.0
    text = render_diff(d)
    assert "REGRESSION" in text and CAT.GPUSORT in text


def test_improvement_is_not_regression():
    res = small_run()
    a = run_report(res)
    faster = scaled_trace(res.trace, 0.5, category=CAT.GPUSORT)
    d = diff_reports(a, report_from_trace(faster), tolerance=0.0)
    assert d["makespan"]["delta"] < 0
    assert not d["regression"]


def test_tolerance_absorbs_small_growth():
    res = small_run()
    a = run_report(res)
    slightly = scaled_trace(res.trace, 1.001)
    b = report_from_trace(slightly)
    assert diff_reports(a, b, tolerance=0.05)["regression"] is False
    assert diff_reports(a, b, tolerance=1e-6)["regression"] is True


def test_structural_change_detected():
    res = small_run()
    a = run_report(res)
    t = scaled_trace(res.trace, 1.0)
    t0, t1 = t.window()
    t.record(CAT.SYNC, "extra", t1, t1 + 0.001, lane="host")
    d = diff_reports(a, report_from_trace(t))
    assert d["structural_change"]
    assert f"{CAT.SYNC}|extra|host" in d["spans"]["added"]
    assert not d["zero"]
    assert "added" in render_diff(d)


def test_recount_detected():
    a = {"schema": "repro.report/v1", "label": "a", "makespan_s": 1.0,
         "elapsed_s": 1.0, "categories": {}, "lanes": {},
         "critical_path": {"by_category": {}},
         "span_index": {"HtoD|x|l": 2}}
    b = dict(a, label="b", span_index={"HtoD|x|l": 3})
    d = diff_reports(a, b)
    assert d["spans"]["recounted"] == {"HtoD|x|l": {"a": 2, "b": 3}}
    assert d["structural_change"]


# ---------------------------------------------------------------------------
# Gate verdicts
# ---------------------------------------------------------------------------


def test_check_regression_ok_on_identical():
    rep = run_report(small_run())
    verdict = check_regression(rep, rep)
    assert verdict["ok"] and not verdict["failures"]


def test_check_regression_fails_on_slowdown():
    res = small_run()
    base = run_report(res)
    cur = report_from_trace(scaled_trace(res.trace, 1.2))
    verdict = check_regression(cur, base, tolerance=0.02)
    assert not verdict["ok"]
    assert any("regressed" in f for f in verdict["failures"])


def test_check_regression_fails_on_structure():
    res = small_run()
    base = run_report(res)
    t = scaled_trace(res.trace, 1.0)
    _, t1 = t.window()
    t.record(CAT.SYNC, "extra", t1, t1, lane="host")
    verdict = check_regression(report_from_trace(t), base)
    assert not verdict["ok"]
    assert any("structure" in f for f in verdict["failures"])


# ---------------------------------------------------------------------------
# The gate driver (benchmarks/gates.py), one parameter per registered gate
# ---------------------------------------------------------------------------


def _load_gate_module():
    path = (pathlib.Path(__file__).resolve().parents[2]
            / "benchmarks" / "gates.py")
    spec = importlib.util.spec_from_file_location("gates", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


gates = _load_gate_module()

#: Wall-clock makes the engine gate flaky under load, so only the
#: deterministic gates are re-measured here.
DETERMINISTIC = [name for name in gates.GATES if name != "engine"]


def _scale_group(records, factor):
    """Scale every measured time of the first fit group's runs."""
    from repro.obs.conformance import group_key
    group = group_key(next(iter(records.values())))
    for rec in records.values():
        if group_key(rec) == group:
            rec["conformance"]["measured_s"] *= factor


def _flip(digest):
    return ("0" if digest[0] != "0" else "1") + digest[1:]


#: One injected defect per gate, applied to a copy of the frozen values.
DEFECTS = {
    "regression": lambda f: f["bline_1m"].update(
        makespan_s=f["bline_1m"]["makespan_s"] * 0.5),
    "conformance": lambda f: _scale_group(f, 1.1),
    "memory": lambda f: f["bline_1m"]["peaks"].update(
        pinned=f["bline_1m"]["peaks"]["pinned"] + 1),
    "flows": lambda f: f["bline_1m"].update(
        digest=_flip(f["bline_1m"]["digest"])),
    "engine": lambda f: f["flow_stress"].update(
        events=f["flow_stress"]["events"] + 1),
    "service": lambda f: f["serve_max_min"].update(
        digest=_flip(f["serve_max_min"]["digest"])),
}


@pytest.mark.parametrize("name", DETERMINISTIC)
def test_gate_baseline_matches_committed(name):
    """The committed baseline must reproduce exactly on this code."""
    gate = gates.GATES[name]
    values, invariants, _ = gate.measure(gate.scenarios, None)
    assert gates.check(gate, gates.load_baseline(gate), values,
                       invariants) == {}


@pytest.mark.parametrize("name", list(gates.GATES))
def test_gate_detects_injected_regression(name):
    gate = gates.GATES[name]
    committed = gates.load_baseline(gate)
    frozen = json.loads(json.dumps(committed))
    DEFECTS[name](frozen)
    assert not any(gate.compare(committed, committed).values())
    assert any(gate.compare(frozen, committed).values())


@pytest.mark.parametrize("name", list(gates.GATES))
def test_gate_fails_on_dropped_scenario(name):
    """A frozen scenario the code no longer measures fails its gate."""
    gate = gates.GATES[name]
    frozen = gates.load_baseline(gate)
    dropped = next(iter(frozen))
    measured = {k: v for k, v in frozen.items() if k != dropped}
    failures = gates.check(gate, frozen, measured, {})
    assert any("no longer measured" in m for m in failures[dropped])


def test_gate_failure_classified_sustained(tmp_path, capsys):
    """Two archived failures of one scenario make a third sustained."""
    from repro.obs import append_entries
    gate = gates.GATES["memory"]
    frozen = gates.load_baseline(gate)
    archive = str(tmp_path / "archive.jsonl")
    prior = []
    for extra in (1, 2):
        value = json.loads(json.dumps(frozen["bline_1m"]))
        value["peaks"]["pinned"] += extra
        prior.append(gate.entry("bline_1m", value, None, {
            "gate": "memory", "ok": False, "failures": ["drifted"]}))
    append_entries(archive, prior)
    measured = json.loads(json.dumps(frozen))
    measured["bline_1m"]["peaks"]["pinned"] += 3
    gate = gate._replace(measure=lambda scenarios, artifacts:
                         (measured, {}, {}))
    assert gates.run_gate(gate, archive=archive, as_json=True) == 1
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert doc["schema"] == gates.GATE_SCHEMA and not doc["ok"]
    assert doc["failures"]
    assert all("bline_1m" in m and "[sustained regression" in m
               for m in doc["failures"])
