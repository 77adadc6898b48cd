"""The repository's benchmark: host time of the simulator, end to end
and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_fig9 --seed 1 --seconds 20 --trace 0

One single-threaded process runs one workload as a closed loop: one
client runs operations back to back, the next only after the previous
one returned.  Each run first runs one operation on the reference seed
and checks its simulated digest against ``expected.json``, then times
operations on the inputs made from ``--seed`` until ``--seconds`` have
passed, starting fresh interpreters between them to time set-up.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced operations and prints the per-layer metrics of the
traced ones (see ``layers.py``); its reference operation is traced, so
its digest also shows that the wrappers are passive and its op counts
are compared with the recorded ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Operations that
raise, return a wrong sort or drift from their digest count as failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"

#: Fresh interpreters timed per run, spread over the run so that a
#: slow or fast spell of the host does not set them all; ``setup_s`` is
#: their median.
SETUP_PROBES = 7

_PROBE = """\
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.WORKLOADS[sys.argv[3]].setup(int(sys.argv[4]))
print("ready", flush=True)
"""

# One thread per process: numpy's BLAS pool would otherwise start a
# thread per core at import.
_SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


def _load_program():
    """Import the program from this checkout's ``src``; exit with an error
    when the checkout holds no program."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {src / 'repro'}")
    sys.path[:0] = [str(src), str(HERE)]
    import layers
    import workloads
    return workloads, layers


def probe_setup(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it has imported
    ``repro`` and built the workload's platform, sorter or service and
    plan."""
    cmd = [sys.executable, "-c", _PROBE, str(ROOT / "src"), str(HERE),
           name, str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed: {cmd}")
    return ready


@dataclass
class Op:
    """The outcome of one timed operation (the result itself is dropped,
    so that memory held by earlier ops does not grow the next one's).
    ``wall_s`` is None when the operation raised."""

    wall_s: float | None
    digest: str = ""
    ok: bool = False
    sim_s: float = 0.0


def run_op(wl, state, inputs, expected, tracer=None) -> Op:
    """Time one operation; check its output and digest afterwards."""
    arg = inputs.copy() if inputs is not None else None
    # Garbage left by the previous op is collected here, untimed;
    # otherwise its collection lands in a later op at random.
    gc.collect()
    try:
        if tracer is None:
            t0 = time.perf_counter()
            result = wl.op(state, arg)
            wall = time.perf_counter() - t0
        else:
            with tracer:
                t0 = time.perf_counter()
                result = wl.op(state, arg)
                wall = time.perf_counter() - t0
        ok = wl.output_ok(arg, expected, result)
        done = Op(wall, wl.digest(result), ok, wl.sim_seconds(result))
    except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
        traceback.print_exc()
        return Op(None)
    if not ok:
        print(f"FAIL {wl.name}: wrong output", file=sys.stderr)
    return done


class Tally:
    """Attempted and failed operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, op: Op, want: str | None, what: str) -> Op:
        """Count ``op``; an op whose digest differs from ``want`` fails."""
        self.attempted += 1
        if op.ok and want is not None and op.digest != want:
            print(f"FAIL {what}: digest {op.digest[:16]} != "
                  f"{want[:16]}", file=sys.stderr)
            op.ok = False
        if not op.ok:
            self.failed += 1
        return op


def _median(values):
    return statistics.median(values) if values else 0.0


def prepare(wl, seed: int) -> tuple:
    """Set-up, inputs and expected output for one seed."""
    inputs = wl.inputs(seed)
    return wl.setup(seed), inputs, wl.expected_output(inputs)


def end_to_end(wl, args, recorded) -> tuple[Tally, dict]:
    tally = Tally()
    # Warm-up on the reference seed: lazy imports and first-touch
    # allocations finish here, and the digest is checked against the
    # recorded one.
    tally.check(run_op(wl, *prepare(wl, recorded["seed"])),
                recorded["digest"], f"{wl.name} reference")
    state, inputs, expected = prepare(wl, args.seed)
    want = recorded["digest"] if wl.seed_free_digest else None
    ops: list[Op] = []
    probes: list[float] = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < args.seconds:
        op = tally.check(run_op(wl, state, inputs, expected), want,
                         wl.name)
        if op.ok and want is None:
            want = op.digest
        ops.append(op)
        due = len(probes) * args.seconds / SETUP_PROBES
        if time.perf_counter() - start >= due:
            probes.append(probe_setup(wl.name, args.seed))
    while len(probes) < SETUP_PROBES:
        probes.append(probe_setup(wl.name, args.seed))
    setup_s = _median(probes)
    # A wrong result still took its time; only ops that raised have none.
    timed = [op for op in ops if op.wall_s is not None]
    if not timed:
        sys.exit(f"perfbench: every {wl.name} operation raised")
    walls = [op.wall_s for op in timed]
    sim_s = timed[-1].sim_s
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s_p50": (_median(walls), "s"),
        "elements_per_s": (wl.elements(inputs) * len(timed) / sum(walls),
                           "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "sim_makespan_s": (sim_s, "sim_s"),
        "success_rate": ((tally.attempted - tally.failed) / tally.attempted,
                         "ratio"),
    }
    print(f"wall_s_p50 {_median(walls):.4f} s over {len(walls)} ops "
          f"(min {min(walls):.4f}, max {max(walls):.4f})")
    print(f"error_rate {tally.failed}/{tally.attempted}")
    if wl.paper_s is not None:
        err = (sim_s - wl.paper_s) / wl.paper_s
        print(f"sim_makespan_s {sim_s:.4f} simulated s; paper "
              f"~{wl.paper_s} s (Fig. 9 PIPEMERGE+PARMEMCPY), model error "
              f"{err:+.2%}")
    else:
        print(f"sim_makespan_s {sim_s:.4f} simulated s; model unvalidated: "
              "the paper reports no time for this point")
    return tally, metrics


def _diff_counts(a: dict, b: dict) -> list[str]:
    return [k for k in sorted(a) if a[k] != b.get(k)]


def per_layer(wl, args, recorded, layers) -> tuple[Tally, dict]:
    tally = Tally()
    tracer = layers.Tracer()
    ref = tally.check(
        run_op(wl, *prepare(wl, recorded["seed"]), tracer=tracer),
        recorded["digest"], f"{wl.name} traced reference")
    recorded_drift = _diff_counts(recorded["counts"], tracer.counts())
    for k in recorded_drift:
        print(f"FLAG {wl.name}: {k} = {tracer.counts().get(k)} at the "
              f"reference seed, recorded {recorded['counts'][k]}")
    if ref.ok:
        print(f"counts at seed {recorded['seed']}: "
              + json.dumps(tracer.counts(), sort_keys=True))
    state, inputs, expected = prepare(wl, args.seed)
    pairs = 0
    untraced: list[float] = []
    traced: list[float] = []
    samples: list[dict] = []
    first_counts = None
    drift: set[str] = set()
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start < args.seconds:
        # Alternate which of the pair runs first, so that an order effect
        # does not show up as tracing overhead.
        pairs += 1
        tracer = layers.Tracer()
        if pairs % 2:
            plain = run_op(wl, state, inputs, expected)
            op = run_op(wl, state, inputs, expected, tracer)
        else:
            op = run_op(wl, state, inputs, expected, tracer)
            plain = run_op(wl, state, inputs, expected)
        tally.check(plain, None, wl.name)
        tally.check(op, plain.digest if plain.ok else None,
                    f"{wl.name} traced (passivity)")
        if plain.wall_s is None or op.wall_s is None:
            continue
        untraced.append(plain.wall_s)
        traced.append(op.wall_s)
        counts = tracer.counts()
        if first_counts is None:
            first_counts = counts
        for k in _diff_counts(first_counts, counts):
            if k not in drift:
                print(f"FLAG {wl.name}: {k} differs between traced runs "
                      f"of one input: {first_counts[k]} vs {counts[k]}")
            drift.add(k)
        m = tracer.metrics()
        m["bench.unattributed_s"] = op.wall_s - tracer.attributed_s()
        samples.append(m)
        if len(traced) == 1:
            print(f"counts at seed {args.seed}: "
                  + json.dumps(counts, sort_keys=True))
    if not samples:
        sys.exit(f"perfbench: every traced {wl.name} operation raised")
    # Counts are exact (drift is flagged above); times are medians.
    metrics = {name: (first_counts[name] if name in first_counts
                      else _median([s[name] for s in samples]), _unit(name))
               for name in samples[0]}
    t_wall = _median(traced)
    u_wall = _median(untraced)
    metrics.update({
        "bench.traced_wall_s": (t_wall, "s"),
        "bench.untraced_wall_s": (u_wall, "s"),
        "bench.trace_overhead_s": (t_wall - u_wall, "s"),
        "bench.count_drift": (len(drift), "count"),
        "bench.recorded_count_drift": (len(recorded_drift), "count"),
    })
    print(f"trace_overhead_s {t_wall - u_wall:.4f} s (traced "
          f"{t_wall:.4f} s, untraced {u_wall:.4f} s, {len(traced)} pairs)")
    print(f"unattributed_s {metrics['bench.unattributed_s'][0]:.4f} s of "
          f"{t_wall:.4f} s traced op wall")
    return tally, metrics


def _unit(name: str) -> str:
    if name.endswith("elements_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("useful_ratio", "events_per_chunk")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    os.environ.update(_SINGLE_THREAD)
    workloads, layers = _load_program()
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from "
                f"{sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    doc = json.loads(EXPECTED.read_text())
    recorded = {**doc["workloads"][wl.name], "seed": doc["reference_seed"]}
    if args.trace:
        tally, metrics = per_layer(wl, args, recorded, layers)
    else:
        tally, metrics = end_to_end(wl, args, recorded)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
