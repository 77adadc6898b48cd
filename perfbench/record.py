"""Re-record ``expected.json``: the canonical digest of each workload's
simulated result and its exact op counts, at the reference seed.

Run from the root of a checkout after a change that is meant to change
simulated results or op counts::

    python3 perfbench/record.py

Each workload runs once untraced and twice traced; the three digests and
the two sets of counts must agree, or nothing is written.
"""

from __future__ import annotations

import json
import sys

import run

REFERENCE_SEED = 0


def main() -> int:
    workloads, layers = run._load_program()
    doc = {"reference_seed": REFERENCE_SEED, "workloads": {}}
    for wl in workloads.WORKLOADS.values():
        inputs = wl.inputs(REFERENCE_SEED)
        state = wl.setup(REFERENCE_SEED)
        expected = wl.expected_output(inputs)
        plain = run.run_op(wl, state, inputs, expected)
        traced = []
        for _ in range(2):
            tracer = layers.Tracer()
            traced.append((run.run_op(wl, state, inputs, expected, tracer),
                           tracer.counts()))
        ops = [plain] + [op for op, _ in traced]
        if not all(op.ok for op in ops):
            sys.exit(f"record: {wl.name} failed")
        if len({op.digest for op in ops}) != 1:
            sys.exit(f"record: {wl.name} digest differs between runs")
        if traced[0][1] != traced[1][1]:
            sys.exit(f"record: {wl.name} op counts differ between runs")
        doc["workloads"][wl.name] = {"digest": plain.digest,
                                     "counts": traced[0][1]}
        print(wl.name, plain.digest[:16], json.dumps(traced[0][1]))
    run.EXPECTED.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
