"""Self-test of the benchmark at a tiny budget.

Usage, from the repository root::

    python3 perfbench/selftest.py

For every workload, at a tenth of the benchmark's sizes and half a second
of rounds, it checks that

* the untraced run reports every end-to-end metric of ``BENCHMARK.json``,
  with its unit and a non-zero value, and ``ok_fraction`` = 1.0;
* the traced run reports every per-layer metric with its unit;
* every count (all metrics that are not times) is identical across two
  runs with the same seed;
* an injected wrong answer lowers ``ok_fraction`` and clears ``correct``.

Exits non-zero and names the failed checks when any check fails.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.run import WORKLOADS, measure, stop_children  # noqa: E402

SEED = 7
SECONDS = 0.5
SCALE = 0.1
TIME_UNITS = {"s", "s/op", "s/query", "s/write", "ms", "ops/s", "MB"}
#: per-layer ratios of two timings, not counts
TIMED_RATIOS = {"trace.overhead_frac"}


def counts_of(metrics: dict) -> dict:
    return {
        name: metric["value"]
        for name, metric in metrics.items()
        if metric["unit"] not in TIME_UNITS and name not in TIMED_RATIOS
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(condition: bool, message: str) -> None:
        print(("ok    " if condition else "FAIL  ") + message, flush=True)
        if not condition:
            failures.append(message)

    for workload in WORKLOADS:
        for trace, names in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            label = f"{workload} trace={int(trace)}"
            first, _ = measure(workload, SEED, SECONDS, trace, scale=SCALE)
            again, _ = measure(workload, SEED, SECONDS, trace, scale=SCALE)
            emitted = first["metrics"]
            for metric in names:
                got = emitted.get(metric["name"])
                expect(got is not None and got["unit"] == metric["unit"],
                       f"{label}: emits {metric['name']} in {metric['unit']}")
                if not trace and got is not None:
                    expect(got["value"] > 0, f"{label}: {metric['name']} is non-zero")
            expect(set(emitted) == {m["name"] for m in names}, f"{label}: emits no other metric")
            expect(first["correct"] and first["failed"] == 0, f"{label}: every answer is correct")
            if not trace:
                expect(emitted["ok_fraction"]["value"] == 1.0, f"{label}: ok_fraction is 1.0")
            expect(counts_of(emitted) == counts_of(again["metrics"]),
                   f"{label}: counts repeat at seed {SEED}")
        faulty, _ = measure(workload, SEED, SECONDS, False, scale=SCALE, inject_fault=True)
        expect(not faulty["correct"] and faulty["metrics"]["ok_fraction"]["value"] < 1.0,
               f"{workload}: an injected wrong answer lowers ok_fraction")

    print(f"\n{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
