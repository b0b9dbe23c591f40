"""Measure the benchmark's own run-to-run spread.

Usage, from the repository root::

    python3 perfbench/steadiness.py --workload bulk-read --seeds 1-10 [--seconds 12]

Runs ``perfbench/run.py`` once per seed, one process after another, and
prints for every end-to-end metric the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``), the spread (quartile
distance over median) and the metric's bound from ``BENCHMARK.json``.  A
spread above a third of its bound is flagged; ``setup_s`` is exempt from
the spread rule.  Then, for every round index, the median over the seeds
of that round's throughput (``round ops/s`` in each run's notes), which
shows whether the index state drifts from one round to the next.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = (int(part) for part in text.split("-"))
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    runs = []
    round_rates = []
    for seed in seed_list(args.seeds):
        command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return 1
        lines = out.stdout.strip().splitlines()
        line = json.loads(lines[-1])
        runs.append(line)
        note = next(text for text in lines if text.startswith("# round ops/s:"))
        round_rates.append([float(v) for v in note.split(":", 1)[1].split(";")[0].split()])
        print(f"seed {seed}: correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']}", flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"\n{args.workload}: {len(runs)} runs of {args.seconds:g} s\n")
    print("| metric | unit | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound and name != "setup_s" and spread > bound / 3:
            flag = " !"
        print(f"| {name} | {runs[0]['metrics'][name]['unit']} | {median:.6g} | {q1:.6g} | "
              f"{q3:.6g} | {spread:.3f}{flag} | {bound if bound is not None else '-'} |")

    per_round = [statistics.median(rates) for rates in zip(*round_rates)]
    quarter = max(1, len(per_round) // 4)
    first, last = statistics.median(per_round[:quarter]), statistics.median(per_round[-quarter:])
    print(f"\nper-round ops/s, median over seeds, rounds 0-{len(per_round) - 1}:")
    print(" ".join(f"{rate:.0f}" for rate in per_round))
    print(f"first quarter of rounds {first:.0f}, last quarter {last:.0f} "
          f"(change {last / first - 1:+.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
