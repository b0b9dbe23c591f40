"""The repository benchmark: three closed-loop workloads over the public API.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root.  The benchmark generates its own
inputs, times calls into ``repro`` from outside (it never edits ``src/``),
checks every answer against its own brute-force oracle and prints one JSON
line as the last line of standard output.  See ``perfbench/README.md``.
"""
