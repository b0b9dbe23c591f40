"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload bulk-read --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ledger (see ``BENCHMARK.json`` and ``perfbench/README.md``).  Human-readable
notes (sample counts, the self-time ledger) come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The program under test is imported from
``src/`` next to this directory; without it the run fails before measuring.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PR_SET_CHILD_SUBREAPER = 36

WORKLOADS = {
    "bulk-read": "perfbench.bulk_read",
    "churn-durable": "perfbench.churn_durable",
    "serve-sharded": "perfbench.serve_sharded",
}


def _use_checkout() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure: {source / 'repro'} is missing")
    for path in (str(ROOT), str(source)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not from {source}")


def _adopt_orphans() -> None:
    """Make this process the child subreaper of everything it starts, so a
    process orphaned by one of its children is re-parented here and
    :func:`stop_children` can still stop it (Linux; elsewhere a no-op)."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> list[int]:
    pids = []
    try:
        for task in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{task}/children") as children:
                pids.extend(int(pid) for pid in children.read().split())
    except OSError:
        pass
    return pids


def stop_children(grace: float = 5.0) -> None:
    """Stop every process this run started and wait until each has ended.

    The workloads shut their worker pools down themselves; what outlives
    them is multiprocessing's resource tracker, which on its own ends only
    after this process has exited.  It is stopped here, and any other child
    still running is sent SIGTERM, then SIGKILL after ``grace`` seconds, and
    reaped.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    pending = _children()
    for pid in pending:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGTERM)
    deadline = time.monotonic() + grace
    while pending:
        for pid in list(pending):
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done = pid  # not ours to reap, or already reaped
            if done:
                pending.remove(pid)
        if pending and time.monotonic() > deadline:
            for pid in pending:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            deadline = float("inf")
        if pending:
            time.sleep(0.05)
        pending += [pid for pid in _children() if pid not in pending]


def _exit_on_sigterm(signum, frame) -> None:
    raise SystemExit(128 + signum)  # unwinds through every clean-up block


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0, inject_fault: bool = False):
    """Run ``workload`` once; returns ``(result_line, notes)``."""
    _use_checkout()
    from perfbench import harness, ledger

    module = importlib.import_module(WORKLOADS[workload])
    workdir = ROOT / ".perfbench_tmp" / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = harness.Run(harness.rounds_for(seconds, module.ROUND_SECONDS), trace)
    run.inject_fault = inject_fault
    wl = module.Workload(run, seed, workdir, scale)
    try:
        for i in range(harness.SETUPS):
            traced = trace and i == harness.SETUPS - 1
            gc.collect()
            with run.traced_phase(harness.SETUP_ROUND, "setup") if traced else contextlib.nullcontext():
                phases = wl.setup()
            if not traced:
                run.setup_phases.append(phases)
            run.sample_rss()
        run.play_rounds(wl.play_round)
        run.sample_rss()
        if hasattr(wl, "finish_rounds"):
            wl.finish_rounds()
        wl.recover()
        run.sample_rss()
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if trace:
        metrics = ledger.per_layer(run, wl.shape, wl.counters)
    else:
        metrics = run.end_to_end()
    return run.result_line(metrics), run.notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _adopt_orphans()
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        line, notes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_children()
    for note in notes:
        print(f"# {note}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
