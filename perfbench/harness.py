"""Run a workload: repeated set-up, timed rounds, checks, metrics.

A run is

1. ``SETUPS`` complete set-ups (build, attach, spawn, warm-up); ``setup_s``
   is their median and only the last one is kept;
2. a fixed number of rounds of a seeded operation stream.  The number
   depends only on ``--seconds`` and the workload's ``ROUND_SECONDS`` (the
   wall time of one round on the reference host), never on how fast the
   run goes, so every run at a given ``--seconds`` times the same index
   states: a faster program finishes sooner, it does not play more rounds
   into a more churned index.  Only the calls into the program are timed;
   generating operations and checking answers are not.  With
   ``--trace 1`` every other round is traced, so the traced and untraced
   throughputs come from the same process.  A full garbage collection
   before every round (and every set-up and recovery) starts each one from
   the same collector state, so collector pauses fall on the same
   operations in every run;
3. ``RECOVERIES`` crash/recover cycles, whose median is ``recover_s``.

Throughputs are the upper quartile of the per-round throughputs: on a
shared VM other guests slow whole stretches of a run, and the faster
quarter of rounds tracks the program's own speed while a single lucky round
cannot set it.  Latencies are medians over blocks of 1,000 consecutive
calls of each block's percentile (see :func:`percentile`).  The
deterministic counts come from a fixed set of rounds (reads per op and
recall from every round, whose number ``--seconds`` fixes; per-layer counts
from the first traced round), so they repeat exactly at a given seed and
``--seconds``.  Counting every round rather than a few also keeps the
seed-to-seed spread of reads per op small.
"""

from __future__ import annotations

import contextlib
import gc
import os
import statistics
import sys
import time
import traceback

import numpy as np

from perfbench.tracer import Tracer

SETUPS = 3
RECOVERIES = 9
MIN_ROUNDS = 3
LATENCY_BLOCK = 1_000  # calls per latency block (see percentile)
#: pseudo round numbers for spans taken outside the round loop
SETUP_ROUND = -1
RECOVERY_ROUND = -2
READ_KINDS = ("point", "window", "knn", "aggregate")
WRITE_KINDS = ("insert", "delete")


class RoundLog:
    """Every call of one round plus its read accounting and recalls."""

    def __init__(self, index: int, traced: bool):
        self.index = index
        self.traced = traced
        self.wall = 0.0
        self.calls: list[tuple[str, int, float]] = []
        self.logical_reads = 0
        self.physical_reads = 0
        self.rows_returned = 0
        self.recall: dict[str, list[float]] = {"window": [], "knn": []}

    def ops(self, kinds=None) -> int:
        return sum(n for kind, n, _ in self.calls if kinds is None or kind in kinds)

    def seconds(self, kinds=None) -> float:
        return sum(s for kind, _, s in self.calls if kinds is None or kind in kinds)

    def durations(self, kinds) -> list[float]:
        return [s for kind, _, s in self.calls if kind in kinds]

    def rate(self, kinds=None) -> float | None:
        seconds = self.seconds(kinds)
        return self.ops(kinds) / seconds if seconds > 0 else None


class Run:
    """Timing, failure and trace bookkeeping shared by a workload's phases."""

    def __init__(self, n_rounds: int, trace: bool):
        self.n_rounds = max(n_rounds, MIN_ROUNDS + (1 if trace else 0))
        self.tracer = Tracer() if trace else None
        self.rounds: list[RoundLog] = []
        self.log: RoundLog | None = None
        self.attempted = 0
        self.failed = 0
        self.setup_phases: list[dict] = []
        self.recover_samples: list[float] = []
        self.peak_rss_mb = 0.0
        self.notes: list[str] = []
        self._tracebacks = 0
        self.inject_fault = False

    # -- calls -------------------------------------------------------------------

    def call(self, kind: str, n_ops: int, fn, *args):
        """Time one call into the program.  Returns ``(result, raised)``; an
        exception fails all ``n_ops`` operations of the call."""
        if self.tracer is not None:
            self.tracer.category = "write" if kind in WRITE_KINDS else "read"
            self.tracer.request += 1
        started = time.perf_counter()
        try:
            result, raised = fn(*args), False
        except Exception:
            result, raised = None, True
            self._report_exception(kind)
        self.log.calls.append((kind, n_ops, time.perf_counter() - started))
        return result, raised

    def timed_recovery(self, recover):
        """Time ``recover()`` as one ``recover_s`` sample (traced when
        tracing) and return what it returns."""
        gc.collect()
        with self.traced_phase(RECOVERY_ROUND, "recover"):
            started = time.perf_counter()
            outcome = recover()
            self.recover_samples.append(time.perf_counter() - started)
        return outcome

    def play(self, plan: list, execute, insert, delete, stats=None) -> list:
        """Make every call of a round's ``plan`` back to back, as a closed
        loop with no think time; checking waits until the round is over.

        ``plan`` items are ``(kind, payload)``: a :class:`ops.ReadCall` for
        reads, an ``(x, y)`` key for writes.  Returns ``(result, raised)``
        per item.  With ``stats`` (the index's access counters) the reads a
        write makes are charged to the round as they happen.
        """
        results = []
        for kind, payload in plan:
            if kind in WRITE_KINDS:
                fn = insert if kind == "insert" else delete
                if stats is None:
                    results.append(self.call(kind, 1, fn, *payload))
                    continue
                logical, physical = stats.total_reads, stats.physical_reads
                results.append(self.call(kind, 1, fn, *payload))
                self.reads(stats.total_reads - logical, stats.physical_reads - physical)
            else:
                results.append(self.call(kind, payload.n_ops, execute, payload.request))
        return results

    def untimed(self, category: str, fn, *args):
        """Call the program outside the timed region (mirrors, verification)."""
        if self.tracer is not None:
            self.tracer.category = category
            self.tracer.request += 1
        try:
            return fn(*args), False
        except Exception:
            self._report_exception(category)
            return None, True

    def _report_exception(self, where: str) -> None:
        self._tracebacks += 1
        if self._tracebacks <= 3:
            print(f"perfbench: {where} call raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)

    def maybe_corrupt(self, kind: str, values: list) -> list:
        """The self-test's injected fault: flip the first point answer once."""
        if self.inject_fault and kind == "point" and values:
            self.inject_fault = False
            values = [not values[0]] + list(values[1:])
        return values

    def judge(self, n_ops: int, n_bad: int) -> None:
        self.attempted += n_ops
        self.failed += n_bad

    def reads(self, logical, physical) -> None:
        self.log.logical_reads += int(logical or 0)
        self.log.physical_reads += int(physical or 0)

    # -- phases ------------------------------------------------------------------

    @contextlib.contextmanager
    def traced_phase(self, round_index: int, category: str):
        """Install the tracer's wrappers for one phase and tag its spans
        (does nothing on an untraced run)."""
        if self.tracer is None:
            yield
            return
        self.tracer.round = round_index
        self.tracer.category = category
        self.tracer.install()
        try:
            yield
        finally:
            self.tracer.uninstall()

    def play_rounds(self, play_round) -> None:
        for index in range(self.n_rounds):
            traced = self.tracer is not None and index % 2 == 1
            self.log = RoundLog(index, traced)
            started = time.perf_counter()
            gc.collect()
            with self.traced_phase(index, "read") if traced else contextlib.nullcontext():
                play_round(index, traced)
            self.log.wall = time.perf_counter() - started
            self.rounds.append(self.log)
        self.log = None

    def sample_rss(self) -> None:
        self.peak_rss_mb = max(self.peak_rss_mb, tree_peak_rss_mb())

    # -- results -----------------------------------------------------------------

    @property
    def first_traced(self) -> RoundLog:
        return next(r for r in self.rounds if r.traced)

    def end_to_end(self) -> dict:
        plain = [r for r in self.rounds if not r.traced]
        counted = self.rounds  # a fixed number, so counts repeat at a seed
        logical = sum(r.logical_reads for r in counted) / sum(r.ops() for r in counted)
        recall = {kind: [x for r in counted for x in r.recall[kind]] for kind in ("window", "knn")}

        def rate(kinds):
            rates = [r.rate(kinds) for r in plain]
            rates = [rate for rate in rates if rate is not None]
            return statistics.quantiles(rates, n=4)[2] if len(rates) > 1 else sum(rates)

        reads = [s for r in plain for s in r.durations(READ_KINDS)]
        writes = [s for r in plain for s in r.durations(WRITE_KINDS)]
        self.notes.append(
            "round ops/s: " + " ".join(f"{r.rate():.0f}" for r in plain)
            + f"; median round wall time {statistics.median(r.wall for r in plain):.3f} s"
        )
        self.notes.append(
            f"samples: {len(plain)} untraced rounds, {len(reads)} read calls, "
            f"{len(writes)} write calls, {len(self.setup_phases)} set-ups, "
            f"{len(self.recover_samples)} recoveries"
        )
        metrics = {
            "ops_per_s": (rate(None), "ops/s"),
            "point_qps": (rate(("point",)), "ops/s"),
            "window_qps": (rate(("window",)), "ops/s"),
            "knn_qps": (rate(("knn",)), "ops/s"),
            "aggregate_qps": (rate(("aggregate",)), "ops/s"),
            "write_ops_per_s": (rate(WRITE_KINDS), "ops/s"),
            "read_p50_ms": (percentile(reads, 50) * 1e3, "ms"),
            "read_p99_ms": (percentile(reads, 99) * 1e3, "ms"),
            "write_p99_ms": (percentile(writes, 99) * 1e3, "ms"),
            "logical_reads_per_op": (logical, "reads/op"),
            "window_recall": (_mean(recall["window"]), "fraction"),
            "knn_recall": (_mean(recall["knn"]), "fraction"),
            "ok_fraction": ((self.attempted - self.failed) / max(self.attempted, 1), "fraction"),
            "setup_s": (statistics.median(sum(p.values()) for p in self.setup_phases), "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
            "recover_s": (statistics.median(self.recover_samples), "s"),
        }
        return {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()}

    def result_line(self, metrics: dict) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": metrics,
        }


def rounds_for(seconds: float, round_seconds: float) -> int:
    """Rounds a run of ``--seconds`` plays: as many as fill ``seconds`` at
    the reference host's ``round_seconds`` per round (:class:`Run` raises it
    to at least ``MIN_ROUNDS``)."""
    return round(seconds / round_seconds)


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 1.0


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile as the median over consecutive blocks of
    ``LATENCY_BLOCK`` calls of each block's percentile.

    Every block holds at least ten samples beyond its 99th percentile, and a
    slow stretch of the run moves only the blocks it covers.  With fewer
    than two blocks, the percentile of all samples.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        return 0.0
    blocks = samples.size // LATENCY_BLOCK
    if blocks < 2:
        return float(np.percentile(samples, q))
    return float(np.median([
        np.percentile(samples[i * LATENCY_BLOCK:(i + 1) * LATENCY_BLOCK], q) for i in range(blocks)
    ]))


def tree_peak_rss_mb() -> float:
    """Peak resident memory of this process plus every live descendant (MB)."""
    total_kb = 0
    pending = [os.getpid()]
    seen = set()
    while pending:
        pid = pending.pop()
        if pid in seen:
            continue
        seen.add(pid)
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
            for task in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{task}/children") as children:
                    pending.extend(int(child) for child in children.read().split())
        except (FileNotFoundError, ProcessLookupError, PermissionError):
            continue  # the process ended while we looked
    return total_kb / 1024.0
