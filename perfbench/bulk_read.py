"""bulk-read: large batches over an in-memory RSMI.

RSMI (B=50, Hilbert curve) over 50,000 ``skewed`` points, no cache, no
disk.  A round is ten ``execute()`` calls of 256 ops of one kind (shares
point 40, window 30, kNN 10, aggregate 20; windows cover 0.04% of the unit
square; kNN k=10; aggregates cycle count/sum/quantile/top-k), followed by
128 single-call inserts of fresh points and 128 deletes of the same points,
so every round starts from the same point set and offers the same work.

Large batches let the vectorised point/window/aggregate paths read each
block once per batch; model inference, block scans, aggregate folds and the
per-query kNN fallback do the work, while the pool, WAL, disk tier, router
and IPC are bypassed.  The write phase times the in-memory update path, the
counterpart of churn-durable's durable one.  Recovery is a cold start: load
the checkpoint written after set-up and attach an engine.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from perfbench import ops
from perfbench.harness import RECOVERIES
from perfbench.inputs import DATA_SEED, kind_sequence, skewed_points
from perfbench.oracle import LivePoints

N_POINTS = 50_000
BLOCK_CAPACITY = 50
BATCH = 256
SHARES = {"point": 40, "window": 30, "knn": 10, "aggregate": 20}
BATCHES_PER_ROUND = 10
WINDOW_SIDE = 0.02  # 0.04% of the unit square
WRITES_PER_ROUND = 128
#: wall time of one round on the reference host (sets the round count)
ROUND_SECONDS = 1.0
ABSENT_SHARE = 0.1  # point keys that are not stored


class Workload:
    name = "bulk-read"
    exact = False

    def __init__(self, run, seed: int, workdir, scale: float = 1.0):
        self.run = run
        self.workdir = workdir
        self.n_points = max(int(N_POINTS * scale), 2_000)
        self.batch = max(int(BATCH * scale), 16)
        self.points = skewed_points(self.n_points, np.random.default_rng([DATA_SEED, 11]))
        rng = np.random.default_rng([seed, 12])
        self.live = LivePoints(self.points)
        self.calls = []
        for i, kind in enumerate(kind_sequence(SHARES, BATCHES_PER_ROUND, rng)):
            centers = self.points[rng.integers(0, self.n_points, self.batch)]
            params = ops.read_params(kind, self.batch, centers, rng, WINDOW_SIDE, start=i)
            if kind == "point":
                absent = rng.random(self.batch) < ABSENT_SHARE
                for j in np.nonzero(absent)[0]:
                    params[j] = (float(rng.random()), float(rng.random() ** 4))
            self.calls.append(ops.ReadCall(kind, params))
        fresh = skewed_points(WRITES_PER_ROUND * 2, rng)
        fresh = [tuple(p) for p in fresh.tolist() if tuple(p) not in self.live]
        self.fresh = fresh[: max(int(WRITES_PER_ROUND * scale), 16)]
        self.warm_key = fresh[-1]  # the set-up's insert/delete pair
        self.warm_calls = [next(c for c in self.calls if c.kind == kind) for kind in SHARES]
        self.first_answers: list = []
        self.index = None
        self.engine = None
        self.shape: dict = {}
        self.counters: dict = {}

    # -- set-up ------------------------------------------------------------------

    def setup(self) -> dict:
        from repro.core import RSMI, RSMIConfig
        from repro.engine import BatchQueryEngine

        self.index = self.engine = None
        started = time.perf_counter()
        index = RSMI(RSMIConfig(block_capacity=BLOCK_CAPACITY, curve="hilbert")).build(self.points)
        built = time.perf_counter()
        engine = BatchQueryEngine(index)
        for call in self.warm_calls:
            engine.execute(call.request)
        index.insert(*self.warm_key)
        index.delete(*self.warm_key)
        warmed = time.perf_counter()
        self.index, self.engine = index, engine
        return {"build": built - started, "warmup": warmed - built}

    # -- rounds ------------------------------------------------------------------

    def play_round(self, index: int, traced: bool) -> None:
        run = self.run
        rsmi = self.index
        plan = [(call.kind, call) for call in self.calls]
        results = run.play(plan, self.engine.execute, rsmi.insert, rsmi.delete, rsmi.stats)
        # the read batches leave a different amount of garbage for every
        # seed; collecting it here puts the writes' collector pauses on the
        # same writes in every run
        gc.collect()
        writes = [(kind, key) for kind in ("insert", "delete") for key in self.fresh]
        plan += writes
        results += run.play(writes, self.engine.execute, rsmi.insert, rsmi.delete, rsmi.stats)
        for position, (call, (result, raised)) in enumerate(zip(self.calls, results)):
            if raised:
                run.judge(call.n_ops, call.n_ops)
                if index == 0:
                    self.first_answers.append([None] * call.n_ops)
                continue
            run.reads(result.access.logical_reads, result.access.physical_reads)
            self._judge_read(index, position, call, run.maybe_corrupt(call.kind, result.values))
        for (kind, _), (outcome, raised) in zip(plan[len(self.calls):], results[len(self.calls):]):
            run.judge(1, int(raised or (kind == "delete" and outcome is not True)))
        run.judge(1, int(rsmi.n_points != self.n_points))
        if traced and not self.shape:
            self.shape = self.storage_shape()

    def _judge_read(self, round_index: int, position: int, call, values) -> None:
        """Round 0 is checked against the oracle; later rounds must repeat
        round 0's answers, and any answer that differs is checked afresh."""
        run = self.run
        if round_index == 0:
            bad, recalls = ops.check(call, values, self.live, self.exact)
            run.log.recall.setdefault(call.kind, []).extend(recalls)
            self.first_answers.append([ops.normalized(call.kind, v) for v in values])
        else:
            expected = self.first_answers[position]
            changed = [i for i, v in enumerate(values) if ops.normalized(call.kind, v) != expected[i]]
            bad = 0
            if changed:
                subset = ops.ReadCall(call.kind, [call.params[i] for i in changed])
                bad, _ = ops.check(subset, [values[i] for i in changed], self.live, self.exact)
        run.log.rows_returned += ops.rows_returned(call.kind, values)
        run.judge(call.n_ops, bad)

    def storage_shape(self) -> dict:
        store = self.index.store
        return {"overflow_blocks": store.n_overflow_blocks, "max_chain_depth": max(store.chain_depths())}

    # -- recovery ----------------------------------------------------------------

    def recover(self) -> None:
        import repro.core.persistence as persistence

        run = self.run
        path = self.workdir / "bulk-read.idx"
        persistence.save_index(self.index, path)
        probe = self.calls[0]
        expected = self.first_answers[0]
        for _ in range(RECOVERIES):
            self.index = self.engine = None
            index, engine = run.timed_recovery(lambda: self._cold_start(path))
            result, raised = run.untimed("verify", engine.execute, probe.request)
            answers = [] if raised else [ops.normalized(probe.kind, v) for v in result.values]
            run.judge(probe.n_ops, sum(a != b for a, b in zip(answers, expected))
                      + probe.n_ops - len(answers))
            self.index, self.engine = index, engine

    @staticmethod
    def _cold_start(path):
        import repro.core.persistence as persistence
        from repro.engine import BatchQueryEngine

        index = persistence.load_index(path)
        return index, BatchQueryEngine(index)

    def close(self) -> None:
        self.index = self.engine = None
