"""serve-sharded: small requests to process-pool shards of an exact index.

``ParallelShardEngine`` over a ``ServingSpec`` of 4 ``grid`` shards of KDB
(B=50) on 40,000 osm-like points, served by 2 spawned worker processes.
Each shard has a private LRU cache of 2,048 pages, more than the largest
shard's pages, and the warm-up reads every page, so reads never miss (the
fits-in-cache case).  A round is 80 ``execute()`` requests of 16 ops of one
kind (point 32, window 24, kNN 8, aggregate 16 requests) interleaved with
320 single-op writes (insert 160, delete of a live point 160): 20% of ops
are writes.  Windows have side 0.01; a quarter of them are centred on a
shard boundary so they span two or four shards.

A fast exact index behind tiny requests makes routing, pickling, worker
round trips and the parent-side merge the dominant cost; RSMI, the WAL and
the pool are bypassed, and exactness makes every answer checkable exactly.

With ``--trace 1`` every op also runs through an in-process
``ShardedBatchEngine`` over a spec-identical index (worker processes cannot
be traced from the parent); its answers must equal the workers', and the
time difference is the serving overhead.  ``recover_s`` times a restart
of the worker tier: a new engine over a spec of the live points, spawn and
shard builds included.  The tier keeps no durable state, so there is no
lost write to look for; the restart is timed, not checked.
"""

from __future__ import annotations

import os
import time

import numpy as np

from perfbench import ops
from perfbench.harness import RECOVERIES, WRITE_KINDS
from perfbench.inputs import DATA_SEED, kind_sequence, osm_like_points
from perfbench.oracle import LivePoints

N_POINTS = 40_000
BLOCK_CAPACITY = 50
SHARDS = 4
WORKERS = 2
CACHE_PAGES = 2_048
REQUEST_OPS = 16
CALLS = {"point": 32, "window": 24, "knn": 8, "aggregate": 16, "insert": 160, "delete": 160}
WINDOW_SIDE = 0.01
BOUNDARY_SHARE = 0.25
ABSENT_SHARE = 0.1
INSERT_JITTER = 0.005
#: wall time of one round on the reference host (sets the round count)
ROUND_SECONDS = 0.4


class Workload:
    name = "serve-sharded"
    exact = True

    def __init__(self, run, seed: int, workdir, scale: float = 1.0):
        self.run = run
        self.seed = seed
        self.n_points = max(int(N_POINTS * scale), 2_000)
        self.points = osm_like_points(self.n_points, np.random.default_rng([DATA_SEED, 31]))
        self.live = LivePoints(self.points)
        self.calls_per_round = max(int(sum(CALLS.values()) * scale), 40)
        self.engine = None
        self.mirror = None
        self.mirror_seconds = {True: 0.0, False: 0.0}
        self.parallel_seconds = {True: 0.0, False: 0.0}
        self.mirror_ops = {True: 0, False: 0}
        self.shape: dict = {}
        self.counters: dict = {}
        if os.cpu_count() and os.cpu_count() != WORKERS:
            run.notes.append(f"serve-sharded: {WORKERS} workers on {os.cpu_count()} CPUs")

    def _factory(self):
        from repro.sharding import shard_index_factory

        return shard_index_factory("KDB", block_capacity=BLOCK_CAPACITY)

    def _spec(self, points):
        from repro.serving import ServingSpec

        return ServingSpec.from_points(self._factory(), points, n_shards=SHARDS,
                                       policy="grid", cache_blocks=CACHE_PAGES)

    def _start(self, spec):
        from repro.serving import ParallelShardEngine

        return ParallelShardEngine(spec, n_workers=WORKERS, start_method="spawn")

    # -- keys ----------------------------------------------------------------------

    def _live_key(self, rng) -> tuple:
        return self.live.point(int(rng.integers(0, len(self.live))))

    def _fresh_key(self, rng) -> tuple:
        while True:
            x, y = np.clip(np.asarray(self._live_key(rng)) + rng.normal(0, INSERT_JITTER, 2), 0, 1)
            if (float(x), float(y)) not in self.live:
                return (float(x), float(y))

    def _read_call(self, kind: str, rng, start: int) -> ops.ReadCall:
        centers = np.asarray([self._live_key(rng) for _ in range(REQUEST_OPS)])
        if kind in ("window", "aggregate"):
            on_boundary = rng.random(REQUEST_OPS) < BOUNDARY_SHARE
            axis = rng.integers(0, 2, REQUEST_OPS)
            centers[on_boundary, axis[on_boundary]] = 0.5
        params = ops.read_params(kind, REQUEST_OPS, centers, rng, WINDOW_SIDE, start)
        if kind == "point":
            for j in np.nonzero(rng.random(REQUEST_OPS) < ABSENT_SHARE)[0]:
                params[j] = self._fresh_key(rng)
        return ops.ReadCall(kind, params)

    # -- set-up --------------------------------------------------------------------

    def setup(self) -> dict:
        from repro.analytics import QueryRequest
        from repro.geometry import Rect

        self.close()
        started = time.perf_counter()
        spec = self._spec(self.points)
        built = time.perf_counter()
        engine = self._start(spec)
        spawned = time.perf_counter()
        # one whole-space window reads every page of every shard into its cache
        engine.execute(QueryRequest.for_windows([Rect(0.0, 0.0, 1.0, 1.0)]))
        rng = np.random.default_rng([self.seed, 32])
        for i, kind in enumerate(("point", "window", "knn", "aggregate")):
            engine.execute(self._read_call(kind, rng, i).request)
        key = self._fresh_key(rng)  # one write of each kind; the point set is unchanged
        engine.insert(*key)
        engine.delete(*key)
        engine.pop_write_accesses()  # the rounds count their own writes' reads
        warmed = time.perf_counter()
        self.engine, self.spec = engine, spec
        return {"build": built - started, "worker_start": spawned - built, "warmup": warmed - spawned}

    def start_mirror(self) -> None:
        """The traced run's in-process twin of the worker tier."""
        from repro.analytics import QueryRequest
        from repro.geometry import Rect
        from repro.sharding import ShardedBatchEngine

        self.mirror = ShardedBatchEngine(self.spec.build_index())
        self.mirror.execute(QueryRequest.for_windows([Rect(0.0, 0.0, 1.0, 1.0)]))

    # -- rounds --------------------------------------------------------------------

    def play_round(self, index: int, traced: bool) -> None:
        run = self.run
        if run.tracer is not None and self.mirror is None:
            self.start_mirror()
        rng = np.random.default_rng([self.seed, 33, index])
        live = self.live.copy()
        plan = []
        for position, kind in enumerate(kind_sequence(CALLS, self.calls_per_round, rng)):
            if kind == "insert":
                key = self._fresh_key(rng)
                self.live.add(*key)
            elif kind == "delete":
                key = self._live_key(rng)
                self.live.remove(*key)
            else:
                key = self._read_call(kind, rng, position)
            plan.append((kind, key))
        results = run.play(plan, self.engine.execute, self.engine.insert, self.engine.delete)
        run.reads(*self.engine.pop_write_accesses())
        self.parallel_seconds[traced] += run.log.seconds()
        differ = self._mirror_round(plan, results, traced) if self.mirror is not None else None
        self.live = live
        ops.judge_plan(run, plan, results, self.live, self.exact, differ)
        if traced and not self.shape:
            self.shape = {"overflow_blocks": 0, "max_chain_depth": 0}

    def _mirror_round(self, plan: list, results: list, traced: bool) -> list:
        """Replay the round on the in-process twin; returns, per call, the
        number of ops whose answer or write outcome differs from the workers'."""
        run = self.run
        twin_index = self.mirror.index
        started = time.perf_counter()
        twins = [
            run.untimed("mirror", twin_index.insert if kind == "insert" else twin_index.delete, *payload)
            if kind in WRITE_KINDS else run.untimed("mirror", self.mirror.execute, payload.request)
            for kind, payload in plan
        ]
        self.mirror_seconds[traced] += time.perf_counter() - started
        differ = []
        for (kind, payload), (result, raised), (twin, twin_raised) in zip(plan, results, twins):
            self.mirror_ops[traced] += 1 if kind in WRITE_KINDS else payload.n_ops
            if raised or twin_raised:
                differ.append(int(raised != twin_raised))
            elif kind in WRITE_KINDS:
                differ.append(int(kind == "delete" and result is not twin))
            else:
                differ.append(sum(
                    ops.normalized(kind, a) != ops.normalized(kind, b)
                    for a, b in zip(result.values, twin.values)
                ))
        return differ

    def finish_rounds(self) -> None:
        """Serving overhead per op: worker-tier time minus in-process time
        for the same untraced ops."""
        if self.mirror is not None and self.mirror_ops[False]:
            self.counters["serving_overhead_s_per_op"] = (
                self.parallel_seconds[False] - self.mirror_seconds[False]
            ) / self.mirror_ops[False]
            self.counters["mirror_ops"] = self.mirror_ops[True]

    # -- recovery ------------------------------------------------------------------

    def recover(self) -> None:
        run = self.run
        self.close()
        for _ in range(RECOVERIES):
            self.engine = run.timed_recovery(
                lambda: self._start(self._spec(self.live.array().copy())))
            self.close()

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
        self.engine = None
