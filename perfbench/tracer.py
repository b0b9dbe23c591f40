"""Spans and counts taken at the program's layer seams, from outside.

:class:`Tracer` replaces public functions of ``repro`` (and the few standard
library calls the durable and serving tiers make: ``os.fsync``, the process
pool's ``submit`` and ``Future.result``) with timing wrappers for the
duration of one traced round, and puts the originals back afterwards, so
untraced rounds run the unmodified program.  Only functions called once per
operation, block, model invocation or WAL record are wrapped; no per-slot
loop is.

A span records its name, start, end, busy time, parent span, round, the
call category the harness set (``read``, ``write``, ``mirror``,
``recover``, ``setup``) and the id of the call it belongs to, which all
spans of one call share.  Generator seams (block-chain scans) are one span
whose busy time is the sum of its steps.  A span's self time is its busy
time minus the busy time of its direct children.  Spans stay in memory and
are folded into the per-layer ledger when the run ends.
"""

from __future__ import annotations

import functools
import os
import pickle
import time
from collections import Counter, defaultdict

_NAME, _START, _END, _BUSY, _PARENT, _ROUND, _CATEGORY, _STEP, _REQUEST = range(9)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        #: the latest value of a sampled quantity, per round
        self.latest: dict[int, dict] = defaultdict(dict)
        self.round = -1
        self.category = "setup"
        #: id shared by the spans of one call into the program
        self.request = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- span bookkeeping ------------------------------------------------------

    def _open(self, name: str) -> int:
        now = time.perf_counter()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [name, now, now, 0.0, parent, self.round, self.category, now, self.request]
        )
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _resume(self, index: int) -> None:
        self.spans[index][_STEP] = time.perf_counter()
        self._stack.append(index)

    def _close(self, index: int) -> None:
        now = time.perf_counter()
        span = self.spans[index]
        span[_END] = now
        span[_BUSY] += now - span[_STEP]
        self._stack.pop()

    def count(self, key: str, amount=1) -> None:
        self.counts[self.round][key] += amount

    # -- installing wrappers ---------------------------------------------------

    def _wrap(self, fn, name, before, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(tracer, args) if before else None
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if after:
                after(tracer, args, result, token)
            return result

        return wrapper

    def _wrap_generator(self, fn, name, before, after):
        tracer = self

        def steps(gen):
            index = tracer._open(name)
            while True:
                try:
                    item = next(gen)
                except StopIteration:
                    tracer._close(index)
                    return
                except BaseException:
                    tracer._close(index)
                    raise
                tracer._close(index)
                if after:
                    after(tracer, None, item, None)
                yield item
                tracer._resume(index)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before:
                before(tracer, args)
            return steps(fn(*args, **kwargs))

        return wrapper

    def install(self) -> None:
        """Wrap every seam of :func:`seams` (idempotent per traced round)."""
        if self._saved:
            return
        for owner, attr, name, options in seams():
            raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr)
            fn = getattr(owner, attr) if raw is None else raw
            is_classmethod = isinstance(fn, classmethod)
            if is_classmethod:
                fn = fn.__func__
            make = self._wrap_generator if options.get("generator") else self._wrap
            wrapped = make(fn, name, options.get("before"), options.get("after"))
            setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
            self._saved.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._saved = []
        self._stack = []

    # -- folding ---------------------------------------------------------------

    def fold(self, rounds=None):
        """``(busy, self_time, calls)`` per ``(name, category)`` over ``rounds``
        (all rounds when None)."""
        child_busy = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child_busy[span[_PARENT]] += span[_BUSY]
        busy, self_time, calls = Counter(), Counter(), Counter()
        for index, span in enumerate(self.spans):
            if rounds is not None and span[_ROUND] not in rounds:
                continue
            key = (span[_NAME], span[_CATEGORY])
            busy[key] += span[_BUSY]
            self_time[key] += span[_BUSY] - child_busy[index]
            calls[key] += 1
        return busy, self_time, calls

    def under(self, name: str, parents: tuple, rounds) -> list:
        """Spans called ``name`` whose direct parent is one of ``parents``."""
        spans = self.spans
        return [
            span for span in spans
            if span[_NAME] == name and span[_ROUND] in rounds and span[_PARENT] >= 0
            and spans[span[_PARENT]][_NAME] in parents
        ]

    def outermost_calls(self, name: str, rounds) -> Counter:
        """Calls of ``name`` per category whose parent is not ``name`` itself."""
        out = Counter()
        for span in self.spans:
            if span[_NAME] != name or span[_ROUND] not in rounds:
                continue
            parent = span[_PARENT]
            if parent < 0 or self.spans[parent][_NAME] != name:
                out[span[_CATEGORY]] += 1
        return out


# -- the seams -----------------------------------------------------------------


def _count_chain(tracer, args):
    """Block chains the engine itself loads (its batch-shared scans), not
    the ones an index algorithm below it walks."""
    if tracer._stack and tracer.spans[tracer._stack[-1]][_NAME] == "engine.execute":
        tracer.count("chains_loaded")


def _count_rows(tracer, args, block, token):
    tracer.count(f"rows_scanned.{tracer.category}", len(block))


def _count_expansions(tracer, args, result, token):
    tracer.count("knn_region_scans", getattr(result, "expansions", 0))


def _count_window_shards(tracer, args, result, token):
    if tracer.category == "read":
        tracer.count("window_routes")
        tracer.count("window_shards", len(result))


def _count_knn_shard(tracer, args, result, token):
    if tracer.category == "mirror":
        tracer.count("knn_shard_calls")


def _count_blockfile_write(tracer, args, result, token):
    tracer.count(f"blockfile_bytes.{tracer.category}", args[0].record_size)


def _wal_size(tracer, args):
    return args[0].n_bytes


def _count_wal_bytes(tracer, args, result, token):
    tracer.count(f"wal_bytes.{tracer.category}", args[0].n_bytes - token)


def _count_checkpoint(tracer, args, path, token):
    tracer.count("checkpoints")
    tracer.latest[tracer.round]["checkpoint_bytes"] = os.path.getsize(path)


def _count_submit(tracer, args, future, token):
    fn, rest = args[1], args[2:]
    tracer.count(f"submits.{tracer.category}")
    tracer.count(f"bytes_sent.{tracer.category}", len(pickle.dumps((fn, rest))))
    future.perfbench_traced = True


def _count_received(tracer, args, result, token):
    future = args[0]
    if getattr(future, "perfbench_traced", False):
        future.perfbench_traced = False
        tracer.count(f"bytes_received.{tracer.category}", len(pickle.dumps(result)))


def seams() -> list:
    """``(owner, attribute, span name, options)`` for every wrapped seam.

    The span name's prefix before the first dot is the layer the time is
    charged to.
    """
    from concurrent.futures import Future, ProcessPoolExecutor

    import repro.core.persistence as persistence
    import repro.engine.engine as engine_module
    from repro.analytics.ops import AggregateSpec
    from repro.analytics.partials import CountSumPartial, QuantileSummary, TopKPartial
    from repro.baselines.kdb_tree import KDBTree
    from repro.core.rsmi import RSMI
    from repro.nn.mlp import MLPRegressor
    from repro.serving.engine import ParallelShardEngine
    from repro.sharding.engine import ShardedBatchEngine
    from repro.sharding.router import ShardRouter
    from repro.storage.block import Block
    from repro.storage.block_file import BlockFile
    from repro.storage.block_store import BlockStore
    from repro.storage.buffer_pool import PoolClient
    from repro.storage.durability import DurableIndex
    from repro.storage.page_cache import PageCache
    from repro.storage.wal import WriteAheadLog

    plain: dict = {}
    return [
        (engine_module.BatchQueryEngine, "execute", "engine.execute", plain),
        (ShardedBatchEngine, "execute", "sharding.execute", plain),
        (ParallelShardEngine, "execute", "serving.execute", plain),
        (ParallelShardEngine, "insert", "serving.write", plain),
        (ParallelShardEngine, "delete", "serving.write", plain),
        (ProcessPoolExecutor, "submit", "serving.submit", {"after": _count_submit}),
        (Future, "result", "serving.wait", {"after": _count_received}),
        (RSMI, "route_to_leaf", "core.route", plain),
        (engine_module, "route_batch", "core.route", plain),
        (RSMI, "knn_query", "core.knn", {"after": _count_expansions}),
        (RSMI, "insert", "core.write", plain),
        (RSMI, "delete", "core.write", plain),
        (MLPRegressor, "predict", "nn.forward", plain),
        (MLPRegressor, "train_batch", "nn.train", plain),
        (AggregateSpec, "fold", "analytics.fold", plain),
        (CountSumPartial, "merge", "analytics.merge", plain),
        (QuantileSummary, "merge", "analytics.merge", plain),
        (TopKPartial, "merge", "analytics.merge", plain),
        (BlockStore, "iter_chain", "storage.scan",
         {"generator": True, "before": _count_chain, "after": _count_rows}),
        (Block, "contains", "storage.scan", plain),
        (PoolClient, "access", "storage.cache", plain),
        (PageCache, "access", "storage.cache", plain),
        (BlockFile, "read_block", "storage.disk_read", plain),
        (BlockFile, "write_block", "storage.disk_write", {"after": _count_blockfile_write}),
        (WriteAheadLog, "append", "storage.wal_append",
         {"before": _wal_size, "after": _count_wal_bytes}),
        (WriteAheadLog, "flush", "storage.wal_flush", plain),
        (os, "fsync", "storage.fsync", plain),
        (DurableIndex, "insert", "storage.durable_write", plain),
        (DurableIndex, "delete", "storage.durable_write", plain),
        (DurableIndex, "checkpoint", "storage.checkpoint", {"after": _count_checkpoint}),
        (DurableIndex, "recover", "storage.recover", plain),
        (persistence, "load_index", "storage.recovery_load", plain),
        (ShardRouter, "shards_for_points", "sharding.route", plain),
        (ShardRouter, "shards_for_window", "sharding.route", {"after": _count_window_shards}),
        (ShardRouter, "shard_for_point", "sharding.route", plain),
        (ShardRouter, "record_insert", "sharding.route", plain),
        (ShardRouter, "knn_shard_order", "sharding.route", {"generator": True}),
        (KDBTree, "contains", "sharding.shard_work", plain),
        (KDBTree, "window_query", "sharding.shard_work", plain),
        (KDBTree, "knn_query", "sharding.shard_work", {"after": _count_knn_shard}),
        (KDBTree, "insert", "sharding.shard_work", plain),
        (KDBTree, "delete", "sharding.shard_work", plain),
    ]
