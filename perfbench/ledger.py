"""The per-layer ledger of a traced run.

Denominators: ``_per_op`` is per operation (reads and writes) of the
traced rounds, ``_per_write`` per insert or delete, ``_per_query`` per kNN
query, ``_per_call`` per read call.  Every ``_s`` metric is self time (a
span's busy time minus that of its traced children) summed over all traced
rounds, so the layers' times add up to the traced calls' time.  Every other
metric is a count taken in the first traced round, which every traced run
plays, so counts repeat exactly at a given seed.  A layer a workload
bypasses reports 0.

In serve-sharded the reads run in worker processes, which the parent cannot
trace; the layers below the front door (sharding work, analytics folds,
index work) are taken from the in-process twin the traced run keeps
(category ``mirror``), while routing, merging and serving are taken on the
real path.
"""

from __future__ import annotations

import statistics
from collections import Counter

from perfbench.harness import READ_KINDS, RECOVERY_ROUND, SETUP_ROUND, WRITE_KINDS

WAL_SEAMS = ("storage.wal_flush", "storage.wal_append")


def per_layer(run, shape: dict, counters: dict) -> dict:
    """``shape`` holds storage facts and ``counters`` pool counters, both
    sampled by the workload over the first traced round, plus the serving
    twin's timings and the recovery record count."""
    tracer = run.tracer
    first = run.first_traced
    traced = [r for r in run.rounds if r.traced]
    rounds = {r.index for r in traced}
    once = {first.index}
    counts = tracer.counts[first.index]
    busy, self_time, _ = tracer.fold(rounds)
    _, _, first_calls = tracer.fold(once)
    recovery_busy, _, recovery_calls = tracer.fold({RECOVERY_ROUND})
    _, setup_self, _ = tracer.fold({SETUP_ROUND})

    serving = "mirror_ops" in counters
    below = ("mirror",) if serving else ("read", "write")
    front = ("read", "write")

    def seconds(table, names, categories):
        names = (names,) if isinstance(names, str) else names
        return sum(v for (n, c), v in table.items() if n in names and c in categories)

    def ratio(a, b):
        return a / b if b else 0.0

    ops = first.ops()
    ops_all = sum(r.ops() for r in traced)
    reads = first.ops(READ_KINDS)
    writes = first.ops(WRITE_KINDS)
    writes_all = sum(r.ops(WRITE_KINDS) for r in traced)
    knn = first.ops(("knn",))
    knn_all = sum(r.ops(("knn",)) for r in traced)
    read_calls = sum(1 for kind, _, _ in first.calls if kind in READ_KINDS)
    rows = counts[f"rows_scanned.{below[0]}"]
    logical = first.logical_reads
    prefetch = counters.get("pool_prefetch_issued", 0)
    demand_physical = first.physical_reads - prefetch
    checkpoints_all = sum(tracer.counts[i]["checkpoints"] for i in rounds)
    recoveries = recovery_calls[("storage.recover", "recover")]
    wal_fsyncs = tracer.under("storage.fsync", WAL_SEAMS, rounds)
    overhead = 1.0 - (
        statistics.median(r.rate() for r in traced)
        / statistics.median(r.rate() for r in run.rounds if not r.traced)
    )
    setup = {
        phase: statistics.median(p.get(phase, 0.0) for p in run.setup_phases)
        for phase in ("build", "durable_attach", "worker_start", "warmup")
    }

    metrics = {
        "core.route_s_per_op": (ratio(seconds(self_time, "core.route", below + front), ops_all), "s/op"),
        "core.knn_s_per_query": (ratio(seconds(self_time, "core.knn", below), knn_all), "s/query"),
        "core.knn_region_scans_per_query": (ratio(counts["knn_region_scans"], knn), "1/query"),
        "core.write_apply_s_per_write": (
            ratio(seconds(self_time, "core.write", ("write",)), writes_all), "s/write"),
        "nn.forward_calls_per_op": (
            ratio(sum(tracer.outermost_calls("nn.forward", once).values()), ops), "1/op"),
        "nn.forward_s_per_op": (ratio(seconds(self_time, "nn.forward", below + front), ops_all), "s/op"),
        "nn.train_s": (seconds(setup_self, "nn.train", ("setup",)), "s"),
        "engine.self_s_per_op": (ratio(seconds(self_time, "engine.execute", front), ops_all), "s/op"),
        "engine.chains_loaded_per_call": (ratio(counts["chains_loaded"], read_calls), "1/call"),
        "analytics.fold_s_per_op": (ratio(seconds(self_time, "analytics.fold", below), ops_all), "s/op"),
        "analytics.merge_s_per_op": (ratio(seconds(self_time, "analytics.merge", front), ops_all), "s/op"),
        "storage.scan_s_per_op": (
            ratio(seconds(self_time, "storage.scan", below + front), ops_all), "s/op"),
        "storage.rows_scanned_per_op": (ratio(rows, reads), "rows/op"),
        "storage.scan_utilisation": (ratio(first.rows_returned, rows), "fraction"),
        "storage.overflow_blocks": (shape.get("overflow_blocks", 0), "blocks"),
        "storage.max_chain_depth": (shape.get("max_chain_depth", 0), "blocks"),
        "storage.pool_hit_ratio": (
            ratio(counters.get("pool_hits", 0),
                  counters.get("pool_hits", 0) + counters.get("pool_misses", 0)), "fraction"),
        "storage.physical_reads_per_op": (ratio(first.physical_reads, ops), "reads/op"),
        "storage.pool_evictions_per_op": (ratio(counters.get("pool_evictions", 0), ops), "1/op"),
        "storage.pool_admission_rejects_per_op": (ratio(counters.get("pool_rejections", 0), ops), "1/op"),
        "storage.prefetch_reads_per_op": (ratio(prefetch, ops), "reads/op"),
        "storage.cache_hit_ratio": (ratio(logical - demand_physical, logical), "fraction"),
        "storage.blockfile_reads_per_op": (
            ratio(sum(first_calls[("storage.disk_read", c)] for c in front), ops), "reads/op"),
        "storage.blockfile_read_s_per_op": (
            ratio(seconds(self_time, "storage.disk_read", front), ops_all), "s/op"),
        "storage.blockfile_bytes_per_write": (ratio(counts["blockfile_bytes.write"], writes), "B/write"),
        "storage.wal_fsyncs_per_write": (
            ratio(sum(1 for span in wal_fsyncs if span[5] == first.index), writes), "1/write"),
        "storage.wal_bytes_per_write": (ratio(counts["wal_bytes.write"], writes), "B/write"),
        "storage.wal_append_s_per_write": (
            ratio(seconds(self_time, WAL_SEAMS, ("write",)), writes_all), "s/write"),
        "storage.wal_fsync_s_per_write": (ratio(sum(span[3] for span in wal_fsyncs), writes_all), "s/write"),
        "storage.checkpoints": (counts["checkpoints"], "count"),
        "storage.checkpoint_s": (
            ratio(seconds(busy, "storage.checkpoint", ("write",)), checkpoints_all), "s"),
        "storage.checkpoint_release_s": (counters.get("checkpoint_release_s", 0.0), "s"),
        "storage.checkpoint_bytes": (tracer.latest[first.index].get("checkpoint_bytes", 0), "B"),
        "storage.disk_bytes_per_point": (shape.get("disk_bytes_per_point", 0.0), "B/point"),
        "storage.recovery_load_s": (
            ratio(recovery_busy[("storage.recovery_load", "recover")],
                  recovery_calls[("storage.recovery_load", "recover")]), "s"),
        "storage.recovery_replay_s": (
            ratio(sum(span[3] for span in tracer.under("core.write", ("storage.recover",),
                                                       {RECOVERY_ROUND})), recoveries), "s"),
        "storage.recovery_records": (counters.get("recovery_records", 0), "records"),
        "sharding.route_s_per_op": (ratio(seconds(self_time, "sharding.route", front), ops_all), "s/op"),
        "sharding.shards_per_window": (ratio(counts["window_shards"], counts["window_routes"]), "shards"),
        "sharding.shards_per_knn": (ratio(counts["knn_shard_calls"], knn), "shards"),
        "sharding.shard_work_s_per_op": (
            ratio(seconds(self_time, "sharding.shard_work", ("mirror",)), counters.get("mirror_ops", 0)),
            "s/op"),
        "serving.overhead_s_per_op": (counters.get("serving_overhead_s_per_op", 0.0), "s/op"),
        "serving.submits_per_op": (ratio(counts["submits.read"] + counts["submits.write"], ops), "1/op"),
        "serving.bytes_sent_per_op": (
            ratio(counts["bytes_sent.read"] + counts["bytes_sent.write"], ops), "B/op"),
        "serving.bytes_received_per_op": (
            ratio(counts["bytes_received.read"] + counts["bytes_received.write"], ops), "B/op"),
        "serving.write_fanout": (ratio(counts["submits.write"], writes) if serving else 0.0, "1/write"),
        "setup.build_s": (setup["build"], "s"),
        "setup.durable_attach_s": (setup["durable_attach"], "s"),
        "setup.worker_start_s": (setup["worker_start"], "s"),
        "setup.warmup_s": (setup["warmup"], "s"),
        "trace.overhead_frac": (overhead, "fraction"),
    }
    run.notes.extend(ledger_lines(self_time, front, "calls"))
    if serving:
        run.notes.extend(ledger_lines(self_time, below, "in-process twin"))
    return {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()}


def ledger_lines(self_time: Counter, categories, label: str) -> list[str]:
    """Self time per layer over the traced rounds, largest first."""
    layers = Counter()
    for (name, category), value in self_time.items():
        if category in categories:
            layers[name.split(".")[0]] += value
    whole = sum(layers.values()) or 1.0
    return [
        f"ledger ({label}): {layer:<9} self {value:9.4f} s  share {value / whole:6.1%}"
        for layer, value in layers.most_common()
    ]
