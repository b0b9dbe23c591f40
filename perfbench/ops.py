"""Read operations: seeded parameters, the program's request objects, checks.

A :class:`ReadCall` is one ``execute()`` call of one kind.  It keeps the
plain parameters the oracle needs next to the ``QueryRequest`` it sends, so
building requests stays outside the timed region.
"""

from __future__ import annotations

import numpy as np

from perfbench import oracle
from perfbench.inputs import square

K = 10
AGGREGATE_OPS = ("count", "sum", "quantile", "top-k")
QUANTILE = 0.5


class ReadCall:
    __slots__ = ("kind", "params", "request")

    def __init__(self, kind: str, params: list):
        from repro.analytics import AggregateSpec, QueryRequest
        from repro.geometry import Rect

        self.kind = kind
        self.params = params
        if kind == "point":
            self.request = QueryRequest.for_points(np.asarray(params, dtype=float))
        elif kind == "knn":
            self.request = QueryRequest.for_knn(np.asarray(params, dtype=float), K)
        elif kind == "window":
            self.request = QueryRequest.for_windows([Rect(*rect) for rect in params])
        else:
            self.request = QueryRequest.for_aggregates(
                [AggregateSpec(op, Rect(*rect), q=QUANTILE, k=K) for op, rect in params]
            )

    @property
    def n_ops(self) -> int:
        return len(self.params)


def read_params(kind: str, n: int, centers, rng: np.random.Generator, side: float, start: int = 0):
    """Parameters of ``n`` ops of ``kind`` around the given ``(n, 2)`` centers.

    Point keys are the centers themselves (callers mix in absent keys);
    kNN centers are jittered so they rarely coincide with a stored point;
    aggregate ops cycle through :data:`AGGREGATE_OPS` starting at ``start``.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    if kind == "point":
        return [(float(x), float(y)) for x, y in centers]
    if kind == "knn":
        jittered = centers + rng.normal(0.0, 0.001, size=centers.shape)
        return [(float(x), float(y)) for x, y in jittered]
    rects = [square(center, side) for center in centers]
    if kind == "window":
        return rects
    return [(AGGREGATE_OPS[(start + i) % len(AGGREGATE_OPS)], rect) for i, rect in enumerate(rects)]


def check(call: ReadCall, values: list, live: oracle.LivePoints, exact: bool):
    """``(n_bad, recalls)`` of one call's answers."""
    bad = 0
    recalls = []
    if len(values) != call.n_ops:
        return call.n_ops, recalls
    for params, value in zip(call.params, values):
        if call.kind == "point":
            ok, recall = oracle.check_point(value, params, live)
        elif call.kind == "window":
            ok, recall = oracle.check_window(value, params, live, exact)
        elif call.kind == "knn":
            ok, recall = oracle.check_knn(value, params, K, live, exact)
        else:
            op, rect = params
            ok, recall = oracle.check_aggregate(value, op, rect, QUANTILE, K, live, exact)
        if recall is not None:
            recalls.append(recall)
        bad += not ok
    return bad, recalls


def rows_returned(kind: str, values: list) -> int:
    """Rows an answer hands back: found points, result points, or points an
    aggregate folded (the numerator of the scan-utilisation ratio)."""
    if kind == "point":
        return sum(bool(v) for v in values)
    if kind in ("window", "knn"):
        return sum(len(v) for v in values)
    return sum(int(v.count) for v in values)


def judge_plan(run, plan: list, results: list, live: oracle.LivePoints, exact: bool,
               disagreements=None) -> bool:
    """Check a round's answers in call order, replaying its writes on
    ``live`` (the oracle as it was when the round started), and charge
    failures to ``run``.  ``disagreements`` optionally counts, per call, the
    ops a second engine answered differently; they fail too.  Returns True
    when some write failed."""
    write_failed = False
    disagreements = disagreements or [0] * len(plan)
    for (kind, payload), (result, raised), differ in zip(plan, results, disagreements):
        if kind in ("insert", "delete"):
            failed = raised or (kind == "delete" and result is not True) or differ > 0
            write_failed |= failed
            run.judge(1, int(failed))
            if not raised:
                if kind == "insert":
                    live.add(*payload)
                elif result:
                    live.remove(*payload)
            continue
        if raised:
            run.judge(payload.n_ops, payload.n_ops)
            continue
        run.reads(result.access.logical_reads, result.access.physical_reads)
        values = run.maybe_corrupt(kind, result.values)
        bad, recalls = check(payload, values, live, exact)
        run.log.recall.setdefault(kind, []).extend(recalls)
        run.log.rows_returned += rows_returned(kind, values)
        run.judge(payload.n_ops, min(bad + differ, payload.n_ops))
    return write_failed


def normalized(kind: str, value):
    """A comparable form of one answer (for repeat and mirror comparisons)."""
    if kind == "point":
        return bool(value)
    if kind in ("window", "knn"):
        return np.asarray(value, dtype=float).tobytes()
    return (value.count, value.value, value.items, value.max_rank_error)
