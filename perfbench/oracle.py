"""The benchmark's brute-force oracle and answer checks.

Every check returns ``(ok, recall)``.  ``ok`` is False for an unsound
answer (a returned point that is not stored, lies outside the query, or
repeats) and, when the index kind promises exact answers, for any answer
that differs from the brute-force one.  RSMI's window and kNN algorithms are
approximate by design, so for them a missed point lowers ``recall`` and is
not a failure.
"""

from __future__ import annotations

import numpy as np

from perfbench.inputs import attribute_values


class LivePoints:
    """The stored point set: O(1) membership, insert and delete, plus a
    contiguous array view for brute-force scans."""

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        self._array = np.empty((max(16, 2 * points.shape[0]), 2), dtype=float)
        self._array[: points.shape[0]] = points
        self._n = points.shape[0]
        self._row = {(float(x), float(y)): i for i, (x, y) in enumerate(points.tolist())}
        if len(self._row) != self._n:
            raise ValueError("oracle points must be distinct")

    def __len__(self) -> int:
        return self._n

    def copy(self) -> "LivePoints":
        return LivePoints(self.array())

    def __contains__(self, point) -> bool:
        return (float(point[0]), float(point[1])) in self._row

    def array(self) -> np.ndarray:
        return self._array[: self._n]

    def point(self, i: int) -> tuple:
        return (float(self._array[i, 0]), float(self._array[i, 1]))

    def add(self, x: float, y: float) -> None:
        key = (float(x), float(y))
        if key in self._row:
            raise ValueError(f"{key} is already stored")
        if self._n == self._array.shape[0]:
            self._array = np.vstack([self._array, np.empty_like(self._array)])
        self._array[self._n] = key
        self._row[key] = self._n
        self._n += 1

    def remove(self, x: float, y: float) -> None:
        key = (float(x), float(y))
        row = self._row.pop(key)
        last = self._n - 1
        if row != last:
            moved = self.point(last)
            self._array[row] = moved
            self._row[moved] = row
        self._n = last


def _inside(points: np.ndarray, rect) -> np.ndarray:
    xlo, ylo, xhi, yhi = rect
    return (
        (points[:, 0] >= xlo) & (points[:, 0] <= xhi) & (points[:, 1] >= ylo) & (points[:, 1] <= yhi)
    )


def _sound(answer: np.ndarray, live: LivePoints) -> bool:
    """Every returned row is stored and none repeats."""
    rows = [tuple(row) for row in answer.tolist()]
    return len(set(rows)) == len(rows) and all(row in live for row in rows)


def check_point(found, point, live: LivePoints):
    return bool(found) == (point in live), None


def check_window(answer, rect, live: LivePoints, exact: bool):
    answer = np.asarray(answer, dtype=float).reshape(-1, 2)
    truth = int(_inside(live.array(), rect).sum())
    sound = bool(_inside(answer, rect).all()) and _sound(answer, live)
    recall = answer.shape[0] / truth if truth else 1.0
    ok = sound and (not exact or answer.shape[0] == truth)
    return ok, (recall if sound else 0.0)


def _distances(points: np.ndarray, query) -> np.ndarray:
    return np.sqrt((points[:, 0] - query[0]) ** 2 + (points[:, 1] - query[1]) ** 2)


def check_knn(answer, query, k: int, live: LivePoints, exact: bool):
    answer = np.asarray(answer, dtype=float).reshape(-1, 2)
    wanted = min(k, len(live))
    kth = np.partition(_distances(live.array(), query), wanted - 1)[wanted - 1]
    sound = answer.shape[0] == wanted and _sound(answer, live)
    # ties at the k-th distance make any of the tied points a correct answer
    hits = int((_distances(answer, query) <= kth * (1 + 1e-12)).sum())
    recall = hits / wanted if sound else 0.0
    return sound and (not exact or hits == wanted), recall


def _rank_distance(value: float, sorted_values: np.ndarray, q: float) -> int:
    target = int(round(q * (sorted_values.size - 1)))
    left = int(np.searchsorted(sorted_values, value, side="left"))
    right = int(np.searchsorted(sorted_values, value, side="right")) - 1
    if left <= target <= right:
        return 0
    return min(abs(left - target), abs(right - target))


def check_aggregate(outcome, op: str, rect, q: float, k: int, live: LivePoints, exact: bool):
    """Check one aggregate outcome against the window's true point set.

    An approximate index may fold a subset of the window; its answer must
    then be consistent with *some* subset (sound), and must be exact
    whenever it saw every point of the window.
    """
    inside = live.array()[_inside(live.array(), rect)]
    values = attribute_values(inside)
    count = int(outcome.count)
    if not 0 <= count <= inside.shape[0] or (exact and count != inside.shape[0]):
        return False, None
    complete = count == inside.shape[0]
    if op == "count":
        return outcome.value == count, None
    if op == "sum":
        if complete:
            return outcome.value == float(values.sum()), None
        return 0.0 <= outcome.value <= float(values.sum()), None
    if op == "mean":
        if count == 0:
            return outcome.value == 0.0, None
        if complete:
            return outcome.value == float(values.sum()) / count, None
        return float(values.min()) <= outcome.value <= float(values.max()), None
    if op == "quantile":
        if count == 0:
            return outcome.value is None, None
        ordered = np.sort(values)
        position = np.searchsorted(ordered, outcome.value)
        if position >= ordered.size or ordered[position] != outcome.value:
            return False, None
        if complete:
            return _rank_distance(outcome.value, ordered, q) <= outcome.max_rank_error, None
        return True, None
    # top-k: (value, x, y) rows, best first with ties broken by (x, y)
    items = [tuple(map(float, item)) for item in outcome.items]
    if complete:
        order = np.lexsort((inside[:, 1], inside[:, 0], -values))[:k]
        expected = [(float(values[i]), float(inside[i, 0]), float(inside[i, 1])) for i in order]
        return items == expected, None
    if len(items) != min(k, count) or items != sorted(items, key=lambda r: (-r[0], r[1], r[2])):
        return False, None
    for value, x, y in items:
        if not ((x, y) in live and _inside(np.array([[x, y]]), rect)[0]):
            return False, None
        if attribute_values(np.array([[x, y]]))[0] != value:
            return False, None
    return True, None
