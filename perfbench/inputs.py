"""Seeded inputs owned by the benchmark.

Data sets and operation streams are generated here rather than through
``repro.datasets`` or ``repro.workloads``, so a change to the program's own
generators cannot change the traffic the benchmark offers.  The aggregate
attribute column is re-derived here too: the oracle must not share code
with the answers it checks.
"""

from __future__ import annotations

import numpy as np

#: every workload's data set is drawn from this fixed seed; ``--seed`` draws
#: only the operation streams, so seeds vary the traffic over one data set
DATA_SEED = 2020
#: cities in the osm-like layout
N_CLUSTERS = 60
#: the key of the program's fixed aggregate attribute column
#: (``AggregateSpec.attribute_seed``'s default); the oracle is right only
#: while the two agree
ATTRIBUTE_SEED = 0

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_ATTRIBUTE_BITS = 20


def _dedupe(draw, n: int, rng: np.random.Generator) -> np.ndarray:
    """Exactly ``n`` distinct points from repeated ``draw(m)`` calls."""
    points = np.unique(draw(n), axis=0)
    while points.shape[0] < n:
        points = np.unique(np.vstack([points, draw(n - points.shape[0] + 16)]), axis=0)
    return points[rng.permutation(points.shape[0])[:n]]


def skewed_points(n: int, rng: np.random.Generator) -> np.ndarray:
    """The paper's ``skewed`` set: uniform x, y = u**4 (mass near y = 0)."""

    def draw(m: int) -> np.ndarray:
        points = rng.random((m, 2))
        points[:, 1] **= 4
        return points

    return _dedupe(draw, n, rng)


def osm_like_points(n: int, rng: np.random.Generator) -> np.ndarray:
    """City clusters with heavy-tailed sizes plus 10% uniform background.

    The city layout (centres, sizes, spreads) is the same for every seed;
    ``rng`` only draws the points, so seeds vary the sample and not the map.
    """
    layout = np.random.default_rng(0)
    centers = layout.random((N_CLUSTERS, 2))
    weights = layout.pareto(1.1, size=N_CLUSTERS) + 0.2
    weights /= weights.sum()
    spreads = layout.uniform(0.002, 0.03, size=N_CLUSTERS)

    def draw(m: int) -> np.ndarray:
        background = max(1, m // 10)
        counts = rng.multinomial(m - background, weights)
        chunks = [
            rng.normal(centers[i], spreads[i], size=(counts[i], 2))
            for i in range(N_CLUSTERS)
            if counts[i]
        ]
        chunks.append(rng.random((background, 2)))
        return np.clip(np.vstack(chunks), 0.0, 1.0)

    return _dedupe(draw, n, rng)


def attribute_values(points: np.ndarray) -> np.ndarray:
    """The aggregate attribute of each point: a keyed SplitMix64 mix of the
    coordinate bit patterns, quantised to multiples of 2**-20 in [0, 1)."""
    pts = np.ascontiguousarray(np.asarray(points, dtype=np.float64).reshape(-1, 2))
    if pts.shape[0] == 0:
        return np.empty(0, dtype=np.float64)

    def mix(z):
        z = (z ^ (z >> np.uint64(30))) * _MIX_1
        z = (z ^ (z >> np.uint64(27))) * _MIX_2
        return z ^ (z >> np.uint64(31))

    with np.errstate(over="ignore"):
        key = np.uint64(np.uint64(ATTRIBUTE_SEED) * _GOLDEN)
        bits_x = np.ascontiguousarray(pts[:, 0]).view(np.uint64)
        bits_y = np.ascontiguousarray(pts[:, 1]).view(np.uint64)
        mixed = mix(mix(bits_x ^ key) ^ bits_y)
    return (mixed >> np.uint64(64 - _ATTRIBUTE_BITS)).astype(np.float64) / float(
        1 << _ATTRIBUTE_BITS
    )


def square(center, side: float):
    """``(xlo, ylo, xhi, yhi)`` of the axis-aligned square around ``center``."""
    half = side / 2.0
    x, y = float(center[0]), float(center[1])
    return (x - half, y - half, x + half, y + half)


def kind_sequence(shares: dict, total: int, rng: np.random.Generator) -> list:
    """A shuffled list with exactly ``total * share / sum(shares)`` of each kind
    (largest remainders), so every round holds the same multiset of kinds."""
    weight = sum(shares.values())
    exact = {kind: total * share / weight for kind, share in shares.items()}
    counts = {kind: int(value) for kind, value in exact.items()}
    short = total - sum(counts.values())
    for kind in sorted(exact, key=lambda k: counts[k] - exact[k])[:short]:
        counts[kind] += 1
    kinds = [kind for kind in shares for _ in range(counts[kind])]
    return [kinds[i] for i in rng.permutation(len(kinds))]
