"""Ranking-rule ablation — Eq. 6 top-k intersection vs midpoint ranking.

DESIGN.md calls out the two-scenario intersection (Eq. 6) as a design
choice: it needs two sorts plus a set intersection where a naive midpoint
ranking needs one sort.  This bench prices that overhead at realistic
pool sizes on the array path the rankers use
(:func:`~repro.core.scoring.intersect_top_k_batch`), against a midpoint
``np.lexsort`` baseline, so the quality benefit (tested in
tests/test_scoring.py) can be weighed against it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.scoring import intersect_top_k_batch

POOL_SIZES = (100, 1000, 5000)
K = 5


def _scores(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(31)
    lows = rng.uniform(0.0, 1.0, n)
    highs = rng.uniform(0.0, 1.0, n)
    return np.arange(n, dtype=np.int64), lows, highs


def rank_by_midpoint(
    charger_ids: np.ndarray, sc_min: np.ndarray, sc_max: np.ndarray, k: int
) -> np.ndarray:
    """The ablation's alternative: one stable sort by descending midpoint
    score, ties by charger id; returns row indices."""
    return np.lexsort((charger_ids, -((sc_min + sc_max) / 2.0)))[:k]


@pytest.mark.parametrize("pool_size", POOL_SIZES)
def test_intersection_ranking(benchmark, pool_size):
    ids, lows, highs = _scores(pool_size)
    benchmark.pedantic(
        lambda: intersect_top_k_batch(ids, lows, highs, K), rounds=5, iterations=20
    )
    benchmark.extra_info["rule"] = "eq6-intersection"
    benchmark.extra_info["pool"] = pool_size


@pytest.mark.parametrize("pool_size", POOL_SIZES)
def test_midpoint_ranking(benchmark, pool_size):
    ids, lows, highs = _scores(pool_size)
    benchmark.pedantic(
        lambda: rank_by_midpoint(ids, lows, highs, K), rounds=5, iterations=20
    )
    benchmark.extra_info["rule"] = "midpoint"
    benchmark.extra_info["pool"] = pool_size
