from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdeproj import BLOCK_WIDTH, BrownianFabric, mlmc
from sdeproj.blocks import Moments, chunks, walk
from sdeproj.mlmc import MlmcConfig, mlmc_estimate
from sdeproj.models import cir_model
from sdeproj.workers import Team


def _fold(values, cuts):
    moments = Moments()
    bounds = [0] + sorted(set(cuts)) + [len(values)]
    for lo, hi in zip(bounds, bounds[1:]):
        moments.merge(Moments.of(values[lo:hi]))
    return moments


def test_chunks_follow_block_boundaries():
    assert chunks(0, 0) == []
    assert chunks(5, 6) == [(0, 5, 6)]
    assert chunks(BLOCK_WIDTH - 2, 2 * BLOCK_WIDTH + 3) == [
        (0, BLOCK_WIDTH - 2, BLOCK_WIDTH), (1, 0, BLOCK_WIDTH), (2, 0, 3)]


@pytest.mark.parametrize("blocks", [0, 1, 2, 5])
@pytest.mark.parametrize("size", [None, 3])
def test_walk_yields_each_chunk_in_block_order(blocks, size):
    start, stop = 100, 6 * BLOCK_WIDTH + 17

    def step(batch):
        return [(block * BLOCK_WIDTH + np.arange(lo, hi),
                 -(block * BLOCK_WIDTH + np.arange(lo, hi))) for block, lo, hi in batch]

    team = None if size is None else Team(size)
    try:
        got = list(walk(step, start, stop, blocks=blocks, team=team))
    finally:
        if team is not None:
            team.close()
    assert len(got) == len(chunks(start, stop))
    rows = np.concatenate([r for r, _ in got])
    assert np.array_equal(rows, np.arange(start, stop))
    assert all(np.array_equal(neg, -r) for r, neg in got)


def test_zcb_fine_variance_matches_np_var_at_tiny_noise():
    # Payoffs within about 1e-8 of each other: the sum of squares minus the
    # squared mean cancels to a multiple of 2^-52 here.
    config = MlmcConfig(models=(cir_model(2.0, 1.0, 1e-7, 1.0),), payoff="zcb",
                        horizon=1.0, epsilon=1e-3)
    report = mlmc_estimate(config, BrownianFabric(11))
    level = report.levels[3]
    fine, coarse = mlmc._pair_batch(config, mlmc._projected(config),
                                    BrownianFabric(11), 3, chunks(0, level.paths))
    assert level.var_fine == pytest.approx(np.var(fine), rel=1e-12, abs=0.0)
    assert level.var_diff == pytest.approx(np.var(fine - coarse), rel=1e-12, abs=0.0)
    assert level.mean_fine == float(np.sum(fine)) / level.paths


@pytest.mark.parametrize("cuts", [[1, 4096, 4099, 9099], [7], [2, 4, 6, 8],
                                  list(range(1, 10007, 997))])
def test_ill_conditioned_data_over_uneven_splits(cuts):
    x = 1e8 + 1e-3 * np.random.default_rng(5).standard_normal(10007)
    moments = _fold(x, cuts)
    assert moments.count == len(x)
    assert moments.var == pytest.approx(np.var(x), rel=1e-10, abs=0.0)
    exact = [Fraction(v) for v in x]
    centre = sum(exact) / len(x)
    variance = float(sum((v - centre) ** 2 for v in exact) / len(x))
    assert moments.var == pytest.approx(variance, rel=1e-14, abs=0.0)
    # The mean is the block-order sum over the count.
    bounds = [0] + cuts + [len(x)]
    total = 0.0
    for lo, hi in zip(bounds, bounds[1:]):
        total += float(np.sum(x[lo:hi]))
    assert moments.mean == total / len(x)


@settings(max_examples=200, deadline=None)
@given(value=st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300,
                       max_value=1e300),
       size=st.integers(1, 3000),
       cuts=st.lists(st.integers(1, 2999), max_size=6))
def test_constant_sample_has_zero_variance_over_any_split(value, size, cuts):
    moments = _fold(np.full(size, value), [c for c in cuts if c < size])
    assert moments.m2 == 0.0
    assert moments.var == 0.0
    assert moments.count == size
