import math

import numpy as np
import pytest

from sdeproj import blocks, mlmc, workers
from sdeproj.blocks import chunks
from sdeproj.brownian import BLOCK_WIDTH, BlockCursor, BrownianFabric
from sdeproj.errors import BudgetExceeded, DomainError, NonFinite
from sdeproj.mlmc import (MlmcConfig, allocate_paths, implicit_price,
                          level_sample, mlmc_estimate, payoff_spread)
from sdeproj.models import cir_model, ginzburg_landau_model

ZCB_CLOSED_FORM = 0.3721963545473621


def zcb_config(**overrides):
    base = dict(models=(cir_model(2.0, 1.0, 0.5, 1.0),), payoff="zcb",
                horizon=1.0, epsilon=1e-3)
    base.update(overrides)
    return MlmcConfig(**base)


def test_payoff_spread_values():
    assert payoff_spread(0.75, 0.5, 0.125) == 0.125
    assert payoff_spread(0.5, 0.75, 0.125) == 0.0
    out = payoff_spread(np.array([1.0, 2.0]), np.array([0.5, 3.0]), 0.25)
    assert np.array_equal(out, [0.25, 0.0])


def test_config_validation():
    one = (cir_model(2.0, 1.0, 0.5, 1.0),)
    two = one + (cir_model(1.0, 0.06, 0.04, 0.05),)
    with pytest.raises(DomainError):
        zcb_config(payoff="swap")
    with pytest.raises(DomainError):
        zcb_config(models=two)
    with pytest.raises(DomainError):
        zcb_config(models=one, payoff="spread", strike=0.0)
    with pytest.raises(DomainError):
        zcb_config(models=two, payoff="spread")  # no strike
    with pytest.raises(DomainError):
        zcb_config(horizon=0.0)
    with pytest.raises(DomainError):
        zcb_config(epsilon=0.0)
    with pytest.raises(DomainError):
        zcb_config(refinement=1)
    with pytest.raises(DomainError):
        zcb_config(max_level=0)
    with pytest.raises(DomainError):
        zcb_config(pilot_paths=1)
    with pytest.raises(DomainError):
        zcb_config(pilot_paths=100, max_level=5, path_ceiling=599)
    with pytest.raises(DomainError):
        zcb_config(correlation=1.5)
    with pytest.raises(DomainError):
        zcb_config(k=0.0)
    with pytest.raises(DomainError):
        zcb_config(scale_lo=0.0)


def test_allocate_paths_single_level():
    assert np.array_equal(allocate_paths([0.5], [2.0], 1.0), [1])
    assert np.array_equal(allocate_paths([0.5], [2.0], 1.0, floor=9), [9])
    assert np.array_equal(allocate_paths([0.0, 0.0], [1.0, 0.5], 0.1, floor=3),
                          [3, 3])


def test_allocate_paths_formula():
    v = np.array([3.2e-3, 1.3e-4, 5.3e-6])
    h = np.array([1.0, 0.25, 0.0625])
    eps = 1e-3
    expected = np.maximum(
        np.ceil((2.0 / eps ** 2) * np.sqrt(v * h) * np.sum(np.sqrt(v / h))), 7)
    assert np.array_equal(allocate_paths(v, h, eps, floor=7), expected)


def test_allocate_paths_homogeneity():
    v = np.array([3.2e-3, 1.3e-4, 5.3e-6])
    h = np.array([1.0, 0.25, 0.0625])
    n1 = allocate_paths(v, h, 1e-3)
    n2 = allocate_paths(2.0 * v, h, 1e-3)
    assert np.max(np.abs(n2 - 2 * n1)) <= 2


def test_allocate_paths_validation():
    with pytest.raises(ValueError):
        allocate_paths([0.1, 0.2], [1.0], 0.5)
    with pytest.raises(DomainError):
        allocate_paths([0.1], [1.0], 0.0)
    with pytest.raises(DomainError):
        allocate_paths([-0.1], [1.0], 0.5)
    with pytest.raises(DomainError):
        allocate_paths([0.1], [0.0], 0.5)
    with pytest.raises(DomainError):
        allocate_paths([0.1], [1.0], 0.5, floor=0)


def test_level_sample_level_zero():
    # One step: the discount integral is deterministic and the coarse half
    # of the pair is defined as zero.
    fine, coarse = level_sample(zcb_config(), BrownianFabric(11), 0, 0)
    assert fine == math.exp(-1.0)
    assert coarse == 0.0


def test_level_sample_reproducible():
    config = zcb_config()
    first = level_sample(config, BrownianFabric(11), 2, 77)
    second = level_sample(config, BrownianFabric(11), 2, 77)
    assert first == second
    assert first[0] != first[1]


def test_level_sample_validation():
    config = zcb_config()
    fabric = BrownianFabric(11)
    with pytest.raises(DomainError):
        level_sample(config, fabric, -1, 0)
    with pytest.raises(DomainError):
        level_sample(config, fabric, config.max_level + 1, 0)
    with pytest.raises(DomainError):
        level_sample(config, fabric, 0, -1)


def test_zcb_estimate_report():
    report = mlmc_estimate(zcb_config(), BrownianFabric(11))
    assert report.estimator == 0.3723877755735076
    assert abs(report.estimator - ZCB_CLOSED_FORM) <= 3.0 * report.rmse_estimate
    assert sum(l.mean_diff for l in report.levels) == report.estimator
    assert report.cost_mlmc == sum(l.cost for l in report.levels)
    assert report.rmse_estimate == math.sqrt(report.std_error ** 2
                                             + report.bias_proxy ** 2)
    assert report.savings == report.cost_std / report.cost_mlmc
    assert report.seed == 11
    assert report.epsilon == 1e-3
    # Level 0 is a single deterministic step.
    assert report.levels[0].var_diff == 0.0
    assert report.levels[0].paths == 1000
    assert report.metadata["paths_std"] * report.metadata["steps_std"] \
        == report.cost_std


def test_zcb_variance_decay():
    report = mlmc_estimate(zcb_config(), BrownianFabric(11))
    active = [(l.level, l.var_diff) for l in report.levels
              if l.level >= 1 and l.var_diff > 0]
    assert len(active) >= 4
    levels = [l for l, _ in active]
    logs = [math.log(v, 4.0) for _, v in active]
    slope = np.polyfit(levels, logs, 1)[0]
    assert slope <= -0.9
    # The payoff variance has stabilised by the finest level.
    fine_vars = [l.var_fine for l in report.levels]
    assert abs(fine_vars[-1] - fine_vars[-2]) < 0.2 * fine_vars[-1]


def test_estimate_is_deterministic():
    config = zcb_config(max_level=3, pilot_paths=200)
    assert mlmc_estimate(config, BrownianFabric(4)) \
        == mlmc_estimate(config, BrownianFabric(4))


def test_identical_factors_price_zero_spread():
    model = cir_model(1.0, 0.06, 0.04, 0.05)
    config = MlmcConfig(models=(model, model), payoff="spread", horizon=1.0,
                        epsilon=1e-3, strike=0.0, correlation=1.0,
                        max_level=2, pilot_paths=64)
    report = mlmc_estimate(config, BrownianFabric(4))
    assert report.estimator == 0.0
    assert report.std_error == 0.0
    assert [l.paths for l in report.levels] == [64, 64, 64]


def test_spread_estimate_matches_reference():
    config = MlmcConfig(models=(cir_model(1.0, 0.06, 0.04, 0.05),
                                cir_model(0.8, 0.05, 0.016, 0.06)),
                        payoff="spread", horizon=1.0, epsilon=2e-4,
                        strike=0.001, correlation=-0.7, max_level=3,
                        pilot_paths=500)
    report = mlmc_estimate(config, BrownianFabric(21))
    assert abs(report.estimator - 0.003711) <= 4.0 * report.rmse_estimate
    assert report.metadata["correlation"] == -0.7
    assert report.metadata["strike"] == 0.001


def test_budget_exceeded():
    config = zcb_config(epsilon=1e-6, max_level=2, pilot_paths=16,
                        path_ceiling=48)
    with pytest.raises(BudgetExceeded):
        mlmc_estimate(config, BrownianFabric(0))


def test_implicit_price_benchmark():
    price, se = implicit_price(zcb_config(), BrownianFabric(11), paths=256,
                               fine_exponent=6)
    assert se > 0.0
    assert abs(price - ZCB_CLOSED_FORM) <= 4.0 * se


def test_implicit_price_validation():
    with pytest.raises(DomainError):
        implicit_price(zcb_config(), BrownianFabric(11), paths=1)
    gl = MlmcConfig(models=(ginzburg_landau_model(0.5, 1.0, 1.0),),
                    payoff="zcb", horizon=1.0, epsilon=1e-3)
    with pytest.raises(DomainError):
        implicit_price(gl, BrownianFabric(11), paths=16)


def _poison(monkeypatch, steps, rows, at):
    """Make `_payoff_values` return NaN at row `at` of every batch of `rows`
    paths stepped `steps` times."""
    real = mlmc._payoff_values

    def poisoned(config, plans, drivers, n, h):
        values = real(config, plans, drivers, n, h)
        if n == steps and len(values) == rows:
            values[at] = np.nan
        return values

    monkeypatch.setattr(mlmc, "_payoff_values", poisoned)


def _spread(**overrides):
    base = dict(models=(cir_model(1.0, 0.06, 0.04, 0.05),
                        cir_model(0.8, 0.05, 0.016, 0.06)),
                payoff="spread", horizon=1.0, epsilon=1e-4, strike=0.001,
                correlation=-0.7)
    base.update(overrides)
    return MlmcConfig(**base)


def test_non_finite_payoff_names_its_block_and_row(monkeypatch):
    # One batch of three chunks: the tail of block 0, all of block 1 and the
    # head of block 2.  Batch row BLOCK_WIDTH - 100 + 3 is block 1's row 3.
    config = _spread()
    chunks = [(0, 100, BLOCK_WIDTH), (1, 0, BLOCK_WIDTH), (2, 0, 50)]
    _poison(monkeypatch, 1, 2 * BLOCK_WIDTH - 50, BLOCK_WIDTH - 100 + 3)
    drawn = mlmc._stream(config, BrownianFabric(3), 0).draw(chunks)
    pair = mlmc._pair_batch(config, mlmc._projected(config), 0, drawn)
    with pytest.raises(NonFinite, match=r"^non-finite payoff at level 0, "
                                        r"block 1, row 3$"):
        mlmc._check_finite(0, chunks, pair)


@pytest.mark.parametrize("rows, at, block, row", [
    (2 * BLOCK_WIDTH, BLOCK_WIDTH + 7, 1, 7),   # first batch: the calling thread
    (300, 3, 2, 3),                             # second batch: a pool thread
])
def test_non_finite_payoff_address_reaches_the_caller(rows, at, block, row,
                                                      monkeypatch):
    # Level 2 (16 steps, the finest, so walked first) takes two blocks a
    # batch; a 2 x BLOCK_WIDTH + 300 pilot is two batches in one round.
    monkeypatch.setattr(workers, "available_cores", lambda: 4)
    _poison(monkeypatch, 16, rows, at)
    config = _spread(max_level=2, pilot_paths=2 * BLOCK_WIDTH + 300)
    with pytest.raises(NonFinite, match=rf"level 2, block {block}, row {row}$"):
        mlmc_estimate(config, BrownianFabric(3), threads=2)


def test_non_finite_payoff_address_is_the_first_in_block_order(monkeypatch):
    # Level 3 (64 steps) is walked in row slabs: with two workers its two
    # pilot blocks are one batch, and slab 0 holds rows [0, 2048) of both.
    # Block 1's row 5 is stepped first, but block 0's row 3000 comes first in
    # block order.
    monkeypatch.setattr(workers, "available_cores", lambda: 2)
    real = blocks.Stream.draw

    def poisoned(self, chunks, team=None):
        drivers = real(self, chunks, team)
        at = 0
        for block, lo, hi in chunks:
            row = {0: 3000, 1: 5}.get(block, -1)
            if self.level == 3 and lo <= row < hi:
                drivers[0][at + row - lo] = np.nan
            at += hi - lo
        return drivers

    monkeypatch.setattr(blocks.Stream, "draw", poisoned)
    config = _spread(max_level=3, pilot_paths=2 * BLOCK_WIDTH)
    with pytest.raises(NonFinite, match=r"level 3, block 0, row 3000$"):
        mlmc_estimate(config, BrownianFabric(3), threads=2)


def _drawn_rows(monkeypatch):
    """Record the rows each cursor fill draws (or skips), by (level, factor,
    block) address."""
    drawn = {}
    real = BlockCursor.fill

    def logged(self, out, rows=0, *, keep=True):
        word = int(self._state["state"]["key"][1])
        address = ((word >> 52) & 0xFF, (word >> 44) & 0xFF, word & ((1 << 44) - 1))
        drawn.setdefault(address, []).append(
            (self.row, self.row + (rows if out is None else out.shape[0])))
        return real(self, out, rows, keep=keep)

    monkeypatch.setattr(BlockCursor, "fill", logged)
    return drawn


@pytest.mark.parametrize("cap", [1, blocks._BATCH_NORMALS], ids=["slabs", "batches"])
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("config", [
    zcb_config(epsilon=3e-4, max_level=4, pilot_paths=BLOCK_WIDTH + 300),
    _spread(max_level=2, pilot_paths=BLOCK_WIDTH + 300)], ids=["zcb", "spread"])
def test_pilot_and_final_pass_draw_every_row_once(config, threads, cap, monkeypatch):
    # Pilot and final targets end mid-block.  The final pass continues each
    # level's and factor's stream from the pilot's last row, so every
    # (level, factor, block, row) is drawn exactly once, and the report
    # equals that of a run that redraws every block from its first row.
    monkeypatch.setattr(workers, "available_cores", lambda: 2)
    monkeypatch.setattr(blocks, "_BATCH_NORMALS", cap)
    real_draw = blocks.Stream.draw

    def redraw(self, batch, team=None):
        self._cursors.clear()
        return real_draw(self, batch, team)

    with monkeypatch.context() as patch:
        patch.setattr(blocks.Stream, "draw", redraw)
        redrawn = mlmc_estimate(config, BrownianFabric(7), threads=threads)
    drawn = _drawn_rows(monkeypatch)
    report = mlmc_estimate(config, BrownianFabric(7), threads=threads)
    assert report == redrawn
    expected = {(level.level, factor, block): hi
                for level in report.levels for factor in range(len(config.models))
                for block, _, hi in chunks(0, level.paths)}
    assert sorted(drawn) == sorted(expected)
    for address, pieces in drawn.items():
        pieces.sort()
        assert pieces[0][0] == 0
        assert all(a[1] == b[0] for a, b in zip(pieces, pieces[1:])), address
        assert pieces[-1][1] == expected[address]
    assert any(len(pieces) > 1 for pieces in drawn.values())
