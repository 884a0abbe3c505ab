import math
import tracemalloc

import numpy as np
import pytest

from sdeproj import blocks, correlate, mlmc, reference, workers
from sdeproj.blocks import Moments, chunks, rows
from sdeproj.brownian import _CHUNK_NORMALS, BLOCK_WIDTH, BlockCursor, BrownianFabric
from sdeproj.errors import BudgetExceeded, DomainError, NonFinite
from sdeproj.mlmc import (MlmcConfig, allocate_paths, implicit_price,
                          mlmc_estimate, payoff_spread)
from sdeproj.models import ait_sahalia_model, cir_model, ginzburg_landau_model

from oracles import level_pair

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
    # The finest level is bounded like the config's, before any draw: these
    # used to fail in np.empty, at numpy's dimension limit and at 14.6 TiB.
    with pytest.raises(DomainError, match="^max_level: "):
        mlmc_estimate(zcb_config(epsilon=1e-2, max_level=300, pilot_paths=2),
                      BrownianFabric(1))
    with pytest.raises(DomainError, match="^max_level: "):
        zcb_config(refinement=10 ** 12, max_level=1)
    assert zcb_config(max_level=12).max_level == 12  # 4**12 == 2**24 steps
    with pytest.raises(DomainError):
        zcb_config(pilot_paths=100, max_level=5, path_ceiling=599)
    with pytest.raises(DomainError):
        zcb_config(correlation=1.5)
    with pytest.raises(DomainError):
        zcb_config(k=0.0)
    with pytest.raises(DomainError):
        zcb_config(scale_lo=0.0)


def test_config_refuses_a_lower_exponent_a_factor_cannot_take():
    # ait-sahalia with varrho 2.5 and rho 1.7 has beta = 1.5 / 0.7, so the
    # default k = 0.25 gives 2*beta*k > 1; the rule holds for every factor.
    # The config itself is refused, so no estimate can start a draw with it.
    ait = ait_sahalia_model(1.0, 1.0, 1.0, 1.0, 1.0, 2.5, 1.7, 1.0)
    assert 2.0 * ait.transformed.beta * 0.25 > 1.0
    with pytest.raises(DomainError, match="^k: 2\\*beta\\*k = "):
        zcb_config(models=(ait,), epsilon=1e-2, max_level=2, pilot_paths=100)
    two = (cir_model(1.0, 0.06, 0.04, 0.05), ait)
    with pytest.raises(DomainError, match="^k: "):
        zcb_config(models=two, payoff="spread", strike=0.001)
    assert zcb_config(models=(ait,), k=0.2).k == 0.2  # 2*beta*k = 0.857...
    # cir's beta = 2 puts the default k exactly on the bound.
    assert zcb_config().k == 0.25


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


def test_single_path_pair_is_its_row_of_the_whole_block():
    spread = MlmcConfig(models=(cir_model(1.0, 0.06, 0.04, 0.05),
                                cir_model(0.8, 0.05, 0.016, 0.06)),
                        payoff="spread", horizon=1.0, epsilon=1e-4,
                        strike=0.001, correlation=-0.7)
    fabric = BrownianFabric(11)
    for config in (zcb_config(), spread):
        for level in (0, 2):
            block = mlmc._pair_batch(config, mlmc._projected(config), level,
                                     mlmc._stream(config, fabric, level).draw(
                                         [(1, 0, BLOCK_WIDTH)]))
            # Two paths in the middle of block 1, so that each case meets a
            # nonzero spread payoff.
            pairs = [level_pair(config, fabric, level, BLOCK_WIDTH + row)
                     for row in (2000, 2001)]
            assert pairs == [(block[0][row], block[1][row] if level else 0.0)
                             for row in (2000, 2001)], (config.payoff, level)
            assert max(map(max, pairs)) > 0.0
    # One step: the discount integral is deterministic and the coarse half
    # of the pair is defined as zero.
    assert level_pair(zcb_config(), fabric, 0, BLOCK_WIDTH + 2000) \
        == (math.exp(-1.0), 0.0)


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


def _per_factor_price(problem, fabric, paths, fine_exponent):
    """`implicit_price` as it stood before the factors were stepped
    together: each factor's row block stepped alone, one `Moments` per
    chunk merged in block order."""
    n = 1 << fine_exponent
    h = problem.horizon / n
    todo = chunks(0, paths)
    w, w_perp = np.split(blocks.Stream(fabric, fine_exponent, n, h, 2).draw(todo), 2)
    correlate(w, w_perp, problem.correlation, out=w_perp)
    terminals = [reference._implicit_evolve(
        reference.ImplicitCirParams.from_model(t.transformed), n, h, drv)[0]
        for t, drv in zip(problem.models, (w, w_perp))]
    x1, x2 = (t.lamperti.inverse(y) for t, y in zip(problem.models, terminals))
    values = payoff_spread(x1, x2, problem.strike)
    moments = Moments()
    for span in rows(todo):
        moments.merge(Moments.of(values[span]))
    return moments.mean, math.sqrt(moments.var / paths)


def test_stacked_price_has_the_bits_of_the_factors_stepped_alone(monkeypatch):
    # Near its boundary (2 kappa theta / xi^2 = 1.02, x0 = 1e-4), the first
    # factor steps rows with s < 0 that the second factor's rows do not
    # have.  Two blocks and a partial one, in slabs at fine exponent 6.
    monkeypatch.setattr(workers, "available_cores", lambda: 4)
    problem = mlmc.Problem(models=(cir_model(1.0, 0.01, 0.14, 1e-4),
                                   cir_model(0.8, 0.05, 0.016, 0.06)),
                           payoff="spread", horizon=1.0, strike=0.001,
                           correlation=-0.7)
    paths = 2 * BLOCK_WIDTH + 100
    expected = _per_factor_price(problem, BrownianFabric(23), paths, 6)
    for threads in (1, 2, 3):
        assert implicit_price(problem, BrownianFabric(23), paths=paths,
                              fine_exponent=6, threads=threads) == expected


@pytest.mark.parametrize("threads", [1, 2])
def test_spread_price_holds_half_a_block_of_each_factor(threads, monkeypatch):
    # Two blocks of 256 steps: one block's stacked increments, 8 MiB, plus a
    # staging buffer on each drawing thread and 1 MiB.  Each factor's whole
    # block (16 MiB for the pair) does not fit.
    monkeypatch.setattr(workers, "available_cores", lambda: 4)
    problem = mlmc.Problem(models=(cir_model(1.0, 0.06, 0.04, 0.05),
                                   cir_model(0.8, 0.05, 0.016, 0.06)),
                           payoff="spread", horizon=1.0, strike=0.001,
                           correlation=-0.7)
    n = 1 << 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        implicit_price(problem, BrownianFabric(5), paths=2 * BLOCK_WIDTH,
                       fine_exponent=8, threads=threads)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= BLOCK_WIDTH * n * 8 + threads * _CHUNK_NORMALS * 8 + (1 << 20)


def test_implicit_price_validation():
    with pytest.raises(DomainError):
        implicit_price(zcb_config(), BrownianFabric(11), paths=1)
    gl = mlmc.Problem(models=(ginzburg_landau_model(0.5, 1.0, 1.0),),
                      payoff="zcb", horizon=1.0)
    with pytest.raises(DomainError):
        implicit_price(gl, BrownianFabric(11), paths=16)


def test_multilevel_engine_refuses_a_full_line_factor_before_any_draw():
    # A ginzburg-landau factor used to fail later, building its plan.
    gl = ginzburg_landau_model(0.5, 1.0, 1.0)
    for models, payoff in (((gl,), "zcb"), ((cir_model(2.0, 1.0, 0.5, 1.0), gl),
                                            "spread")):
        with pytest.raises(DomainError) as err:
            MlmcConfig(models=models, payoff=payoff, horizon=1.0, epsilon=1e-3,
                       strike=0.001 if payoff == "spread" else None)
        assert err.value.field == "models"
        assert "ginzburg-landau" in err.value.reason


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
    (2 * BLOCK_WIDTH, BLOCK_WIDTH + 7, 1, 7),   # first batch, on a pool thread
    (300, 3, 2, 3),                             # second batch, on a pool thread
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
                np.split(drivers, 2)[0][at + row - lo] = np.nan
            at += hi - lo
        return drivers

    monkeypatch.setattr(blocks.Stream, "draw", poisoned)
    config = _spread(max_level=3, pilot_paths=2 * BLOCK_WIDTH)
    with pytest.raises(NonFinite, match=r"level 3, block 0, row 3000$"):
        mlmc_estimate(config, BrownianFabric(3), threads=2)


def test_non_finite_price_payoff_names_its_block_and_row(monkeypatch):
    # The price engines fold with the multilevel engine's check: one
    # non-finite increment gives a non-finite payoff, refused by address.
    real = blocks.Stream.draw

    def poisoned(self, chunks, team=None):
        drivers = real(self, chunks, team)
        drivers[3] = np.nan
        return drivers

    monkeypatch.setattr(blocks.Stream, "draw", poisoned)
    with pytest.raises(NonFinite, match=r"^non-finite payoff at level 5, "
                                        r"block 0, row 3$"):
        implicit_price(_spread(), BrownianFabric(3), paths=100, fine_exponent=5)


def _drawn_rows(monkeypatch):
    """Record the rows each cursor fill draws (or skips), by (level, factor,
    block) address."""
    drawn = {}
    real = BlockCursor.fill

    def logged(self, out, rows=0, **options):
        word = int(self._state["state"]["key"][1])
        address = ((word >> 52) & 0xFF, (word >> 44) & 0xFF, word & ((1 << 44) - 1))
        drawn.setdefault(address, []).append(
            (self.row, self.row + (rows if out is None else out.shape[0])))
        return real(self, out, rows, **options)

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
