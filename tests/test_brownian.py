from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest

from sdeproj import BLOCK_WIDTH, BrownianFabric, blocks, correlate, couple_levels
from sdeproj.brownian import (_CHUNK_NORMALS, _TAG_BLOCK, _TAG_PATH, _pack,
                              _splitmix64, _start, _thread_generator,
                              extend_coupling)
from sdeproj.convergence import run_convergence_study
from sdeproj.mlmc import MlmcConfig, implicit_price, mlmc_estimate
from sdeproj.models import cir_model, ginzburg_landau_model
from sdeproj.projection import plan_exponents


def test_increment_moments():
    fabric = BrownianFabric(101)
    draws = fabric.increments(0, 0, 10 ** 6, 1.0)
    assert -0.004 < draws.mean() < 0.004
    draws = fabric.increments(1, 0, 10 ** 6, 0.25)
    assert 0.25 * 0.99 < draws.var() < 0.25 * 1.01


def test_repeat_call_is_bitwise_identical():
    fabric = BrownianFabric(5)
    a = fabric.increments(3, 2, 512, 0.125)
    b = fabric.increments(3, 2, 512, 0.125)
    assert np.array_equal(a, b)
    c = BrownianFabric(5).increments(3, 2, 512, 0.125)
    assert np.array_equal(a, c)


def test_distinct_seeds_differ():
    a = BrownianFabric(1).increments(0, 0, 64, 1.0)
    b = BrownianFabric(2).increments(0, 0, 64, 1.0)
    assert not np.array_equal(a, b)


def test_couple_identity_at_m_one():
    fine = BrownianFabric(9).increments(0, 3, 32, 0.5)
    assert np.array_equal(couple_levels(fine, 1), fine)


def test_couple_pairwise_sums():
    fine = np.array([[1.5, 2.25, -0.5, 4.0]])
    coarse = couple_levels(fine, 2)
    assert coarse.shape == (1, 2)
    assert coarse[0, 0] == 1.5 + 2.25
    assert coarse[0, 1] == -0.5 + 4.0


def test_coupled_coarse_variance():
    m, h_fine = 4, 0.01
    (fine,) = blocks.Stream(BrownianFabric(17), 6, 4000 * m, h_fine).draw([(0, 0, 100)])
    coarse = couple_levels(fine, m).ravel()
    assert coarse.size == 4 * 10 ** 5
    h = m * h_fine
    assert h * 0.98 < coarse.var() < h * 1.02


def test_correlate_endpoints_exact():
    fabric = BrownianFabric(3)
    w = fabric.increments(0, 0, 256, 1.0)
    w_perp = fabric.increments(0, 0, 256, 1.0, factor=1)
    assert np.array_equal(correlate(w, w_perp, 0.0), w_perp)
    assert np.array_equal(correlate(w, w_perp, 1.0), w)


def test_correlate_empirical_correlation():
    fabric = BrownianFabric(23)
    w = fabric.increments(0, 0, 10 ** 6, 1.0)
    w_perp = fabric.increments(0, 0, 10 ** 6, 1.0, factor=1)
    z = correlate(w, w_perp, -0.7)
    rho_hat = np.corrcoef(w, z)[0, 1]
    assert -0.71 < rho_hat < -0.69


def test_couple_commutes_with_correlate():
    fabric = BrownianFabric(29)
    w, w_perp = blocks.Stream(fabric, 5, 64, 0.125, factors=2).draw([(0, 0, 32)])
    for rho in (0.0, 1.0, -1.0):
        lhs = couple_levels(correlate(w, w_perp, rho), 4)
        rhs = correlate(couple_levels(w, 4), couple_levels(w_perp, 4), rho)
        assert np.array_equal(lhs, rhs)
    lhs = couple_levels(correlate(w, w_perp, -0.7), 4)
    rhs = correlate(couple_levels(w, 4), couple_levels(w_perp, 4), -0.7)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=0.0)


def test_stream_independence():
    fabric = BrownianFabric(31)
    base = fabric.increments(0, 0, 10 ** 6, 1.0)
    for other in (fabric.increments(1, 0, 10 ** 6, 1.0),
                  fabric.increments(0, 1, 10 ** 6, 1.0),
                  fabric.increments(0, 0, 10 ** 6, 1.0, factor=1)):
        assert not np.array_equal(base, other)
        assert abs(np.corrcoef(base, other)[0, 1]) < 0.01


def test_adjacent_addresses_differ():
    # Addresses differing only in their lowest bits must not collide.
    fabric = BrownianFabric(31)
    for i in range(1, 8):
        assert not np.array_equal(fabric.increments(0, 0, 16, 1.0),
                                  fabric.increments(i, 0, 16, 1.0))
        assert not np.array_equal(fabric.block_normals(0, 0, 16, rows=4),
                                  fabric.block_normals(0, i, 16, rows=4))


def test_block_rows_prefix_consistent():
    fabric = BrownianFabric(43)
    full = fabric.block_normals(4, 2, 16)
    assert full.shape == (BLOCK_WIDTH, 16)
    head = fabric.block_normals(4, 2, 16, rows=50)
    assert np.array_equal(head, full[:50])


def test_block_increments_scale():
    fabric = BrownianFabric(47)
    normals = fabric.block_normals(3, 0, 8, rows=10)
    (scaled,) = blocks.Stream(fabric, 3, 8, 0.25).draw([(0, 0, 10)])
    assert np.array_equal(scaled, normals * np.sqrt(0.25))


def test_addressing_validation():
    with pytest.raises(ValueError):
        BrownianFabric(-1)
    with pytest.raises(ValueError):
        BrownianFabric(2 ** 64)
    fabric = BrownianFabric(0)
    assert fabric.master_seed == 0
    with pytest.raises(ValueError):
        fabric.increments(0, 0, 4, 0.0)
    with pytest.raises(ValueError):
        fabric.increments(-1, 0, 4, 1.0)
    with pytest.raises(ValueError):
        fabric.increments(0, 256, 4, 1.0)
    with pytest.raises(ValueError):
        fabric.block_normals(0, 0, 4, rows=0)
    with pytest.raises(ValueError):
        fabric.block_normals(0, 0, 4, rows=BLOCK_WIDTH + 1)
    with pytest.raises(ValueError):
        couple_levels(np.zeros((2, 5)), 2)
    with pytest.raises(ValueError):
        correlate(np.zeros(3), np.zeros(3), 1.5)


@pytest.mark.parametrize("rows, n", [
    (BLOCK_WIDTH, 1),                                   # one column, filled in place
    (1, 9),                                             # one row, filled in place
    (BLOCK_WIDTH, 3 * _CHUNK_NORMALS // BLOCK_WIDTH),   # three full chunks
    (1000, _CHUNK_NORMALS // 300),                      # partial last chunk
    (7, 5),
])
def test_block_normals_column_major_single_stream(rows, n):
    fabric = BrownianFabric(53)
    block = fabric.block_normals(2, 3, n, factor=1, rows=rows)
    assert block.shape == (rows, n)
    assert block.flags.f_contiguous
    reference = _fresh_block(fabric, 2, 3, n, 1, rows)
    assert np.array_equal(block, reference)
    increments = blocks.Stream(fabric, 2, n, 0.25, factors=2).draw([(3, 0, rows)])[1]
    assert increments.flags.f_contiguous
    assert np.array_equal(increments, reference * 0.5)


def _fresh_block(fabric, level, block, n, factor, rows):
    key = np.array([_splitmix64(fabric.master_seed),
                    _pack(_TAG_BLOCK, level, factor, block)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal((rows, n))


@pytest.mark.parametrize("n", [1, 7, 300, 4096])
def test_path_increments_match_a_fresh_generator(n):
    fabric = BrownianFabric(2 ** 63 + 5)
    key = np.array([_splitmix64(fabric.master_seed), _pack(_TAG_PATH, 3, 1, 11)],
                   dtype=np.uint64)
    fresh = np.random.Generator(np.random.Philox(key=key)).standard_normal(n)
    got = fabric.increments(11, 3, n, 0.5, factor=1)
    assert got.shape == (n,)
    assert np.array_equal(got, fresh * math.sqrt(0.5))


def test_rekeyed_generator_matches_a_fresh_one():
    fabric = BrownianFabric(2 ** 64 - 3)
    for level, block, n, factor, rows in [(0, 0, 1, 0, BLOCK_WIDTH), (3, 7, 9, 1, 33),
                                          (5, 2 ** 40, 300, 0, 1000)]:
        # Leave this thread's generator mid-buffer with a cached 32-bit half.
        rng = _thread_generator(_start(fabric._key(_TAG_PATH, 1, 0, 9)))
        rng.standard_normal(3)
        rng.random(5)
        rng.integers(0, 2 ** 32, size=3, dtype=np.uint32)
        state = rng.bit_generator.state
        assert state["has_uint32"] == 1 and state["buffer_pos"] != 4
        got = fabric.block_normals(level, block, n, factor=factor, rows=rows)
        assert np.array_equal(got, _fresh_block(fabric, level, block, n, factor, rows))


def test_rekeyed_generators_on_two_threads_at_once():
    # Each thread re-keys its own generator; a shared one would be re-keyed
    # by the other thread in the middle of a block.
    fabric = BrownianFabric(61)
    blocks = 100
    expected = [_fresh_block(fabric, 1, block, 40, 0, 1000) for block in range(blocks)]
    mismatches = []

    def draw(first):
        for block in range(first, blocks, 2):
            if not np.array_equal(fabric.block_normals(1, block, 40, rows=1000),
                                  expected[block]):
                mismatches.append(block)

    interval = sys.getswitchinterval()
    threads = [threading.Thread(target=draw, args=(i,)) for i in (0, 1)]
    try:
        sys.setswitchinterval(1e-6)
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


def test_couple_levels_keeps_layout():
    (fine_f,) = blocks.Stream(BrownianFabric(59), 1, 64, 0.125).draw([(0, 0, 40)])
    fine_c = np.ascontiguousarray(fine_f)
    for m in (1, 2, 8):
        coarse_f = couple_levels(fine_f, m)
        coarse_c = couple_levels(fine_c, m)
        assert coarse_f.flags.f_contiguous
        assert coarse_c.flags.c_contiguous
        assert np.array_equal(coarse_f, coarse_c)
    # A row slice of a column-major block, as the multilevel pricer takes.
    tail = couple_levels(fine_f[10:], 4)
    assert tail.flags.f_contiguous
    assert np.array_equal(tail, couple_levels(fine_c[10:], 4))



def test_extend_coupling_has_the_bits_and_layout_of_couple_levels():
    (fine_f,) = blocks.Stream(BrownianFabric(83), 10, 1 << 10,
                              2.0 ** -10).draw([(0, 0, 7)])
    for fine in (fine_f, np.ascontiguousarray(fine_f), fine_f[2:]):
        coupled = {m: couple_levels(fine, m) for m in (1 << e for e in range(11))}
        for m_prev in coupled:
            for m in (r for r in coupled if r >= m_prev):
                chained = extend_coupling(coupled[m_prev], fine, m_prev, m)
                assert chained.tobytes(order="A") == coupled[m].tobytes(order="A")
                assert chained.flags.f_contiguous == coupled[m].flags.f_contiguous
                assert chained.flags.c_contiguous == coupled[m].flags.c_contiguous
        # A chain through every ratio, each step built on the last.
        grid = coupled[1]
        for e in range(1, 11):
            grid = extend_coupling(grid, fine, 1 << (e - 1), 1 << e)
            assert np.array_equal(grid, coupled[1 << e])
    with pytest.raises(ValueError):
        extend_coupling(couple_levels(fine_f, 4), fine_f, 4, 6)
    with pytest.raises(ValueError):
        extend_coupling(couple_levels(fine_f, 4), fine_f, 2, 8)
    with pytest.raises(ValueError):
        extend_coupling(couple_levels(fine_f, 4), fine_f, 4, 2)
    with pytest.raises(ValueError):
        extend_coupling(couple_levels(fine_f, 4), fine_f[:, :-4], 4, 8)


def _cir_study(reference, variant):
    cir = cir_model(0.5, 1.0, 0.5, 1.0)
    return run_convergence_study(cir.transformed, cir.lamperti,
                                 plan_exponents(cir.transformed), [2, 3, 4],
                                 BLOCK_WIDTH + 100, reference, BrownianFabric(7),
                                 fine_exponent=6, variant=variant)


def _gl_study():
    gl = ginzburg_landau_model(0.5, 1.0, 1.0)
    return run_convergence_study(gl.transformed, gl.lamperti,
                                 plan_exponents(gl.transformed), [2, 3, 4],
                                 BLOCK_WIDTH + 100, "closed-form",
                                 BrownianFabric(7), fine_exponent=6)


_SPREAD = MlmcConfig(models=(cir_model(1.0, 0.06, 0.04, 0.05),
                             cir_model(0.8, 0.05, 0.016, 0.06)),
                     payoff="spread", horizon=1.0, epsilon=1e-4, strike=0.001,
                     correlation=-0.7, max_level=3, pilot_paths=500)


@pytest.mark.parametrize("engine", [
    lambda: _cir_study("modified-scheme-fine-grid", "modified"),
    lambda: _cir_study("implicit-fine-grid", "implicit-reference"),
    _gl_study,
    lambda: mlmc_estimate(_SPREAD, BrownianFabric(13)),
    lambda: implicit_price(_SPREAD, BrownianFabric(13), paths=BLOCK_WIDTH + 100,
                           fine_exponent=5),
], ids=["modified-reference", "implicit-reference", "closed-form",
        "mlmc-spread", "implicit-price"])
def test_engines_do_not_depend_on_block_layout(engine, monkeypatch):
    shipped = engine()
    monkeypatch.setattr(blocks, "_LAYOUT", "C")
    (drawn,) = blocks.Stream(BrownianFabric(1), 0, 8, 1.0).draw([(0, 0, 4)])
    assert drawn.flags.c_contiguous
    assert engine() == shipped


@pytest.mark.parametrize("rows, n", [
    (300, 200),                              # many column chunks
    (BLOCK_WIDTH, 3),                        # one chunk, narrower than it
    (5, 1),                                  # one column
])
def test_correlate_in_place_matches_allocating_form(rows, n):
    fabric = BrownianFabric(71)
    w, w_perp = blocks.Stream(fabric, 2, n, 0.5, factors=2).draw([(0, 0, rows)])
    kept = (w.copy(), w_perp.copy())
    for rho in (-0.7, 0.0, 1.0, 0.3):
        expected = correlate(w, w_perp, rho)
        # The allocating form leaves its inputs untouched.
        assert np.array_equal(w, kept[0]) and np.array_equal(w_perp, kept[1])
        for order in ("F", "C"):
            for row_lo in (0, rows // 3):
                a = np.array(w, order=order)[row_lo:]
                b = np.array(w_perp, order=order)[row_lo:]
                mixed = correlate(a, b, rho, out=b)
                assert mixed is b
                assert np.array_equal(mixed, expected[row_lo:])
                assert np.array_equal(a, kept[0][row_lo:])


def test_correlate_out_into_first_operand_and_validation():
    fabric = BrownianFabric(73)
    w = fabric.increments(0, 0, 100_000, 1.0)
    w_perp = fabric.increments(0, 0, 100_000, 1.0, factor=1)
    expected = correlate(w, w_perp, -0.7)
    assert np.array_equal(correlate(w, w_perp, -0.7, out=w), expected)
    with pytest.raises(ValueError):
        correlate(w, w_perp, -0.7, out=np.empty(3))
