from __future__ import annotations

import dataclasses
import sys
import threading

import numpy as np
import pytest

from sdeproj import BLOCK_WIDTH, BrownianFabric, correlate
from sdeproj import blocks, workers
from sdeproj.convergence import run_convergence_study
from sdeproj.mlmc import MlmcConfig, gl_exact_price, implicit_price, mlmc_estimate
from sdeproj.models import cir_model, ginzburg_landau_model
from sdeproj.projection import plan_exponents
from sdeproj.workers import Team, resolve_threads, split

SPREAD = MlmcConfig(models=(cir_model(1.0, 0.06, 0.04, 0.05),
                            cir_model(0.8, 0.05, 0.016, 0.06)),
                    payoff="spread", horizon=1.0, epsilon=1e-4, strike=0.001,
                    correlation=-0.7, max_level=3, pilot_paths=500)
# Pilot and final targets end mid-block; levels 0 and 1 end with 47 and 12
# blocks, so the default batch cap gives level 0 two batches.
MANY_BLOCKS = dataclasses.replace(SPREAD, epsilon=5e-5,
                                  pilot_paths=2 * BLOCK_WIDTH + 300)


def test_resolve_threads_clamps_to_the_cores():
    assert resolve_threads(10 ** 6, 1) == 1
    assert resolve_threads(0, 1) == 1
    assert resolve_threads(10 ** 6, 2) == 2
    assert resolve_threads(0, 8) == 8
    assert resolve_threads(3, 8) == 3
    assert resolve_threads(1, 8) == 1
    assert resolve_threads(5, 0) == 1
    with pytest.raises(ValueError):
        resolve_threads(-1, 4)


def test_split_never_makes_more_spans_than_items():
    assert split(3, 10 ** 6) == [(0, 1), (1, 2), (2, 3)]
    assert split(10, 3) == [(0, 4), (4, 7), (7, 10)]
    assert split(1, 2) == [(0, 1)]
    for count in range(1, 40):
        for pieces in (1, 2, 3, 7, 100):
            spans = split(count, pieces)
            assert len(spans) == min(count, pieces)
            assert spans[0][0] == 0 and spans[-1][1] == count
            assert all(lo < hi for lo, hi in spans)
            assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))


def test_team_starts_no_thread_until_asked():
    before = threading.active_count()
    crew = Team(10 ** 6)
    assert threading.active_count() == before
    crew.close()
    with pytest.raises(ValueError):
        Team(1)


def _forbid_pools(monkeypatch):
    import concurrent.futures

    def refuse(*args, **kwargs):
        raise AssertionError("a thread pool was created")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)


def test_one_core_starts_no_thread(monkeypatch):
    monkeypatch.setattr(workers, "available_cores", lambda: 1)
    _forbid_pools(monkeypatch)
    implicit_price(SPREAD, BrownianFabric(5), paths=BLOCK_WIDTH + 10,
                   fine_exponent=4, threads=10 ** 6)
    mlmc_estimate(SPREAD, BrownianFabric(5), threads=0)


# Three blocks, the last one partial: with up to three workers both a
# group of uneven blocks and a lone block are drawn in slabs.
STUDY_PATHS = 2 * BLOCK_WIDTH + 808
CIR = cir_model(0.375, 1.0, 0.5, 1.0)
GL = ginzburg_landau_model(0.5, 1.0, 1.0)
# Pilot and final targets end mid-block; level 1 ends with 29 blocks, and
# levels 3 and 4 take blocks of 64 and 256 steps, drawn in slabs.
ZCB = MlmcConfig(models=(cir_model(2.0, 1.0, 0.5, 1.0),), payoff="zcb",
                 horizon=1.0, epsilon=3e-4, max_level=4,
                 pilot_paths=BLOCK_WIDTH + 300)


def _study(triple, reference, variant="modified"):
    def run(threads):
        return run_convergence_study(
            triple.transformed, triple.lamperti, plan_exponents(triple.transformed),
            [2, 3, 4], STUDY_PATHS, reference, BrownianFabric(19), fine_exponent=6,
            variant=variant, threads=threads)
    return run


ENGINES = {
    "closed-form": _study(GL, "closed-form"),
    "implicit-fine-grid": _study(CIR, "implicit-fine-grid"),
    "modified-scheme-fine-grid": _study(CIR, "modified-scheme-fine-grid"),
    "implicit-reference": _study(CIR, "implicit-fine-grid", "implicit-reference"),
    "gl-exact": lambda threads: gl_exact_price(GL, BrownianFabric(19), paths=STUDY_PATHS,
                                               fine_exponent=6, threads=threads),
    "mlmc-zcb": lambda threads: mlmc_estimate(ZCB, BrownianFabric(19), threads=threads),
    "implicit-zcb": lambda threads: implicit_price(ZCB, BrownianFabric(19),
                                                   paths=STUDY_PATHS, fine_exponent=5,
                                                   threads=threads),
    "mlmc-spread": lambda threads: mlmc_estimate(SPREAD, BrownianFabric(19),
                                                 threads=threads),
    "implicit-spread": lambda threads: implicit_price(SPREAD, BrownianFabric(19),
                                                      paths=STUDY_PATHS,
                                                      fine_exponent=5, threads=threads),
}


def test_one_thread_starts_no_pool_in_any_engine(monkeypatch):
    monkeypatch.setattr(workers, "available_cores", lambda: 4)
    _forbid_pools(monkeypatch)
    for run in ENGINES.values():
        run(1)


@pytest.mark.parametrize("engine", [name for name in ENGINES if "spread" not in name])
def test_single_factor_engines_give_the_same_report_for_every_thread_count(
        engine, monkeypatch):
    # Four usable cores, so that threads = 3 builds a real three-worker team
    # on any machine, and a short switch interval that interleaves the
    # workers as often as the interpreter allows.
    monkeypatch.setattr(workers, "available_cores", lambda: 4)
    submitted = []
    real_submit = Team.submit

    def counting_submit(self, fn, *args, **kwargs):
        submitted.append(fn)
        return real_submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(Team, "submit", counting_submit)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        reports = [ENGINES[engine](threads) for threads in (1, 2, 3)]
    finally:
        sys.setswitchinterval(interval)
    assert reports[0] == reports[1] == reports[2]
    assert submitted, "no work went to the pool"


def test_engines_give_the_same_report_for_every_thread_count(monkeypatch):
    # Four usable cores, so that threads = 3 builds a real three-worker team
    # on any machine.
    monkeypatch.setattr(workers, "available_cores", lambda: 4)
    submitted = []
    real_submit = Team.submit

    def counting_submit(self, fn, *args, **kwargs):
        submitted.append(fn)
        return real_submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(Team, "submit", counting_submit)
    prices = [implicit_price(SPREAD, BrownianFabric(13), paths=BLOCK_WIDTH + 100,
                             fine_exponent=6, threads=t) for t in (1, 2, 3)]
    assert prices[0] == prices[1] == prices[2]
    reports = [mlmc_estimate(MANY_BLOCKS, BrownianFabric(13), threads=t)
               for t in (1, 2, 3)]
    assert reports[0] == reports[1] == reports[2]
    # Streams of slabs went to the pool, and so did pieces of the mix and
    # whole batches of small blocks.
    names = {getattr(fn, "func", fn).__name__ for fn in submitted}
    assert names == {"fill", "mix", "batch_moments"}


@pytest.mark.parametrize("engine", [
    # A pair of blocks and a lone partial one.
    lambda threads: implicit_price(SPREAD, BrownianFabric(37),
                                   paths=2 * BLOCK_WIDTH + 100, fine_exponent=6,
                                   threads=threads),
    # Levels 3 and 4 (64 and 256 steps) are walked in slabs.  Both pilots
    # end mid-block, and level 3's final pass resumes block 0 at row 2000
    # and ends in block 1 (7860 paths).
    lambda threads: mlmc_estimate(
        dataclasses.replace(SPREAD, max_level=4, epsilon=1.2e-5, pilot_paths=2000),
        BrownianFabric(37), threads=threads),
], ids=["implicit-spread", "mlmc-spread"])
def test_two_factor_slab_walks_give_the_same_report_for_every_thread_count(
        engine, monkeypatch):
    # Four usable cores, so that threads = 3 builds a real three-worker team
    # on any machine, and a short switch interval that interleaves the
    # workers as often as the interpreter allows.
    monkeypatch.setattr(workers, "available_cores", lambda: 4)
    slabbed = []
    real_by_slabs = blocks.by_slabs

    def counting_by_slabs(values, batch, dtypes):
        slabbed.append(len(batch))
        return real_by_slabs(values, batch, dtypes)

    monkeypatch.setattr(blocks, "by_slabs", counting_by_slabs)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        reports = [engine(threads) for threads in (1, 2, 3)]
    finally:
        sys.setswitchinterval(interval)
    assert reports[0] == reports[1] == reports[2]
    assert max(slabbed) >= 2, "no batch of several blocks was drawn in slabs"


@pytest.mark.parametrize("cap", [BLOCK_WIDTH, 3 * BLOCK_WIDTH, 4 * BLOCK_WIDTH,
                                 blocks._BATCH_NORMALS])
def test_batches_give_the_same_report_for_every_cap_and_thread_count(cap, monkeypatch):
    # The reference walks one block at a time on the calling thread (a cap
    # below one block).  With a small cap, level 0 runs one block per batch
    # and many batches are in flight; a short switch interval interleaves the
    # workers as often as the interpreter allows.  No cap and no thread count
    # may change a bit.
    monkeypatch.setattr(blocks, "_BATCH_NORMALS", 1)
    expected = mlmc_estimate(MANY_BLOCKS, BrownianFabric(17), threads=1)
    monkeypatch.setattr(workers, "available_cores", lambda: 4)
    monkeypatch.setattr(blocks, "_BATCH_NORMALS", cap)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for threads in (1, 2, 3):
            assert mlmc_estimate(MANY_BLOCKS, BrownianFabric(17),
                                 threads=threads) == expected
    finally:
        sys.setswitchinterval(interval)


def test_imap_yields_in_order_and_raises_at_the_failing_item():
    crew = Team(3)
    try:
        assert list(crew.imap(lambda x: x * x, list(range(10)))) == \
            [x * x for x in range(10)]
        assert list(crew.imap(abs, [])) == []

        def fail_at_four(x):
            if x == 4:
                raise KeyError(x)
            return x

        seen = []
        with pytest.raises(KeyError):
            for value in crew.imap(fail_at_four, list(range(10))):
                seen.append(value)
        assert seen == [0, 1, 2, 3]
    finally:
        crew.close()


def test_split_mix_under_thread_switching():
    # More workers than cores and a short switch interval: an overlap or a
    # lost chunk between the threads' column ranges would change the bits.
    fabric = BrownianFabric(83)
    w, w_perp = blocks.Stream(fabric, 6, 256, 1.0 / 256,
                              factors=2).draw([(0, 0, BLOCK_WIDTH)])
    expected = correlate(w, w_perp, -0.7)
    interval = sys.getswitchinterval()
    crew = Team(8)
    try:
        sys.setswitchinterval(1e-6)
        for row_lo in (0, 1000):
            out = w_perp[row_lo:].copy(order="F")
            correlate(w[row_lo:], out, -0.7, out=out, team=crew)
            assert np.array_equal(out, expected[row_lo:])
    finally:
        sys.setswitchinterval(interval)
        crew.close()
