from __future__ import annotations

import dataclasses
import os
import random
import signal
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from sdeproj import BLOCK_WIDTH, BrownianFabric, correlate
from sdeproj import blocks, mlmc, workers
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
    # Record the functions that `run_split` and `imap` ran on a pool thread.
    on_pool = set()

    def recording(method):
        def record(self, fn, items):
            def call(*args):
                if threading.current_thread() is not threading.main_thread():
                    on_pool.add(fn.__name__)
                return fn(*args)
            return method(self, call, items)
        return record

    # A batch of whole blocks is drawn with no team and reduced to `Moments`
    # by one `batch_moments` call: record the thread of each stage.
    batch_threads = {"draw": set(), "reduce": set()}
    real_draw, real_of = blocks.Stream.draw, blocks.Moments.of.__func__

    def recording_draw(self, batch, team=None):
        if team is None:
            batch_threads["draw"].add(threading.current_thread())
        return real_draw(self, batch, team)

    def recording_of(cls, values):
        batch_threads["reduce"].add(threading.current_thread())
        return real_of(cls, values)

    monkeypatch.setattr(Team, "run_split", recording(Team.run_split))
    monkeypatch.setattr(Team, "imap", recording(Team.imap))
    prices = [implicit_price(SPREAD, BrownianFabric(13), paths=BLOCK_WIDTH + 100,
                             fine_exponent=6, threads=t) for t in (1, 2, 3)]
    assert prices[0] == prices[1] == prices[2]
    monkeypatch.setattr(blocks.Stream, "draw", recording_draw)
    monkeypatch.setattr(blocks.Moments, "of", classmethod(recording_of))
    reports = [mlmc_estimate(MANY_BLOCKS, BrownianFabric(13), threads=t)
               for t in (1, 2, 3)]
    assert reports[0] == reports[1] == reports[2]
    # Streams of slabs ran on the pool, and so did pieces of the mix and
    # `fold`'s batches of whole blocks.
    assert {"fill", "mix", "batch_moments"} <= on_pool
    # Whole batches were drawn and reduced on pool threads.
    pool = (batch_threads["draw"] & batch_threads["reduce"]) \
        - {threading.main_thread()}
    assert pool, "no batch of whole blocks ran on a pool thread"


@pytest.mark.parametrize("engine, by_block", [
    # Two blocks and a partial one: with two workers, each block is walked
    # on its own pool thread; three workers draw all three in one batch.
    (lambda threads: implicit_price(SPREAD, BrownianFabric(37),
                                    paths=2 * BLOCK_WIDTH + 100, fine_exponent=6,
                                    threads=threads), True),
    # Levels 3 and 4 (64 and 256 steps) are walked in slabs.  Both pilots
    # end mid-block, and level 3's final pass resumes block 0 at row 2000
    # and ends in block 1 (7860 paths).
    (lambda threads: mlmc_estimate(
        dataclasses.replace(SPREAD, max_level=4, epsilon=1.2e-5, pilot_paths=2000),
        BrownianFabric(37), threads=threads), False),
], ids=["implicit-spread", "mlmc-spread"])
def test_two_factor_slab_walks_give_the_same_report_for_every_thread_count(
        engine, by_block, monkeypatch):
    # Four usable cores, so that threads = 3 builds a real three-worker team
    # on any machine, and a short switch interval that interleaves the
    # workers as often as the interpreter allows.
    monkeypatch.setattr(workers, "available_cores", lambda: 4)
    slabbed, pooled = [], []
    real_by_slabs = blocks.by_slabs

    def counting_by_slabs(values, batch, *args):
        slabbed.append(len(batch))
        if threading.current_thread() is not threading.main_thread():
            pooled.append(len(batch))
        return real_by_slabs(values, batch, *args)

    monkeypatch.setattr(blocks, "by_slabs", counting_by_slabs)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        reports = [engine(threads) for threads in (1, 2, 3)]
    finally:
        sys.setswitchinterval(interval)
    assert reports[0] == reports[1] == reports[2]
    assert max(slabbed) >= 2, "no batch of several blocks was drawn in slabs"
    if by_block:
        # At threads 2, each block of the range is one batch on a pool thread.
        assert pooled == [1, 1, 1]


# Each price engine, and the stepping call it holds the stepping gate around.
GATED = {
    "implicit-spread": (lambda paths, threads: implicit_price(
        SPREAD, BrownianFabric(41), paths=paths, fine_exponent=6, threads=threads),
        "_payoff_values"),
    "gl-exact": (lambda paths, threads: gl_exact_price(
        GL, BrownianFabric(41), paths=paths, fine_exponent=6, threads=threads),
        "ginzburg_landau_terminal"),
}


@pytest.mark.parametrize("engine", list(GATED))
def test_price_engines_walk_each_block_on_one_worker_and_step_one_at_a_time(
        engine, monkeypatch):
    # Three blocks and a partial one of 64 steps: with two workers each
    # block is drawn in row slabs on one pool thread, and the gate lets one
    # thread step at a time.  Three workers, and two on a range of one
    # block, keep the shared slab: its streams filled on the team, its
    # stepping on the calling thread.  Four usable cores and a short switch
    # interval, as above.
    monkeypatch.setattr(workers, "available_cores", lambda: 4)
    price, stepper = GATED[engine]
    lock = threading.Lock()
    stepping = {"now": 0, "most": 0, "threads": set()}
    draws = []
    real_step, real_draw = getattr(mlmc, stepper), blocks.Stream.draw

    def counted_step(*args):
        with lock:
            stepping["now"] += 1
            stepping["most"] = max(stepping["most"], stepping["now"])
            stepping["threads"].add(threading.current_thread())
        try:
            return real_step(*args)
        finally:
            with lock:
                stepping["now"] -= 1

    def recorded_draw(self, batch, team=None):
        draws.append((batch, team, threading.current_thread()))
        return real_draw(self, batch, team)

    def run(paths, threads):
        draws.clear()
        stepping["threads"].clear()
        return repr(price(paths, threads))

    def assert_shared_slab(blocks_a_batch):
        assert all(isinstance(team, Team) and thread is threading.main_thread()
                   for _, team, thread in draws)
        assert max(len(batch) for batch, _, _ in draws) == blocks_a_batch
        assert stepping["threads"] == {threading.main_thread()}

    monkeypatch.setattr(mlmc, stepper, counted_step)
    monkeypatch.setattr(blocks.Stream, "draw", recorded_draw)
    interval = sys.getswitchinterval()
    results = []
    try:
        sys.setswitchinterval(1e-6)
        for threads in (1, 2, 3):
            results.append(run(3 * BLOCK_WIDTH + 100, threads))
            if threads == 2:
                for block in range(4):
                    walks = [(thread, team, len(batch))
                             for batch, team, thread in draws if batch[0][0] == block]
                    assert len({thread for thread, _, _ in walks}) == 1
                    assert walks[0][0] is not threading.main_thread()
                    assert all(team is None and chunks == 1 for _, team, chunks in walks)
                    assert len(walks) >= (2 if block < 3 else 1)
            elif threads == 3:
                assert_shared_slab(3)
        run(BLOCK_WIDTH, 2)
        assert_shared_slab(1)
    finally:
        sys.setswitchinterval(interval)
    assert results[0] == results[1] == results[2]
    assert stepping["most"] == 1


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


def test_imap_runs_free_under_thread_switching():
    # Random per-item sleeps and a short switch interval interleave the
    # threads in many orders.  Every item from a random index on fails, so
    # the first failing item is the one whose error must come out; some
    # runs stop consuming early instead.
    rng = random.Random(2024)
    size = 3
    before = threading.active_count()
    crew = Team(size)
    futures = []
    real_submit = crew.submit

    def recording_submit(fn, *args):
        futures.append(real_submit(fn, *args))
        return futures[-1]

    crew.submit = recording_submit
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for trial in range(30):
            count = rng.randrange(1, 50)
            fail = rng.randrange(count) if trial % 3 == 1 else count
            stop = rng.randrange(count) if trial % 3 == 2 else count
            delays = [rng.uniform(5e-4, 3e-3) for _ in range(count)]
            lock = threading.Lock()
            log = {"running": 0, "peak": 0, "failed": False}
            started, finished, late = [], [], []

            def call(j):
                with lock:
                    log["running"] += 1
                    log["peak"] = max(log["peak"], log["running"])
                    started.append(j)
                    if log["failed"]:
                        late.append(threading.current_thread())
                time.sleep(delays[j])
                with lock:
                    log["running"] -= 1
                    finished.append(j)
                    log["failed"] = log["failed"] or j >= fail
                if j >= fail:
                    raise KeyError(j)
                return j * j

            seen, raised = [], None
            try:
                for value in crew.imap(call, list(range(count))):
                    seen.append(value)
                    if len(seen) > stop:
                        break
            except KeyError as error:
                raised = error.args[0]
            expected = min(fail, stop + 1)
            assert seen == [j * j for j in range(expected)]
            assert raised == (fail if fail < count and stop >= fail else None)
            assert log["peak"] <= size
            # A thread that saw a failure before its next claim starts
            # nothing more; another can start one call while the error is
            # on its way into the map.
            assert len(late) == len(set(late)) <= size - 1
            # Nothing runs once the map has returned, and nothing starts
            # later: the pool's worker loops have all returned.
            assert sorted(started) == sorted(finished)
            assert all(future.done() for future in futures)
            time.sleep(5e-3)
            assert len(started) == len(finished) == len(set(started))
    finally:
        sys.setswitchinterval(interval)
        crew.close()
    assert threading.active_count() == before


def test_imap_drops_each_result_once_it_is_yielded():
    class Result:
        pass

    crew = Team(2)
    try:
        results = crew.imap(lambda x: Result(), list(range(6)))
        first = next(results)
        for _ in range(5):
            dropped = weakref.ref(first)
            first = next(results)
            assert dropped() is None
    finally:
        crew.close()


def test_imap_raises_a_ctrl_c_once_the_running_calls_have_finished():
    # Item 1 sends the process a SIGINT once the calling thread waits for
    # item 0, which takes 2 s.  The interrupt reaches the calling thread,
    # every started item has finished when it does, and none starts later.
    crew = Team(2)
    lock = threading.Lock()
    started, finished = [], []

    def call(j):
        with lock:
            started.append(j)
        if j == 0:
            time.sleep(2.0)
        elif j == 1:
            time.sleep(0.2)
            os.kill(os.getpid(), signal.SIGINT)
        else:
            time.sleep(0.05)
        with lock:
            finished.append(j)
        return j

    try:
        begun = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            for _ in crew.imap(call, list(range(8))):
                pass
        assert time.monotonic() - begun >= 2.0
        with lock:
            assert sorted(started) == sorted(finished)
            at_raise = list(started)
        assert 0 in at_raise and 1 in at_raise
        time.sleep(0.2)
        assert started == at_raise
    finally:
        crew.close()


def test_imap_yields_every_result_before_a_failure_that_comes_first():
    # Item 0 blocks until item 5 has failed; the results of items 0 to 4
    # are still due and come out before item 5's error.
    crew = Team(3)
    failed = threading.Event()

    def call(j):
        if j == 0:
            assert failed.wait(5.0)
            time.sleep(0.05)
        if j == 5:
            failed.set()
            raise KeyError(j)
        return j

    seen = []
    try:
        with pytest.raises(KeyError) as raised:
            for value in crew.imap(call, list(range(10))):
                seen.append(value)
        assert seen == [0, 1, 2, 3, 4]
        assert raised.value.args == (5,)
    finally:
        crew.close()


def test_a_team_thread_cannot_wait_on_its_own_team():
    # A pool thread that waited on the pool's queue would occupy it; the
    # map raises instead of hanging, and the team keeps working.
    crew = Team(2)
    try:
        with pytest.raises(RuntimeError):
            list(crew.imap(lambda x: list(crew.imap(abs, [x])), [1, 2]))
        with pytest.raises(RuntimeError):
            list(crew.imap(lambda x: crew.run_split(lambda lo, hi: None, 4), [1]))
        assert list(crew.imap(abs, [-1, -2])) == [1, 2]
    finally:
        crew.close()


def test_split_mix_under_thread_switching():
    # More workers than cores and a short switch interval: an overlap or a
    # lost chunk between the threads' column ranges would change the bits.
    fabric = BrownianFabric(83)
    w, w_perp = np.split(blocks.Stream(fabric, 6, 256, 1.0 / 256,
                                       factors=2).draw([(0, 0, BLOCK_WIDTH)]), 2)
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
