import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdeproj import BLOCK_WIDTH, BrownianFabric, mlmc, workers
from sdeproj.blocks import Moments, Stream, by_slabs, chunks, fold, rows, slabs
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
    assert rows([(4, 77, 90), (5, 0, 3)]) == [slice(0, 13), slice(13, 16)]


class _Merged(list):
    """Stands in for a `Moments` total: records what is merged, and where."""

    def merge(self, moments):
        self.append((moments.shift, moments.count, threading.get_ident()))


# Row lengths whose blocks go in batches of 1, 2 and 5 blocks, or, for 0,
# are drawn in row slabs.
_ROW_LENGTHS = {0: 64, 1: 32, 2: 16, 5: 6}


def _paths(batch):
    return np.concatenate([block * BLOCK_WIDTH + np.arange(lo, hi, dtype=float)
                           for block, lo, hi in batch])


class _Paths:
    """Stands in for a `Stream` of rows of `n` steps: draws each row's path
    index, and records which teams fill its draws."""

    def __init__(self, n):
        self.n = n
        self.teams = set()

    def draw(self, batch, team=None):
        self.teams.add(team)
        return (_paths(batch),)


@pytest.mark.parametrize("blocks", [0, 1, 2, 5])
@pytest.mark.parametrize("size", [None, 3])
def test_walk_yields_each_chunk_in_block_order(blocks, size, monkeypatch):
    # `fold` merges each chunk once, in block order, on the calling thread.
    # The row length picks the batch size; long rows take one block per
    # worker, drawn in slabs, and only they hand the stream and `values`
    # the team.  `size` workers, or none.
    monkeypatch.setattr(workers, "available_cores", lambda: 4)
    threads = size or 1
    start, stop = 100, 6 * BLOCK_WIDTH + 17
    stream = _Paths(_ROW_LENGTHS[blocks])
    slabbed = blocks == 0 and size is not None

    def values(drawn, team):
        assert isinstance(team, Team) if slabbed else team is None
        assert team in stream.teams
        (paths,) = drawn
        return paths, -paths

    def check(batch, joined):
        assert np.array_equal(joined[0], _paths(batch))
        assert np.array_equal(joined[1], -_paths(batch))
        batches.append(batch)

    batches, totals = [], (_Merged(), _Merged())
    fold(values, stream, start, stop, totals, threads=threads, check=check)
    # Batches on a team are checked on their workers, in any order.
    batches.sort()
    todo = chunks(start, stop)
    assert [c for batch in batches for c in batch] == todo
    width = blocks or size or 1
    assert all(len(batch) == width for batch in batches[:-1])
    assert 0 < len(batches[-1]) <= width
    here = threading.get_ident()
    assert totals[0] == [(block * BLOCK_WIDTH + lo, hi - lo, here)
                         for block, lo, hi in todo]
    assert totals[1] == [(-shift, count, thread) for shift, count, thread in totals[0]]


@settings(max_examples=300, deadline=None)
@given(spans=st.lists(st.tuples(st.integers(0, BLOCK_WIDTH - 1),
                                st.integers(1, BLOCK_WIDTH)), min_size=1, max_size=6))
def test_slabs_cut_every_chunk_in_row_order_and_stay_within_the_longest_chunk(spans):
    batch = [(block, min(lo, BLOCK_WIDTH - size), min(lo, BLOCK_WIDTH - size) + size)
             for block, (lo, size) in enumerate(spans)]
    cut = slabs(batch)
    assert len(cut) == len(batch)
    for slab in cut:
        assert sum(hi - lo for _, (_, lo, hi) in slab) <= max(hi - lo for _, lo, hi in batch)
        assert [c for c, _ in slab] == sorted(c for c, _ in slab)
        assert all(lo < hi for _, (_, lo, hi) in slab)
    for c, (block, lo, hi) in enumerate(batch):
        pieces = [piece for slab in cut for i, piece in slab if i == c]
        assert pieces[0][1] == lo and pieces[-1][2] == hi
        assert all(p[0] == block for p in pieces)
        assert all(a[2] == b[1] for a, b in zip(pieces, pieces[1:]))
        sizes = [p[2] - p[1] for p in pieces]
        assert max(sizes) - min(sizes) <= 1


def _block_rows(fabric, level, batch, n, factor):
    return np.concatenate([fabric.block_normals(level, block, n, factor=factor,
                                                rows=hi)[lo:]
                           for block, lo, hi in batch])


@pytest.mark.parametrize("n", [1, 7, 1 << 12])
@pytest.mark.parametrize("batch", [
    [(0, 0, BLOCK_WIDTH)],                                   # one block
    [(3, 0, BLOCK_WIDTH), (4, 0, 1001)],                     # a partial last block
    [(0, 5, BLOCK_WIDTH), (1, 0, BLOCK_WIDTH), (2, 0, 7)],  # rows not divisible by 3
    [(6, 0, BLOCK_WIDTH), (7, 0, BLOCK_WIDTH), (8, 0, BLOCK_WIDTH), (9, 0, 3)],
], ids=["1", "2-partial", "3-uneven", "4-short-last"])
@pytest.mark.parametrize("size", [None, 3])
def test_slab_draws_equal_the_rows_of_whole_blocks(batch, n, size):
    # Each (factor, chunk) stream continues across the slabs through its
    # cursor and, with a team, is filled on whichever thread takes it.  A
    # short switch interval interleaves the threads as often as the
    # interpreter allows.
    if n == 1 << 12:  # keep the arrays small at long rows
        batch = [(block, lo, min(hi, lo + 150)) for block, lo, hi in batch]
    fabric = BrownianFabric(29)
    stream = Stream(fabric, 5, n, 1.0, factors=2)
    team = None if size is None else Team(size)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        got = by_slabs(lambda chunk_list: stream.draw(chunk_list, team),
                       batch, [(float, n)] * 2)
    finally:
        sys.setswitchinterval(interval)
        if team is not None:
            team.close()
    for factor, drawn in enumerate(got):
        expected = _block_rows(fabric, 5, batch, n, factor)
        assert drawn.shape == expected.shape
        assert np.array_equal(drawn, expected)
    # A chunk left short of its block's end keeps its cursors there.
    assert sorted(stream._cursors) == sorted((factor, block) for block, _, hi in batch
                                             for factor in (0, 1) if hi < BLOCK_WIDTH)


_EXPECTED = [BrownianFabric(31).block_normals(2, 4, 16, factor=factor) * 0.5
             for factor in (0, 1)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cuts=st.sets(st.integers(1, BLOCK_WIDTH - 1), max_size=5),
       fresh=st.tuples(st.integers(0, BLOCK_WIDTH - 1), st.integers(1, BLOCK_WIDTH)))
def test_increments_resume_a_block_where_the_last_chunk_stopped(cuts, fresh):
    # Any cuts of block 4, drawn in order through one stream, continue its
    # streams from their cursors, and leave none behind at the block's end.
    stream = Stream(BrownianFabric(31), 2, 16, 0.25, factors=2)
    bounds = [0] + sorted(cuts) + [BLOCK_WIDTH]
    parts = [stream.draw([(4, lo, hi)]) for lo, hi in zip(bounds, bounds[1:])]
    for factor, expected in enumerate(_EXPECTED):
        assert np.array_equal(np.concatenate([part[factor] for part in parts]),
                              expected)
    assert stream._cursors == {}
    # A chunk that starts where no cursor stopped draws its block afresh up
    # to its first row.
    stop = min(bounds[1], BLOCK_WIDTH - 1)
    stream.draw([(4, 0, stop)])
    lo = fresh[0] + (fresh[0] >= stop)
    hi = min(BLOCK_WIDTH, lo + fresh[1])
    if lo < BLOCK_WIDTH:
        drawn = stream.draw([(4, lo, hi)])
        for factor, expected in enumerate(_EXPECTED):
            assert np.array_equal(drawn[factor], expected[lo:hi])


def test_zcb_fine_variance_matches_np_var_at_tiny_noise():
    # Payoffs within about 1e-8 of each other: the sum of squares minus the
    # squared mean cancels to a multiple of 2^-52 here.
    config = MlmcConfig(models=(cir_model(2.0, 1.0, 1e-7, 1.0),), payoff="zcb",
                        horizon=1.0, epsilon=1e-3)
    report = mlmc_estimate(config, BrownianFabric(11))
    level = report.levels[3]
    drawn = mlmc._stream(config, BrownianFabric(11), 3).draw(chunks(0, level.paths))
    fine, coarse = mlmc._pair_batch(config, mlmc._projected(config), 3, drawn)
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
