"""The one way the engines draw and walk their paths, and the one moment
accumulator.

Paths are cut into chunks (block, row_lo, row_hi), rows of one Brownian
block, and those into batches of whole blocks.  `fold` draws each batch
from a `Stream` (one grid's block streams and the cursors that resume
them), steps and reduces it to one `Moments` per chunk, so no block
outlives its batch.  It opens the worker team and alone decides how it is
used, from the row length: batches of short rows run on the workers, and a
batch of long rows is drawn and stepped in row slabs (`by_slabs`), at most
the rows one stepping call covers (`Stream.slab_rows`) in flight.  Either
each slab holds a share of every block of the batch, its streams filled at
once on the team, or, in a fold `by_block` on two workers, each worker
walks its own block in slabs of half those rows."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import workers
from .brownian import BLOCK_WIDTH, BrownianFabric

# Storage order of drawn increments: each time step is one contiguous column.
# A speed choice only; no value depends on it.
_LAYOUT = "F"

# Normals per factor in one batch of whole blocks, the unit of work a worker
# draws, steps and reduces.  A block of longer rows is drawn in row slabs.
_BATCH_NORMALS = 1 << 17


def chunks(start: int, stop: int) -> list[tuple[int, int, int]]:
    """(block, row_lo, row_hi) for paths [start, stop), block by block."""
    out = []
    while start < stop:
        block, row_lo = divmod(start, BLOCK_WIDTH)
        row_hi = min(BLOCK_WIDTH, row_lo + (stop - start))
        out.append((block, row_lo, row_hi))
        start += row_hi - row_lo
    return out


class Stream:
    """The block streams of one grid: `factors` streams per block of the
    fabric at `level`, rows of `n` increments of variance `h`.

    `draw` continues a block where the last draw of it stopped: a chunk that
    ends inside its block leaves its cursor in the stream's own store, keyed
    by (factor, block), so one stream serves a pilot and its final pass
    without drawing a row twice.  Draws running at once must take
    different blocks, as `fold`'s do.

    Every factor is drawn into one array, so one kernel call can step all
    factors' rows; `fold` cuts long rows into slabs of at most `slab_rows`
    = BLOCK_WIDTH // factors rows, so one slab is BLOCK_WIDTH stacked rows.
    """

    def __init__(self, fabric: BrownianFabric, level: int, n: int, h: float,
                 factors: int = 1):
        self.fabric, self.level, self.n, self.factors = fabric, level, n, factors
        self.slab_rows = BLOCK_WIDTH // factors
        self._scale = math.sqrt(h)
        self._cursors = {}

    def draw(self, batch, team=None) -> np.ndarray:
        """Brownian increments of the batch's rows, one column-major
        (factors × rows, n) array whose f-th row block holds factor f's
        rows, stacked in chunk order.

        Each chunk's rows are drawn, times sqrt(h), by its block's cursor if
        that stopped at the chunk's first row, else by a new one advanced to
        it, straight into its rows of its factor's row block.  A
        `workers.Team` fills every (factor, chunk) stream of the batch at
        once, one a thread.
        """
        spans = rows(batch)
        out = np.empty((self.factors * spans[-1].stop, self.n), order=_LAYOUT)
        factors = np.split(out, self.factors)
        streams = [(factor, chunk, span) for factor in range(self.factors)
                   for chunk, span in zip(batch, spans)]

        def fill(first: int, last: int) -> None:
            for factor, (block, lo, hi), span in streams[first:last]:
                cursor = self._cursors.pop((factor, block), None)
                if cursor is None or cursor.row != lo:
                    cursor = self.fabric.block_cursor(self.level, block, self.n,
                                                      factor=factor)
                    if lo:
                        cursor.fill(None, lo)
                keep = hi < BLOCK_WIDTH
                cursor.fill(factors[factor][span], keep=keep, scale=self._scale)
                if keep:
                    self._cursors[(factor, block)] = cursor

        if team is None or len(streams) < 2:
            fill(0, len(streams))
        else:
            team.run_split(fill, len(streams))
        return out


def slabs(batch, count: int | None = None) -> list[list[tuple[int, tuple[int, int, int]]]]:
    """Cut each chunk of `batch` into `count` row spans (default: as many
    as there are chunks), one per slab.

    Slab s lists (chunk index, (block, row_lo, row_hi)) for the s-th span of
    every chunk that has one.  A chunk's span sizes differ by at most one
    row, and the longer spans are dealt to the slabs in turn, chunk after
    chunk, so no slab holds more than ceil(rows / count) of the batch's
    rows: k whole blocks cut into k slabs give k slabs of BLOCK_WIDTH rows.
    """
    count = count or len(batch)
    out = [[] for _ in range(count)]
    turn = 0  # the slab that takes the next longer span
    for c, (block, lo, hi) in enumerate(batch):
        base, extra = divmod(hi - lo, count)
        for s in range(count):
            size = base + ((s - turn) % count < extra)
            if size:
                out[s].append((c, (block, lo, lo + size)))
                lo += size
        turn = (turn + extra) % count
    return out


def by_slabs(values, batch, dtypes, slab_rows: int = BLOCK_WIDTH) -> tuple[np.ndarray, ...]:
    """`values(batch)`, computed on the row slabs of the batch in turn.

    `values(chunks)` returns one array per entry of `dtypes`, each with one
    entry per row of `chunks`, chunk after chunk; each path's values must
    depend on its own increments only.  The batch is cut into the fewest
    slabs, and at least one per chunk, that hold at most `slab_rows` rows
    each.  Each slab's values are copied to their rows, so the result is
    what one `values(batch)` call would give, while only one slab of
    increments is held at a time.  The result is allocated before the first
    slab is drawn: allocated after, it would sit among the freed slab
    temporaries and keep the next slab from reusing their memory.
    """
    spans = rows(batch)
    count = max(len(batch), -(-spans[-1].stop // slab_rows))
    if count == 1:
        return values(batch)
    out = tuple(np.empty(spans[-1].stop, dtype) for dtype in dtypes)
    for slab in filter(None, slabs(batch, count)):
        # A call, so the slab's values are freed before the next slab.
        _place(out, values([chunk for _, chunk in slab]), slab, spans, batch)
    return out


def _place(out, parts, slab, spans, batch) -> None:
    at = 0
    for c, (_, lo, hi) in slab:
        row = spans[c].start + lo - batch[c][1]
        for whole, part in zip(out, parts):
            whole[row:row + hi - lo] = part[at:at + hi - lo]
        at += hi - lo


def walk(step, y, increments: np.ndarray, h: float, integrand=None, scratch=None):
    """A scheme stepped over the n columns of `increments`, one path a row,
    by `y = step(y, column)`: terminal states and, with an `integrand`, the
    left Riemann sum of integrand(state) * h (else None).

    `y` is the step-0 state: one element when every path starts at one
    value, so step 0 and its integrand term are computed once and broadcast.
    Each term is made in `scratch`, a row that `step` leaves free between
    steps, else in one of the driver's own: no per-step temporary.  The
    columns are the rows of `increments.T`, and h is a 0-d array, so no
    step parses an index or converts a float."""
    incs = np.asarray(increments, dtype=float)
    rows, n = incs.shape
    integral = None if integrand is None else np.zeros(rows)
    scratch = np.empty(rows) if scratch is None and integrand is not None else scratch
    h = np.array(h, dtype=float)
    for column in incs.T:
        if integral is not None:
            integral += np.multiply(integrand(y), h, out=scratch)
        y = step(y, column)
    return (y if n else np.resize(y, rows)), integral


def rows(batch) -> list[slice]:
    """The slice of each chunk's rows in arrays stacked in chunk order."""
    out, at = [], 0
    for _, lo, hi in batch:
        out.append(slice(at, at + hi - lo))
        at += hi - lo
    return out


def fold(values, stream: Stream, start: int, stop: int, totals, *,
         threads: int, check=None, by_block: bool = False) -> None:
    """Fold the values of paths [start, stop), drawn from `stream`, into
    `totals`, a sequence of `Moments`, on a `workers.team(threads)`.

    `values(increments, team)` maps the drawn increments of some rows (see
    `Stream.draw`) to one array per entry of `totals`, each with one value
    per row; each path's values must depend on its own increments only.
    `check(chunks, joined)`, if given, sees a batch's values joined in row
    order, and may raise.  Each chunk's `Moments` are merged into `totals`
    on the calling thread, one chunk at a time in block order, so no team
    changes a bit.

    The row length `stream.n` picks how the team is used.  Blocks of at
    most `_BATCH_NORMALS` normals go in batches of whole blocks holding at
    most that many; up to `team.size` batches run at once (`Team.imap`),
    each drawn, stepped and reduced to `Moments` on one worker, which takes
    the next batch as soon as it is free, and `values` gets no team.  Longer
    rows take `team.size` blocks a batch, drawn in row slabs (`by_slabs`)
    of at most `stream.slab_rows` rows each, whose streams the team fills
    at once, and stepped on the calling thread.  `values` gets the team to
    hand it work that releases the lock while that thread steps: the
    correlation mix, split over the team, or a convergence study's coupled
    grids, built on a pool thread.

    `by_block` walks long rows one block a worker instead (`Team.imap`),
    where that was measured to pay: a team of two and a range of two or
    more blocks.  Each worker draws its block in row slabs of
    `stream.slab_rows // 2` rows and `values` gets no team, so the two
    slabs in flight hold at most `stream.slab_rows` rows, and every
    stepping call covers half the shared slab.  Its caller lets one thread
    step at a time (two stepping at once convoy on the interpreter lock),
    so one worker's streams fill while the other steps.  At every team size
    and in either walk, the slabs in flight hold at most BLOCK_WIDTH
    stacked rows: with two factors, half a block of each.
    """
    per_batch = _BATCH_NORMALS // (BLOCK_WIDTH * stream.n)
    todo = chunks(start, stop)
    with workers.team(threads) as team:
        per_block = (by_block and not per_batch and team is not None
                     and team.size == 2 and len(todo) >= 2)
        size = per_batch or (1 if team is None or per_block else team.size)
        batches = [todo[i:i + size] for i in range(0, len(todo), size)]
        crew, slab_rows = ((None, stream.slab_rows // 2) if per_block
                           else (team, stream.slab_rows))

        def batch_moments(batch):
            if per_batch:
                joined = values(stream.draw(batch), None)
            else:
                # The increments are a call argument only, so each slab is
                # released before the next one is drawn.
                joined = by_slabs(lambda part: values(stream.draw(part, crew), crew),
                                  batch, [float] * len(totals), slab_rows)
            if check is not None:
                check(batch, joined)
            return [[Moments.of(v[r]) for v in joined] for r in rows(batch)]

        run = team.imap if team is not None and (per_batch or per_block) else map
        for items in run(batch_moments, batches):
            for item in items:
                for total, moments in zip(totals, item):
                    total.merge(moments)


@dataclass
class Moments:
    """Count, block-order sum and M2 (sum of squared deviations) of values.

    `Moments.of` takes one chunk, on any thread; `merge` folds chunks in
    block order with the pairwise update of Chan, Golub and LeVeque
    ("Algorithms for computing the sample variance", 1983).  The mean is the
    block-order sum over the count.  Each chunk's M2 is taken around its own
    mean, and means are kept relative to a chunk's first value (`shift`): a
    constant stream has M2 exactly 0, and values with a small spread far
    from zero keep their digits.
    """

    count: int = 0
    total: float = 0.0
    m2: float = 0.0
    shift: float = 0.0
    centre: float = 0.0  # the mean minus the shift

    @classmethod
    def of(cls, values: np.ndarray) -> "Moments":
        """The moments of one chunk of values."""
        total = float(np.add.reduce(values))  # np.sum without its wrapper
        shift = float(values[0])
        residuals = np.subtract(values, shift)
        centre = float(np.add.reduce(residuals)) / len(values)
        residuals -= centre
        m2 = float(np.add.reduce(np.square(residuals, out=residuals)))
        return cls(len(values), total, m2, shift, centre)

    def merge(self, other: "Moments") -> None:
        """Fold `other`, the moments of the values that follow these."""
        if self.count == 0:
            vars(self).update(vars(other))
            return
        delta = (other.shift - self.shift) + (other.centre - self.centre)
        count = self.count + other.count
        self.total += other.total
        self.m2 += other.m2 + delta * delta * (self.count * other.count / count)
        self.centre += delta * (other.count / count)
        self.count = count

    @property
    def mean(self) -> float:
        return self.total / self.count

    @property
    def var(self) -> float:
        """Population variance M2 / count."""
        return self.m2 / self.count
