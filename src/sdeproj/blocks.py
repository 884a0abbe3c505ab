"""The one way the engines walk their paths, and the one moment accumulator.

Paths are cut into chunks (block, row_lo, row_hi), rows of one Brownian
block, and those into batches of whole blocks.  A batch is drawn, stepped
and reduced to one small item per chunk, so no block outlives it."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .brownian import BLOCK_WIDTH, BrownianFabric


def chunks(start: int, stop: int) -> list[tuple[int, int, int]]:
    """(block, row_lo, row_hi) for paths [start, stop), block by block."""
    out = []
    while start < stop:
        block, row_lo = divmod(start, BLOCK_WIDTH)
        row_hi = min(BLOCK_WIDTH, row_lo + (stop - start))
        out.append((block, row_lo, row_hi))
        start += row_hi - row_lo
    return out


def increments(fabric: BrownianFabric, level: int, batch, n: int, h: float, *,
               factor: int = 0) -> np.ndarray:
    """Brownian increments of the batch's rows, stacked in chunk order.

    Each block is drawn from its own stream up to the chunk's last row; one
    chunk is a row slice of it, several are copied into one column-major array.
    """
    parts = (fabric.block_increments(level, block, n, h, factor=factor,
                                     rows=row_hi)[row_lo:]
             for block, row_lo, row_hi in batch)
    if len(batch) == 1:
        return next(parts)
    out = np.empty((sum(hi - lo for _, lo, hi in batch), n), order="F")
    at = 0
    for part in parts:
        out[at:at + len(part)] = part
        at += len(part)
    return out


def walk(step, start: int, stop: int, *, blocks: int = 1, team=None):
    """Yield, in block order, what `step` gives for each chunk of [start, stop).

    `step(batch)` gets the chunks of `blocks` whole blocks (at least one) and
    returns one item per chunk.  A `workers.Team` steps up to `team.size`
    batches at once; the items still arrive in block order.
    """
    todo = chunks(start, stop)
    size = max(1, blocks)
    batches = [todo[i:i + size] for i in range(0, len(todo), size)]
    for items in map(step, batches) if team is None else team.imap(step, batches):
        yield from items


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
