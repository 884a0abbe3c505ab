"""Counter-addressed Brownian increment streams.

Every random number in the package is drawn from a `BrownianFabric`, which
maps a structured address (tag, level, factor, path-or-block index) to an
independent Philox substream.  Regenerating the same address always
reproduces the same draws, regardless of how many other addresses were
consumed in between, so simulations are reproducible path-by-path and
level-by-level.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1

# Address layout inside the second Philox key word (high to low):
# 4-bit tag | 8-bit level | 8-bit factor | 44-bit index.
_TAG_PATH = 1
_TAG_BLOCK = 2
_INDEX_BITS = 44
_MAX_INDEX = 1 << _INDEX_BITS
_MAX_LEVEL = 256
_MAX_FACTOR = 256

#: Number of paths a block substream carries.  Fixed forever: changing it
#: would silently change every simulation output.
BLOCK_WIDTH = 4096

# Normals drawn per generator call when filling a block.  Successive calls
# continue one Philox stream, so the chunk size never changes a value; it
# only bounds the row-major staging buffer (1 MiB).  Capping elements rather
# than rows keeps short blocks at a single call.
_CHUNK_NORMALS = 1 << 17


def _splitmix64(x: int) -> int:
    """Finalize a seed with the splitmix64 avalanche function."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1E4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _pack(tag: int, level: int, factor: int, index: int) -> int:
    if not 0 <= level < _MAX_LEVEL:
        raise ValueError(f"level must be in [0, {_MAX_LEVEL}), got {level}")
    if not 0 <= factor < _MAX_FACTOR:
        raise ValueError(f"factor must be in [0, {_MAX_FACTOR}), got {factor}")
    if not 0 <= index < _MAX_INDEX:
        raise ValueError(f"index must be in [0, 2**{_INDEX_BITS}), got {index}")
    return (tag << 60) | (level << 52) | (factor << 44) | index


@dataclass(frozen=True)
class BrownianFabric:
    """Deterministic factory of independent Brownian increment streams.

    Args:
        master_seed: 64-bit unsigned seed.  Distinct seeds give statistically
            independent fabrics.
    """

    master_seed: int

    def __post_init__(self):
        if not 0 <= self.master_seed <= _MASK64:
            raise ValueError("master_seed must fit in an unsigned 64-bit int")

    def _generator(self, tag: int, level: int, factor: int, index: int) -> np.random.Generator:
        # The key must be a uint64 array: a plain list of ints above 2**63
        # would be coerced through float64, rounding away the low bits that
        # distinguish neighbouring addresses.
        key = np.array([_splitmix64(self.master_seed), _pack(tag, level, factor, index)],
                       dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def increments(self, path: int, level: int, n: int, h: float, *, factor: int = 0) -> np.ndarray:
        """Brownian increments for one path.

        Args:
            path: path index within the stream.
            level: level or grid-exponent tag separating resolutions.
            n: number of increments.
            h: time step; each increment is N(0, h).
            factor: sub-stream index, e.g. 1 for an independent second factor.

        Returns:
            Array of shape (n,).
        """
        if h <= 0:
            raise ValueError("h must be positive")
        rng = self._generator(_TAG_PATH, level, factor, path)
        return rng.standard_normal(n) * math.sqrt(h)

    def block_normals(self, level: int, block: int, n: int, *, factor: int = 0,
                      rows: int | None = None) -> np.ndarray:
        """Standard normals for a block of BLOCK_WIDTH consecutive paths.

        Row i holds the draws of path `block * BLOCK_WIDTH + i`.  Requesting
        fewer rows yields exactly the leading rows of the full block, so a
        partial final block reproduces the same paths as a full one.

        The values are those of one `standard_normal((rows, n))` call on the
        block's generator, but the array is stored column-major (Fortran
        order) so that each time step `[:, i]` is one contiguous run.  The
        storage order is a speed choice only: every consumer in the package
        gives the same bits for a row-major copy.

        Returns:
            F-contiguous array of shape (rows or BLOCK_WIDTH, n).
        """
        if rows is None:
            rows = BLOCK_WIDTH
        if not 0 < rows <= BLOCK_WIDTH:
            raise ValueError(f"rows must be in (0, {BLOCK_WIDTH}]")
        rng = self._generator(_TAG_BLOCK, level, factor, block)
        out = np.empty((rows, n), order="F")
        if out.flags.c_contiguous:
            # One column or one row: both layouts are the same memory.
            rng.standard_normal(out=out)
            return out
        step = max(1, _CHUNK_NORMALS // n)
        staging = np.empty((min(step, rows), n))
        for lo in range(0, rows, step):
            chunk = staging[:rows - lo]
            rng.standard_normal(out=chunk)
            out[lo:lo + chunk.shape[0]] = chunk
        return out

    def block_increments(self, level: int, block: int, n: int, h: float, *,
                         factor: int = 0, rows: int | None = None) -> np.ndarray:
        """Like `block_normals` but scaled to Brownian increments N(0, h).

        Scaled in place, so the result keeps the column-major storage of
        `block_normals` and no second block-sized array is allocated.
        """
        if h <= 0:
            raise ValueError("h must be positive")
        out = self.block_normals(level, block, n, factor=factor, rows=rows)
        out *= math.sqrt(h)
        return out


def couple_levels(fine: np.ndarray, m: int) -> np.ndarray:
    """Aggregate fine increments into coarse ones over the same Brownian path.

    Groups of `m` consecutive increments along the last axis are summed
    left to right, so the result is bit-for-bit reproducible.  The result
    keeps the memory layout of `fine`: column-major blocks give column-major
    coarse increments, and each strided slice then reads contiguous runs.
    The values do not depend on the layout.

    Args:
        fine: increments with last axis length divisible by m.
        m: refinement factor, >= 1.

    Returns:
        Array with last axis shrunk by a factor of m.
    """
    if m < 1:
        raise ValueError("refinement factor must be >= 1")
    fine = np.asarray(fine)
    if fine.shape[-1] % m:
        raise ValueError(f"last axis ({fine.shape[-1]}) not divisible by m ({m})")
    coarse = fine[..., 0::m].copy(order="K")
    for j in range(1, m):
        coarse += fine[..., j::m]
    return coarse


def correlate(w: np.ndarray, w_perp: np.ndarray, rho: float) -> np.ndarray:
    """Mix two independent increment streams into a rho-correlated one.

    Returns rho * w + sqrt(1 - rho**2) * w_perp, which is again a Brownian
    increment stream with the same step variance.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    w = np.asarray(w)
    w_perp = np.asarray(w_perp)
    if w.shape != w_perp.shape:
        raise ValueError(f"shape mismatch: {w.shape} vs {w_perp.shape}")
    return rho * w + math.sqrt(1.0 - rho * rho) * w_perp
