"""Counter-addressed Brownian increment streams.

Every random number in the package is drawn from a `BrownianFabric`, which
maps a structured address (level, factor, block index) to an independent
Philox substream of BLOCK_WIDTH paths.  Regenerating the same address always
reproduces the same draws, regardless of how many other addresses were
consumed in between, so simulations are reproducible path-by-path and
level-by-level.
"""
from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1

# Address layout inside the second Philox key word (high to low):
# 4-bit tag | 8-bit level | 8-bit factor | 44-bit index.  Blocks are the
# one tag; its value is in every key, so changing it would move every draw.
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
# only bounds the row-major staging buffer (2 MiB on each drawing thread).
# Capping elements rather than rows keeps short blocks at a single call.
_CHUNK_NORMALS = 1 << 18

# Elements per column chunk of an in-place `correlate` (a 256 KiB scratch).
_MIX_NORMALS = 1 << 15

# One Philox generator per thread, re-keyed for every stream.  Building a
# generator seeds a throwaway SeedSequence from OS entropy (17-19 us with the
# interpreter lock held); resetting the state of an existing one takes 4-6 us.
_THREAD = threading.local()


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

    @functools.cached_property
    def _seed_word(self) -> int:
        return _splitmix64(self.master_seed)

    def _key(self, tag: int, level: int, factor: int, index: int) -> np.ndarray:
        # The key must be a uint64 array: a plain list of ints above 2**63
        # would be coerced through float64, rounding away the low bits that
        # distinguish neighbouring addresses.
        return np.array([self._seed_word, _pack(tag, level, factor, index)],
                        dtype=np.uint64)

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
        out = np.empty((rows, n), order="F")
        self.block_cursor(level, block, n, factor=factor).fill(out, keep=False)
        return out

    def block_cursor(self, level: int, block: int, n: int, *,
                     factor: int = 0) -> "BlockCursor":
        """A cursor at row 0 of the stream that `block_normals` draws."""
        return BlockCursor(self._key(_TAG_BLOCK, level, factor, block), n)


def _start(key: np.ndarray) -> dict:
    """The Philox state of a freshly built generator with this key: counter
    0, an empty output buffer and no cached 32-bit half."""
    return {"bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _thread_generator(state: dict) -> np.random.Generator:
    """This thread's one generator, set to `state`."""
    rng = getattr(_THREAD, "rng", None)
    if rng is None:
        rng = _THREAD.rng = np.random.Generator(
            np.random.Philox(key=state["state"]["key"]))
    rng.bit_generator.state = state
    return rng


def _fill(rng: np.random.Generator, out: np.ndarray | None, rows: int = 0,
          n: int = 0, scale: float = 1.0) -> None:
    """Draw `out`'s rows in order from `rng`, as one `standard_normal(out.shape)`
    call would, into `out` of any layout, each normal times `scale`.  With
    `out` None, draw (rows, n) normals and drop them."""
    if out is not None:
        rows, n = out.shape
        if out.flags.c_contiguous:
            # One column, one row or a row-major array: drawn in place.
            rng.standard_normal(out=out)
            out *= scale
            return
    step = max(1, _CHUNK_NORMALS // max(1, n))
    staging = np.empty((min(step, rows), n))
    for lo in range(0, rows, step):
        chunk = staging[:rows - lo]
        rng.standard_normal(out=chunk)
        if out is not None:
            chunk *= scale  # in cache, not in a second pass over the block
            out[lo:lo + chunk.shape[0]] = chunk


class BlockCursor:
    """Where one stream stands: the next row it draws, and its Philox state
    there.

    Successive `fill` calls continue the stream, on whichever thread makes
    them, so rows drawn in pieces equal the same rows of one `block_normals`
    call.  Made by `BrownianFabric.block_cursor`; every draw of the package
    goes through one.
    """

    __slots__ = ("n", "row", "_state")

    def __init__(self, key: np.ndarray, n: int):
        self.n = n
        self.row = 0
        self._state = _start(key)

    def fill(self, out: np.ndarray | None, rows: int = 0, *,
             keep: bool = True, scale: float = 1.0) -> None:
        """Draw the stream's next rows into `out`, shape (rows, n) in any
        layout, each normal times `scale`; with `out` None, skip `rows`
        rows.  Without `keep` the cursor is spent: it saves no state (a few
        microseconds) and must not fill again."""
        if out is not None:
            rows = out.shape[0]
            if out.shape[1] != self.n:
                raise ValueError(f"rows of this stream hold {self.n} normals, "
                                 f"not {out.shape[1]}")
        rng = _thread_generator(self._state)
        _fill(rng, out, rows, self.n, scale)
        self.row += rows
        self._state = rng.bit_generator.state if keep else None


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
    return extend_coupling(fine, fine, 1, m)


def extend_coupling(prev: np.ndarray, fine: np.ndarray, m_prev: int,
                    m: int) -> np.ndarray:
    """`couple_levels(fine, m)` computed from `prev = couple_levels(fine, m_prev)`.

    A left-to-right sum of m fine increments begins with the left-to-right
    sum of the first m_prev of them, so each coarse increment is the `prev`
    increment that starts its group plus the group's remaining m - m_prev
    fine increments, added in order.  The result has the same bits and the
    same memory layout as `couple_levels(fine, m)` but reads only
    (m - m_prev) / m of `fine`.  `prev` may itself come from this function.

    Args:
        prev: `fine` coupled at ratio m_prev.
        fine: increments with last axis length divisible by m.
        m_prev: ratio of `prev`, >= 1.
        m: new ratio, a multiple of m_prev (m_prev itself gives a copy).
    """
    if not 1 <= m_prev <= m or m % m_prev:
        raise ValueError(f"m ({m}) must be a multiple of m_prev ({m_prev}) >= 1")
    fine = np.asarray(fine)
    if fine.shape[-1] % m:
        raise ValueError(f"last axis ({fine.shape[-1]}) not divisible by m ({m})")
    if prev.shape != fine.shape[:-1] + (fine.shape[-1] // m_prev,):
        raise ValueError(f"prev has shape {prev.shape}, not that of "
                         f"fine ({fine.shape}) coupled at ratio {m_prev}")
    coarse = prev[..., 0::m // m_prev].copy(order="K")
    for j in range(m_prev, m):
        coarse += fine[..., j::m]
    return coarse


def correlate(w: np.ndarray, w_perp: np.ndarray, rho: float, *,
              out: np.ndarray | None = None, team=None) -> np.ndarray:
    """Mix two independent increment streams into a rho-correlated one.

    Returns rho * w + sqrt(1 - rho**2) * w_perp, which is again a Brownian
    increment stream with the same step variance.

    The mix is written into `out` (which may be `w_perp` or `w` itself),
    or into a new array when `out` is None.  It runs over column chunks of
    about 2^15 elements through one chunk-sized scratch buffer, so it
    allocates no block-sized temporary.  A `workers.Team` splits the chunks
    over its threads.  Each element is computed by the same two products
    and one sum, so the result has the same bits for every layout, chunking
    and thread count.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    w = np.asarray(w)
    w_perp = np.asarray(w_perp)
    if w.shape != w_perp.shape:
        raise ValueError(f"shape mismatch: {w.shape} vs {w_perp.shape}")
    scale = math.sqrt(1.0 - rho * rho)
    if out is None:
        out = np.empty_like(w, np.result_type(w, w_perp, rho))
    if out.shape != w.shape:
        raise ValueError(f"out has shape {out.shape}, expected {w.shape}")
    cols = w.shape[-1]
    width = max(1, _MIX_NORMALS * cols // max(1, w.size))
    chunks = -(-cols // width)

    def mix(first: int, last: int) -> None:
        scratch = np.empty(w.shape[:-1] + (min(width, cols),), order="F")
        for lo in range(first * width, min(last * width, cols), width):
            hi = min(lo + width, cols)
            part = scratch[..., :hi - lo]
            target = out[..., lo:hi]
            np.multiply(rho, w[..., lo:hi], out=part)
            np.multiply(scale, w_perp[..., lo:hi], out=target)
            np.add(part, target, out=target)

    if team is None or chunks < 2:
        mix(0, chunks)
    else:
        team.run_split(mix, chunks)
    return out
