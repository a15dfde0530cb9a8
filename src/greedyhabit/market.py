"""Market model, Gompertz mortality, and simulation grids.

The investment opportunity set is a constant-coefficient Black-Scholes
market (one risky asset, one riskless bond).  All pricing in the solver
runs through the state-price density

    zeta_t = exp(-r t) * exp(-kappa W_t - kappa^2 t / 2),

where kappa = (mu - r) / sigma is the market price of risk.  Mortality
follows a Gompertz law parameterised by modal age and dispersion.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

__all__ = [
    "DEFAULT_SEED",
    "MarketParams",
    "GompertzParams",
    "TimeGrid",
    "PathBundle",
    "survival_probability",
    "generate_paths",
]

ArrayLike = Union[float, np.ndarray]

#: Default master seed used across the package when none is supplied.
DEFAULT_SEED = 20260814

#: Paths per block in the row-blocked array builders: a block's
#: temporaries stay in cache, and results do not depend on the size.
ROW_BLOCK = 64

#: CPUs this process may run on (all CPUs where the platform cannot
#: tell), and so the most row chunks :func:`_in_threads` runs at once.
WORKERS = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)


def _require_finite(params) -> None:
    """Reject a NaN or infinite field of a parameter dataclass, by name."""
    for field in fields(params):
        value = getattr(params, field.name)
        if not math.isfinite(value):
            raise ValueError(f"{field.name} must be finite, got {value}")


def _require_positive(name: str, value) -> None:
    """Reject a value, or any element of an array, not positive and finite."""
    value = np.asarray(value)
    if not np.all((value > 0.0) & (value < math.inf)):  # a NaN fails too
        got = f", got {value}" if value.ndim == 0 else ""  # never a whole array
        raise ValueError(f"{name} must be positive and finite{got}")


@dataclass(frozen=True)
class MarketParams:
    """Constant Black-Scholes market coefficients and preferences.

    Parameters
    ----------
    mu : float
        Drift of the risky asset.
    sigma : float
        Volatility of the risky asset (must be positive).
    r : float
        Riskless rate.
    rho : float
        Subjective discount rate of the agent.
    gamma : float
        Relative risk aversion; must be positive and != 1.
    """

    mu: float = 0.08
    sigma: float = 0.16
    r: float = 0.02
    rho: float = 0.02
    gamma: float = 3.0

    def __post_init__(self) -> None:
        _require_finite(self)
        _require_positive("sigma", self.sigma)
        if self.gamma <= 0.0 or self.gamma == 1.0:
            raise ValueError(
                f"gamma must be positive and != 1, got {self.gamma}"
            )

    @property
    def kappa(self) -> float:
        """Market price of risk (mu - r) / sigma."""
        return (self.mu - self.r) / self.sigma


@dataclass(frozen=True)
class GompertzParams:
    """Gompertz mortality law for an individual of a given age.

    Parameters
    ----------
    age : float
        Current age x of the individual.
    modal_age : float
        Modal age at death m of the Gompertz law.
    dispersion : float
        Dispersion coefficient b (must be positive).
    """

    age: float = 65.0
    modal_age: float = 89.335
    dispersion: float = 9.5

    def __post_init__(self) -> None:
        _require_finite(self)
        _require_positive("dispersion", self.dispersion)
        if self.age < 0.0:
            raise ValueError(f"age must be non-negative, got {self.age}")


def survival_probability(mortality: GompertzParams, s: ArrayLike) -> ArrayLike:
    """Probability that an individual aged ``age`` survives ``s`` more years.

    Under the Gompertz law the conditional survival probability is

        p(s) = exp(-exp((age - modal_age) / b) * (exp(s / b) - 1)),

    which equals 1 at s = 0 and decreases to 0.

    Parameters
    ----------
    mortality : GompertzParams
        Mortality law.
    s : float or ndarray
        Horizon(s) in years; must be non-negative.

    Returns
    -------
    float or ndarray
        Survival probabilities, same shape as ``s``.
    """
    return np.exp(log_survival_probability(mortality, s))


def log_survival_probability(
    mortality: GompertzParams, s: ArrayLike
) -> ArrayLike:
    """Log of :func:`survival_probability`; exact for very small tails."""
    s_arr = np.asarray(s, dtype=float)
    if not np.all(s_arr >= 0.0):  # a NaN fails too
        raise ValueError("survival horizon s must be non-negative")
    b = mortality.dispersion
    base = np.exp((mortality.age - mortality.modal_age) / b)
    out = -base * np.expm1(s_arr / b)
    return float(out) if np.isscalar(s) else out


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid [0, t_max] with step dt.

    ``t_max`` must be an integer multiple of ``dt`` (within float
    tolerance); grid times are ``k * dt`` for k = 0..n_steps.
    """

    t_max: float = 60.0
    dt: float = 0.05

    def __post_init__(self) -> None:
        _require_finite(self)
        _require_positive("t_max", self.t_max)
        _require_positive("dt", self.dt)
        n = round(self.t_max / self.dt)
        if n < 1 or abs(n * self.dt - self.t_max) > 1e-9 * max(1.0, self.t_max):
            raise ValueError(
                f"t_max={self.t_max} is not an integer multiple of dt={self.dt}"
            )

    @property
    def n_steps(self) -> int:
        return round(self.t_max / self.dt)

    def times(self) -> np.ndarray:
        """Grid times as an array of length n_steps + 1."""
        return np.arange(self.n_steps + 1) * self.dt

    def index_of(self, t: float) -> int:
        """Index of grid time ``t``; raises if ``t`` is not on the grid."""
        steps = t / self.dt
        k = round(steps) if math.isfinite(steps) else -1  # NaN and inf are off it
        if k < 0 or k > self.n_steps or abs(k * self.dt - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"t={t} does not lie on the grid (dt={self.dt})")
        return k


@dataclass
class PathBundle:
    """A bundle of simulated Brownian/state-price-density paths.

    Attributes
    ----------
    grid : TimeGrid
        Grid the paths are sampled on.
    n_paths : int
        Number of paths.
    seed : int
        Master seed the bundle was generated from.
    w : ndarray, shape (n_paths, n_steps + 1)
        Brownian motion paths, w[:, 0] = 0.
    zeta : ndarray, shape (n_paths, n_steps + 1)
        State-price density along each path, zeta[:, 0] = 1.
    antithetic : bool
        Whether the second half of the bundle mirrors the first.
    """

    grid: TimeGrid
    n_paths: int
    seed: int
    w: np.ndarray
    zeta: np.ndarray
    antithetic: bool = False


def _row_blocks(n: int):
    """Consecutive slices of at most ``ROW_BLOCK`` rows that cover ``n`` rows."""
    return [slice(i, min(i + ROW_BLOCK, n)) for i in range(0, n, ROW_BLOCK)]


def _in_threads(n: int, work) -> None:
    """Call ``work(blocks)`` on at most ``WORKERS`` contiguous chunks of ``n`` rows.

    ``blocks`` is the chunk's share of :func:`_row_blocks`, so every cut
    falls on a ``ROW_BLOCK`` multiple and a block is the same slice as in
    one serial pass; ``work`` must write only its own rows, and then the
    result does not depend on the number of chunks.  The first chunk runs
    on the calling thread and the others on threads started here, each in
    a copy of the caller's context (numpy's error state lives there).
    Every chunk finishes before the first exception, in chunk order, is
    raised.  numpy releases the interpreter lock inside its array loops,
    so the chunks overlap when each call covers at least a block of rows.
    """
    blocks = _row_blocks(n)
    parts = min(WORKERS, len(blocks))
    if parts <= 1:
        work(blocks)
        return
    chunks = [
        blocks[len(blocks) * i // parts : len(blocks) * (i + 1) // parts]
        for i in range(parts)
    ]
    errors = [None] * parts

    def run(i):
        try:
            work(chunks[i])
        except BaseException as exc:  # raised again on the calling thread
            errors[i] = exc

    threads = [
        threading.Thread(target=contextvars.copy_context().run, args=(run, i))
        for i in range(1, parts)
    ]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _hash_keys(key: int, mult: int, n: int) -> list:
    """``key`` and the ``n`` keys after it of the ``SeedSequence`` hash."""
    keys = [key]
    for _ in range(n):
        keys.append((keys[-1] * mult) & 0xFFFFFFFF)
    return keys


def _hashmix(value, key, next_key):
    """numpy's ``SeedSequence`` hash of ``value`` between two successive keys.

    On uint32 arrays, whose products wrap without a warning.
    """
    value = (value ^ key) * next_key
    return value ^ (value >> 16)


def _mix(x, y):
    """numpy's ``SeedSequence`` mix of two words, on uint32 arrays."""
    value = 0xCA01F9DD * x - 0x4973F715 * y
    return value ^ (value >> 16)


def _absorb(pool, columns, word, n):
    """Mix ``word`` into the four pool words with hash keys ``n`` to ``n + 4``."""
    return _mix(pool, _hashmix(word, columns[n : n + 4], columns[n + 1 : n + 5]))


def _fill_normals(
    out: np.ndarray, seed: int, key: tuple, rows: range
) -> None:
    """Fill ``out[j]`` with standard normals from child stream ``key + (rows[j],)``.

    Row ``j`` gets the draws of
    ``Generator(PCG64(SeedSequence(entropy=seed, spawn_key=key + (rows[j],))))``,
    so they do not depend on how the rows are split into blocks.  Those
    objects are not built per row: that holds the interpreter lock for
    longer than the draw, which releases it.  numpy's ``SeedSequence``
    hash (numpy/random/bit_generator.pyx) mixes ``seed`` and ``key`` into
    the 4-word pool of the parent ``SeedSequence(entropy=seed,
    spawn_key=key)``; the row index words and ``generate_state(4,
    uint64)`` are hashed as uint32 arrays over the rows; and PCG64's
    seeding (two steps of its 128-bit LCG, O'Neill's
    ``pcg_setseq_128_srandom_r``) gives each row's state, loaded into one
    generator of this call.
    """
    # numpy rejects a bad seed or key here, before either is split
    parent = np.random.SeedSequence(entropy=seed, spawn_key=key)
    bits = np.random.PCG64(parent)
    rng = np.random.Generator(bits)
    # a child's entropy is seed padded to 4 words (its key is never empty),
    # key, then the row index.  The parent's pool holds the first two; its
    # hash took 16 keys for 4 words and 4 for each word after, so the row
    # index hashes with keys from n on.  An int takes a word per 32 bits.
    words = [max(1, -(-int(x).bit_length() // 32)) for x in (seed, *key)]
    n = 4 * (max(4, words[0]) + sum(words[1:]))
    keys = np.array(_hash_keys(0x43B0D7E5, 0x931E8875, n + 8), dtype=np.uint32)
    pool, columns = parent.pool[:, None], keys[:, None]
    # a row index takes one word below 2**32 and two, low first, above
    index = np.arange(rows.start, rows.stop, rows.step, dtype=np.uint64)
    pool = _absorb(pool, columns, (index & 0xFFFFFFFF).astype(np.uint32), n)
    high = index >> 32
    if high.any():
        high_pool = _absorb(pool, columns, high.astype(np.uint32), n + 4)
        pool = np.where(high, high_pool, pool)
    # generate_state(4, uint64): the pool twice over, read as 4 uint64s
    keys = np.array(_hash_keys(0x8B51F9DD, 0x58F38DED, 8), dtype=np.uint32)
    halves = _hashmix(np.concatenate([pool, pool]), keys[:-1, None], keys[1:, None])
    halves = halves.astype(np.uint64)
    seeds = (halves[1::2] << 32 | halves[::2]).tolist()
    mask = (1 << 128) - 1
    for j, (s_hi, s_lo, i_hi, i_lo) in enumerate(zip(*seeds)):
        inc = ((i_hi << 65) | (i_lo << 1) | 1) & mask
        state = (inc + (s_hi << 64 | s_lo)) * 0x2360ED051FC65DA44385DF649FCCF645
        bits.state = {
            "bit_generator": "PCG64",
            "state": {"state": (state + inc) & mask, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        rng.standard_normal(out=out[j])


def _density_paths(
    market: MarketParams, dw: np.ndarray, dt: float, antithetic: bool, out=None
):
    """Brownian paths and state-price density from standard-normal increments.

    ``dw`` has one row per stream and one column per step of size ``dt``;
    the paths start at w = 0, zeta = 1.  With ``antithetic`` the rows are
    followed by their mirrors, built by negating the Brownian half-block
    (negating a cumulative sum is exact).  Returns ``(w, zeta)``, written
    into the pair of arrays ``out`` when it is given.
    """
    n_rows, n_steps = dw.shape
    shape = (2 * n_rows if antithetic else n_rows, n_steps + 1)
    w, zeta = (np.empty(shape), np.empty(shape)) if out is None else out
    w[:n_rows, 0] = 0.0
    np.cumsum(dw, axis=1, out=w[:n_rows, 1:])
    w[:n_rows, 1:] *= math.sqrt(dt)
    if antithetic:
        np.negative(w[:n_rows], out=w[n_rows:])
    kappa = market.kappa
    times = np.arange(n_steps + 1) * dt
    # log zeta, then zeta, on one array: each block's temporaries are
    # held once per thread
    np.multiply(kappa, w, out=zeta)
    np.subtract(-(market.r + 0.5 * kappa**2) * times, zeta, out=zeta)
    return w, np.exp(zeta, out=zeta)


@dataclass(frozen=True)
class _Stream:
    """The density of ``n_paths`` seeded streams, made one row block at a time.

    Stream ``i`` is numpy's ``Generator(PCG64(SeedSequence(entropy=seed,
    spawn_key=key + (i,))))`` drawing ``standard_normal`` (the ziggurat
    method), reproduced a block at a time by :func:`_fill_normals`.  With
    ``antithetic`` the first ``n_paths / 2`` paths are streams and the rest
    their mirrors.  ``shape`` is the density's; no array holds it unless a
    caller of :meth:`chunks` writes the rows into one.
    """

    market: MarketParams
    grid: TimeGrid
    n_paths: int
    seed: int
    antithetic: bool
    key: tuple

    @property
    def shape(self) -> tuple:
        return self.n_paths, self.grid.n_steps + 1

    def chunks(self, work) -> None:
        """Call ``work(blocks)`` on :func:`_in_threads` chunks of the streams.

        ``blocks`` yields ``(rows, w, zeta)`` for each row block of
        streams: their Brownian paths and density from
        :func:`_density_paths`, and ``rows``, the slice of their places in
        the density.  With ``antithetic`` each block is followed by its
        mirrors as a block of their own.  This is the one place that makes
        density rows.  A chunk allocates its block arrays once and each
        block overwrites them, so ``work`` must read a block before it
        asks for the next; arrays made afresh for every block page-fault
        again whenever the allocator has given their memory back.
        """
        n_streams = self.n_paths // 2 if self.antithetic else self.n_paths
        steps = self.grid.n_steps

        def blocks(chunk):
            most = max(block.stop - block.start for block in chunk)
            dw = np.empty((most, steps))
            paths = np.empty((2, 2 * most if self.antithetic else most, steps + 1))
            for block in chunk:
                lo, hi = block.start, block.stop
                n = hi - lo
                _fill_normals(dw[:n], self.seed, self.key, range(lo, hi))
                w, zeta = _density_paths(
                    self.market, dw[:n], self.grid.dt, self.antithetic,
                    paths[:, : 2 * n if self.antithetic else n],
                )
                yield block, w[:n], zeta[:n]
                if self.antithetic:
                    yield slice(n_streams + lo, n_streams + hi), w[n:], zeta[n:]

        _in_threads(n_streams, lambda chunk: work(blocks(chunk)))


def generate_paths(
    market: MarketParams,
    grid: TimeGrid,
    n_paths: int,
    seed: int = DEFAULT_SEED,
    antithetic: bool = False,
) -> PathBundle:
    """Simulate Brownian paths and the state-price density on a grid.

    The density is updated in log space,

        log zeta_k = -(r + kappa^2 / 2) * t_k - kappa * W_k,

    which is exact on grid points (no Euler error in zeta itself).

    Parameters
    ----------
    market : MarketParams
        Market coefficients (only r, kappa enter the density).
    grid : TimeGrid
        Simulation grid.
    n_paths : int
        Number of paths; must be even when ``antithetic`` is set.
    seed : int
        Master seed; per-path streams are spawned from it.
    antithetic : bool
        If set, paths [n/2:] use the negated increments of paths [:n/2].

    Returns
    -------
    PathBundle
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if antithetic and n_paths % 2 != 0:
        raise ValueError("antithetic sampling requires an even n_paths")
    shape = (n_paths, grid.n_steps + 1)
    w, zeta = np.empty(shape), np.empty(shape)

    def fill(blocks):
        for rows, w_blk, zeta_blk in blocks:
            w[rows] = w_blk
            zeta[rows] = zeta_blk

    _Stream(market, grid, n_paths, seed, antithetic, ()).chunks(fill)
    return PathBundle(grid, n_paths, seed, w, zeta, antithetic)
