"""Monte Carlo harness: per-slot trials, parameter sweeps, trend checks.

Every slot derives its own random stream from (master seed, axis index,
slot index), so results are bit-identical regardless of worker count or
completion order.
"""

from __future__ import annotations

import atexit
import math
import threading
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from . import bd, channel, receiver
from .config import EM_SCHEMES, Scheme, SimParams, is_integer
from .ofdm import gen_frame

_CAL_BITS = np.tile([0, 1], 32)  # ENERGY's labeled calibration symbols
# Half-width of the uniform error on the genie phase that seeds EM.
_INITIAL_PHASE_ERROR_BOUND = np.pi / 4
# Each EM scheme's start offsets (radians) around that phase.
_START_OFFSETS = {Scheme.CAMF: (0.0, -0.5, 0.5), Scheme.CUIF: (0.0,)}
# Bytes of (L, M) grids one block of slots may fill in _point_counts.
_BLOCK_BYTES = 640 * 1024
# One process pool per worker count, made by the first sweep that asks for
# it and reused by every later one; concurrent.futures joins its idle
# workers when the interpreter exits. The pool modules load with the first
# pool, after this one, so teardown would clear their globals before the
# cached pools are collected: the pools are dropped at exit instead.
_pools: dict = {}
_pools_lock = threading.Lock()
atexit.register(_pools.clear)


@dataclass(frozen=True)
class BerPoint:
    swept_value: float
    bit_errors: int
    total_bits: int
    ber: float
    stderr: float
    runtime_ms: float

    @classmethod
    def from_counts(cls, swept_value: float, bit_errors: int, total_bits: int,
                    runtime_ms: float = 0.0) -> "BerPoint":
        p = bit_errors / total_bits
        return cls(swept_value=swept_value, bit_errors=bit_errors,
                   total_bits=total_bits, ber=p,
                   stderr=float(np.sqrt(p * (1.0 - p) / total_bits)),
                   runtime_ms=runtime_ms)


@dataclass(frozen=True)
class BerCurve:
    axis_name: str
    points: tuple
    params_snapshot: SimParams

    def __post_init__(self):
        values = [p.swept_value for p in self.points]
        if values != sorted(values):
            raise ValueError("points must be sorted by swept_value")

    @property
    def bers(self) -> np.ndarray:
        return np.array([p.ber for p in self.points])

    @property
    def stderrs(self) -> np.ndarray:
        return np.array([p.stderr for p in self.points])


def slot_rng(seed: int, slot_index: int,
             axis_index: int = 0) -> np.random.Generator:
    """Independent per-slot stream; stable under parallel execution."""
    ss = np.random.SeedSequence(seed, spawn_key=(axis_index, slot_index))
    return np.random.default_rng(ss)


def draw_slot(params: SimParams, slot_index: int, axis_index: int,
              y: np.ndarray) -> tuple:
    """Every draw of one slot from its own stream, in this order:
    realization, frame, bits, noise, then EM's starts or ENERGY's
    calibration frame and noise. Builds the received grid into y (L, M);
    returns (H, C, frame, bits, extra), C the scheme's backscatter gain and
    extra EM's starts (R, L), ENERGY's calibration energies (64,) or None."""
    rng = slot_rng(params.seed, slot_index, axis_index)
    H, G, theta = channel.sample_realization(params, rng)
    C = channel.effective_gain(
        G, math.sqrt(params.alpha_sq) * np.exp(1j * theta), params.scheme)
    frame = gen_frame(params.L, params.M, rng)
    bits = bd.sample_bits(params.M, rng, params.scheme in EM_SCHEMES)
    if params.scheme is Scheme.ENERGY:
        bits = (bits + 1) // 2  # on-off keying: the tag reflects on a 1
    receiver.receive(H, frame, bd.backscatter_frame(C, frame, bits),
                     params.n0, rng, out=y)
    extra = None
    if params.scheme in EM_SCHEMES:
        extra = _em_starts(params, theta, rng)
    elif params.scheme is Scheme.ENERGY:
        cal_frame = gen_frame(params.L, _CAL_BITS.size, rng)
        cal_a = bd.backscatter_frame(C, cal_frame, _CAL_BITS)
        extra = receiver.receive(H, cal_frame, cal_a, params.n0, rng).y_energy
    return H, C, frame, bits, extra


def _em_starts(params: SimParams, theta: float,
               rng: np.random.Generator) -> np.ndarray:
    """EM's starting estimates (R, L), a genie stand-in for a pilot-based
    estimator: alpha e^{j(theta_hat + offset)} on every subcarrier, where
    theta_hat is the true phase plus a uniform error, the slot's last draw.
    CAMF's projection ties all subcarriers to one phase and can lock onto a
    rotated local optimum, so CAMF has more _START_OFFSETS than CUIF.
    """
    bound = _INITIAL_PHASE_ERROR_BOUND
    theta0 = theta + rng.uniform(-bound, bound)
    offsets = np.array(_START_OFFSETS[params.scheme])
    start = math.sqrt(params.alpha_sq) * np.exp(1j * (theta0 + offsets))
    return np.repeat(start[:, None], params.L, axis=1)


def run_slot(params: SimParams, slot_index: int,
             axis_index: int = 0) -> tuple[int, int]:
    """Bit errors and scored bits of one slot: a chunk of one slot."""
    return _point_counts(params, axis_index, slot_index, slot_index + 1)


def _point_counts(params: SimParams, axis_index: int, lo: int,
                  hi: int) -> tuple[int, int]:
    """Bit errors and scored bits of the slots lo..hi - 1 (EM schemes skip
    the pilot, bit 0). Each block of B slots fills the rows of (B, ...)
    arrays made once and is decided by one detector call. It holds one slot
    or fills at most _BLOCK_BYTES: em_run's E-step grid, (B x R, 2, L, M)
    complex for R starts a slot, or the genie and energy detectors' five
    (L, M) complex grids a slot, which past glibc's mmap threshold would
    page-fault anew every block."""
    em, L, M = params.scheme in EM_SCHEMES, params.L, params.M
    n_starts = len(_START_OFFSETS.get(params.scheme, ()))
    step = max(1, _BLOCK_BYTES // ((2 * n_starts if em else 5) * L * M * 16))
    B = min(step, hi - lo)
    stack, bits = np.empty((B, L, M), complex), np.empty((B, M), int)
    H, C = np.empty((2, B, L), complex)
    side = (np.empty((B, n_starts, L), complex) if em else
            np.empty((B, _CAL_BITS.size)) if params.scheme is Scheme.ENERGY
            else np.empty_like(stack))
    errors = 0
    for first in range(lo, hi, step):
        n = min(step, hi - first)
        for k in range(n):
            H[k], C[k], frame, bits[k], extra = draw_slot(
                params, first + k, axis_index, stack[k])
            side[k] = frame if extra is None else extra
        slots = receiver.ReceivedSlot(stack[:n], params.n0)
        if em:
            s_hat = receiver.em_run(slots, H[:n], params.n_iter,
                                    params.scheme, side[:n])[0]
        elif params.scheme is Scheme.ENERGY:
            tau = receiver.threshold_sweep(side[:n], _CAL_BITS)
            s_hat = slots.y_energy >= tau[:, None]
        else:
            s_hat = receiver.genie_detect(slots, side[:n], H[:n], C[:n])
        errors += int(np.count_nonzero((s_hat != bits[:n])[:, em:]))
    return errors, (hi - lo) * (M - em)


def _pool_counts(jobs, n_workers: int, retry: bool = True) -> list:
    """Run jobs on the cached pool of n_workers processes.

    A pool that breaks (a worker died) is dropped for good, and the jobs
    run once more on a fresh pool: a job's slots are deterministic, and
    none of its counts has been used yet. The pool modules are imported
    here, so a serial run never loads them.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with _pools_lock:
        pool = _pools.get(n_workers)
        if pool is None:
            pool = _pools[n_workers] = ProcessPoolExecutor(
                max_workers=n_workers)
    try:
        return list(pool.map(_point_counts, *zip(*jobs)))
    except BrokenProcessPool:
        with _pools_lock:
            if _pools.get(n_workers) is pool:
                del _pools[n_workers]
        if not retry:
            raise
    return _pool_counts(jobs, n_workers, retry=False)


def sweep(params: SimParams, axis: str, values,
          n_workers: int = 1) -> BerCurve:
    """BER at each distinct axis value, in order; deterministic given the seed.

    Each point's slots are split into one contiguous chunk per worker, and
    there are no more workers than slots. One worker runs its chunk here,
    and no pool module is loaded; more run theirs on a process pool kept
    for that worker count: the first such sweep imports the pool modules
    and starts its workers, which live until the interpreter exits. They
    see module state as of their fork, so a change made to a module later
    (a monkeypatch, say) does not reach them. The counts are the same for
    every n_workers.
    """
    values = sorted(set(values))  # 16 and 16.0 are one value
    if not values:
        raise ValueError("empty sweep values")
    if not is_integer(n_workers):
        raise ValueError(f"n_workers must be an integer, got {n_workers!r}")
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    n_workers = min(n_workers, params.slots)
    point_params = [params.at(axis, value) for value in values]
    points = []
    for axis_index, (value, p) in enumerate(zip(values, point_params)):
        start = perf_counter()
        chunks = np.linspace(0, p.slots, n_workers + 1).astype(int)
        jobs = [(p, axis_index, int(lo), int(hi))
                for lo, hi in zip(chunks[:-1], chunks[1:]) if lo < hi]
        results = (map(_point_counts, *zip(*jobs)) if n_workers == 1
                   else _pool_counts(jobs, n_workers))
        errors, total = map(sum, zip(*results))
        runtime_ms = (perf_counter() - start) * 1e3
        points.append(BerPoint.from_counts(float(value), errors, total,
                                           runtime_ms))
    return BerCurve(axis_name=axis, points=tuple(points),
                    params_snapshot=params)


def trend_verdict(curve: BerCurve, n_sigma: float = 3.0) -> str:
    """Mann-Kendall-style verdict on a BER curve.

    'decreasing'/'increasing' require a majority sign among pairwise
    differences plus an endpoint gap beyond n_sigma pooled errors;
    otherwise 'flat'.
    """
    b = curve.bers
    se = curve.stderrs
    if b.size < 2:
        return "flat"
    # sum over i < j of sign(b[j] - b[i]): the strict lower triangle
    signs = np.tril(np.sign(np.subtract.outer(b, b)), -1).sum()
    first, last = 0, b.size - 1
    gap = b[last] - b[first]
    pooled = np.hypot(se[first], se[last])
    if signs < 0 and gap < -n_sigma * pooled:
        return "decreasing"
    if signs > 0 and gap > n_sigma * pooled:
        return "increasing"
    return "flat"

