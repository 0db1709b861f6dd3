"""Monte Carlo harness: per-slot trials, parameter sweeps, trend checks.

Every slot derives its own random stream from (master seed, axis index,
slot index), so results are bit-identical regardless of worker count or
completion order.
"""

from __future__ import annotations

import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from . import bd, channel, receiver
from .config import EM_SCHEMES, Scheme, SimParams
from .ofdm import gen_frame

_ENERGY_CAL_SYMBOLS = 64
# Half-width of the uniform error on the genie phase that seeds EM.
_INITIAL_PHASE_ERROR_BOUND = np.pi / 4
# CAMF's start offsets (radians) around that phase; CUIF starts once.
_START_OFFSETS = (0.0, -0.5, 0.5)
# One process pool per worker count, made by the first sweep that asks for
# it and reused by every later one; concurrent.futures joins its idle
# workers when the interpreter exits.
_pools: dict[int, ProcessPoolExecutor] = {}
_pools_lock = threading.Lock()


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


def run_slot(params: SimParams, slot_index: int,
             axis_index: int = 0) -> tuple[int, int]:
    """Simulate one slot and count bit errors for the selected detector.

    EM schemes spend the first bit as a pilot, so they are scored on the
    M - 1 data bits; genie and energy detection score all M bits.
    """
    rng = slot_rng(params.seed, slot_index, axis_index)
    real = channel.sample_realization(params, rng)
    frame = gen_frame(params.L, params.M, rng)

    if params.scheme is Scheme.ENERGY:
        return _run_energy_slot(params, real, frame, rng)

    pilot = params.scheme in EM_SCHEMES
    bits = bd.sample_bits(params.M, rng, pilot_first=pilot)
    a = bd.backscatter_frame(params.scheme, real, frame, bits)
    slot = receiver.receive(real.H, frame, a, params.n0, rng)

    if pilot:
        starts = _em_starts(real, params.scheme, rng)
        result = receiver.em_run(slot, real.H, params.n_iter, params.scheme,
                                 starts)
        s_hat = result.s_hat
        start = 1
    else:
        s_hat = receiver.genie_detect(slot, frame, real, params.scheme)
        start = 0
    errors = int(np.sum(s_hat[start:] != bits[start:]))
    return errors, params.M - start


def _em_starts(real: channel.ChannelRealization, scheme: Scheme,
               rng: np.random.Generator) -> np.ndarray:
    """EM's starting estimates (R, L), a genie stand-in for a pilot-based
    estimator: alpha e^{j(theta_hat + offset)} on every subcarrier, where
    theta_hat is the true phase plus a uniform error, the slot's last draw.
    CAMF's projection ties all subcarriers to one phase and can lock onto a
    rotated local optimum, so CAMF starts from each of _START_OFFSETS.
    """
    bound = _INITIAL_PHASE_ERROR_BOUND
    theta0 = real.theta + rng.uniform(-bound, bound)
    offsets = np.array(_START_OFFSETS if scheme is Scheme.CAMF else (0.0,))
    return np.repeat(real.alpha * np.exp(1j * (theta0 + offsets))[:, None],
                     real.H.size, axis=1)


def _run_energy_slot(params: SimParams, real, frame,
                     rng: np.random.Generator) -> tuple[int, int]:
    """On-off keying slot with a threshold calibrated on labeled symbols."""
    bits01 = rng.integers(0, 2, size=params.M)
    a = bd.backscatter_frame(Scheme.CUIF, real, frame, bits01)
    slot = receiver.receive(real.H, frame, a, params.n0, rng)

    cal_bits = np.tile([0, 1], _ENERGY_CAL_SYMBOLS // 2)
    cal_frame = gen_frame(params.L, cal_bits.size, rng)
    cal_a = bd.backscatter_frame(Scheme.CUIF, real, cal_frame, cal_bits)
    cal_slot = receiver.receive(real.H, cal_frame, cal_a, params.n0, rng)
    tau = receiver.threshold_sweep(cal_slot.y_energy, cal_bits)

    decisions = (slot.y_energy >= tau).astype(int)
    return int(np.sum(decisions != bits01)), params.M


def _point_counts(args) -> tuple[int, int]:
    params, axis_index, lo, hi = args
    errors = total = 0
    for slot_index in range(lo, hi):
        e, t = run_slot(params, slot_index, axis_index)
        errors += e
        total += t
    return errors, total


def _pool_counts(jobs, n_workers: int, retry: bool = True) -> list:
    """Run jobs on the cached pool of n_workers processes.

    A pool that breaks (a worker died) is dropped for good, and the jobs
    run once more on a fresh pool: a job's slots are deterministic, and
    none of its counts has been used yet.
    """
    with _pools_lock:
        pool = _pools.get(n_workers)
        if pool is None:
            pool = _pools[n_workers] = ProcessPoolExecutor(
                max_workers=n_workers)
    try:
        return list(pool.map(_point_counts, jobs))
    except BrokenProcessPool:
        with _pools_lock:
            if _pools.get(n_workers) is pool:
                del _pools[n_workers]
        if not retry:
            raise
    return _pool_counts(jobs, n_workers, retry=False)


def sweep(params: SimParams, axis: str, values,
          n_workers: int = 1) -> BerCurve:
    """BER at each axis value; deterministic given params.seed.

    Each point's slots are split into one contiguous chunk per worker. One
    worker runs its chunk in this process; more run theirs on a process
    pool kept for that worker count: its workers start on the first such
    sweep and live until the interpreter exits. They see module state as of
    their fork, so a change made to a module later (a monkeypatch, say)
    does not reach them. The counts are the same for every n_workers.
    """
    values = sorted(values)
    if not values:
        raise ValueError("empty sweep values")
    point_params = [params.at(axis, value) for value in values]
    points = []
    for axis_index, (value, p) in enumerate(zip(values, point_params)):
        start = perf_counter()
        chunks = np.linspace(0, p.slots, n_workers + 1).astype(int)
        jobs = [(p, axis_index, int(lo), int(hi))
                for lo, hi in zip(chunks[:-1], chunks[1:]) if lo < hi]
        results = (map(_point_counts, jobs) if n_workers == 1
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
    signs = 0
    for i in range(b.size):
        for j in range(i + 1, b.size):
            signs += int(np.sign(b[j] - b[i]))
    first, last = 0, b.size - 1
    gap = b[last] - b[first]
    pooled = np.hypot(se[first], se[last])
    if signs < 0 and gap < -n_sigma * pooled:
        return "decreasing"
    if signs > 0 and gap > n_sigma * pooled:
        return "increasing"
    return "flat"

