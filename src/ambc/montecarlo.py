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
from .config import EM_SCHEMES, Scheme, SimParams, is_integer
from .ofdm import gen_frame

_CAL_BITS = np.tile([0, 1], 32)  # ENERGY's labeled calibration symbols
# Half-width of the uniform error on the genie phase that seeds EM.
_INITIAL_PHASE_ERROR_BOUND = np.pi / 4
# CAMF's start offsets (radians) around that phase; CUIF starts once.
_START_OFFSETS = (0.0, -0.5, 0.5)
# Bytes of E-step grid one block of EM slots may fill in _point_counts.
_BLOCK_BYTES = 640 * 1024
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


def draw_slot(params: SimParams, slot_index: int, axis_index: int = 0,
              y: np.ndarray | None = None) -> tuple:
    """Every draw of one slot from its own stream, in this order:
    realization, frame, bits, noise, then EM's starts (R, L) or ENERGY's
    calibration frame and noise. Returns (realization, frame, bits, slot,
    extra), extra being the starts, the calibration slot or None; the
    received grid is built into y (L, M) when given."""
    rng = slot_rng(params.seed, slot_index, axis_index)
    real = channel.sample_realization(params, rng)
    frame = gen_frame(params.L, params.M, rng)
    if params.scheme is Scheme.ENERGY:
        # on-off keying of the tag's reflection
        scheme, bits = Scheme.CUIF, rng.integers(0, 2, size=params.M)
    else:
        scheme = params.scheme
        bits = bd.sample_bits(params.M, rng, pilot_first=scheme in EM_SCHEMES)
    a = bd.backscatter_frame(scheme, real, frame, bits)
    slot = receiver.receive(real.H, frame, a, params.n0, rng, out=y)
    extra = None
    if params.scheme in EM_SCHEMES:
        extra = _em_starts(real, params.scheme, rng)
    elif params.scheme is Scheme.ENERGY:
        cal_frame = gen_frame(params.L, _CAL_BITS.size, rng)
        cal_a = bd.backscatter_frame(scheme, real, cal_frame, _CAL_BITS)
        extra = receiver.receive(real.H, cal_frame, cal_a, params.n0, rng)
    return real, frame, bits, slot, extra


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


def run_slot(params: SimParams, slot_index: int,
             axis_index: int = 0) -> tuple[int, int]:
    """Bit errors and scored bits of one slot: a chunk of one slot."""
    return _point_counts((params, axis_index, slot_index, slot_index + 1))


def _point_counts(args) -> tuple[int, int]:
    """Bit errors and scored bits of the slots lo..hi - 1. Genie and energy
    detection decide each slot as it is drawn and score all M bits. EM
    schemes score the M - 1 data bits after the pilot; they draw blocks
    into one reused (B, L, M) stack of received grids and decide each in
    one em_run whose E-step grid, (B x R, 2, L, M) complex for R starts a
    slot, fills at most _BLOCK_BYTES or holds one slot."""
    params, axis_index, lo, hi = args
    errors = 0
    if params.scheme not in EM_SCHEMES:
        for i in range(lo, hi):
            real, frame, bits, slot, cal = draw_slot(params, i, axis_index)
            s_hat = (receiver.genie_detect(slot, frame, real, params.scheme)
                     if cal is None else slot.y_energy
                     >= receiver.threshold_sweep(cal.y_energy, _CAL_BITS))
            errors += int(np.sum(s_hat != bits))
        return errors, (hi - lo) * params.M
    n_starts = len(_START_OFFSETS) if params.scheme is Scheme.CAMF else 1
    step = max(1, _BLOCK_BYTES // (n_starts * 2 * params.L * params.M * 16))
    stack = np.empty((min(step, hi - lo), params.L, params.M), complex)
    for first in range(lo, hi, step):
        ys = stack[:min(step, hi - first)]
        reals, _, bits, _, starts = zip(*(draw_slot(params, i, axis_index, y)
                                          for i, y in enumerate(ys, first)))
        s_hat = receiver.em_run(
            receiver.ReceivedSlot(ys, params.n0),
            np.array([real.H for real in reals]), params.n_iter,
            params.scheme, np.array(starts))[0]
        errors += int(np.count_nonzero(s_hat[:, 1:] != np.array(bits)[:, 1:]))
    return errors, (hi - lo) * (params.M - 1)


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

    Each point's slots are split into one contiguous chunk per worker, and
    there are no more workers than slots. One worker runs its chunk here;
    more run theirs on a process pool kept for that worker count: its
    workers start on the first such sweep and live until the interpreter
    exits. They see module state as of their fork, so a change made to a
    module later (a monkeypatch, say) does not reach them. The counts are
    the same for every n_workers.
    """
    values = sorted(values)
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

