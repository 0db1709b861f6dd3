"""Monte Carlo harness: per-slot trials, parameter sweeps, trend checks.

Every slot derives its own random stream from (master seed, axis index,
slot index), so results are bit-identical regardless of worker count or
completion order.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from . import bd, channel, receiver
from .config import EM_SCHEMES, Scheme, SimParams
from .ofdm import gen_frame

_ENERGY_CAL_SYMBOLS = 64
_ENERGY_GRID_SIZE = 101


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
    a = bd.backscatter_frame(params.scheme, real, frame, bits.s)
    slot = receiver.receive(real.H, frame, a, params.n0, rng)

    if pilot:
        result = receiver.em_run(slot, real.H, params.em, params.scheme,
                                 real, rng)
        s_hat = result.s_hat
        start = 1
    else:
        s_hat = receiver.genie_detect(slot, real.H, frame, real, params.scheme)
        start = 0
    errors = int(np.sum(s_hat[start:] != bits.s[start:]))
    return errors, params.M - start


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
    cal_energy = np.sum(np.abs(cal_slot.y) ** 2, axis=0)
    grid = np.linspace(cal_energy.min(), cal_energy.max() + 1e-9,
                       _ENERGY_GRID_SIZE)
    tau = receiver.threshold_sweep(cal_energy, cal_bits, grid)

    energy = np.sum(np.abs(slot.y) ** 2, axis=0)
    decisions = (energy >= tau).astype(int)
    return int(np.sum(decisions != bits01)), params.M


def _point_counts(args) -> tuple[int, int]:
    params, axis_index, lo, hi = args
    errors = total = 0
    for slot_index in range(lo, hi):
        e, t = run_slot(params, slot_index, axis_index)
        errors += e
        total += t
    return errors, total


def sweep(params: SimParams, axis: str, values,
          n_workers: int = 1) -> BerCurve:
    """BER at each axis value; deterministic given params.seed."""
    values = sorted(values)
    if not values:
        raise ValueError("empty sweep values")
    points = []
    for axis_index, value in enumerate(values):
        point_params = params.at(axis, value)
        start = perf_counter()
        if n_workers > 1:
            chunks = np.linspace(0, point_params.slots,
                                 n_workers + 1).astype(int)
            jobs = [(point_params, axis_index, int(lo), int(hi))
                    for lo, hi in zip(chunks[:-1], chunks[1:]) if lo < hi]
            with ProcessPoolExecutor(max_workers=n_workers) as pool:
                results = list(pool.map(_point_counts, jobs))
            errors = sum(r[0] for r in results)
            total = sum(r[1] for r in results)
        else:
            errors, total = _point_counts(
                (point_params, axis_index, 0, point_params.slots))
        runtime_ms = (perf_counter() - start) * 1e3
        points.append(BerPoint.from_counts(float(value), errors, total,
                                           runtime_ms))
    return BerCurve(axis_name=axis, points=tuple(points),
                    params_snapshot=params)


@dataclass(frozen=True)
class CurveComparison:
    """Pointwise differences (a - b) with pooled errors and trend verdicts."""

    axis_name: str
    values: np.ndarray
    diffs: np.ndarray
    pooled_stderrs: np.ndarray
    trend_a: str
    trend_b: str


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


def compare_curves(a: BerCurve, b: BerCurve) -> CurveComparison:
    va = np.array([p.swept_value for p in a.points])
    vb = np.array([p.swept_value for p in b.points])
    if a.axis_name != b.axis_name or not np.array_equal(va, vb):
        raise ValueError("curves have mismatched axes")
    return CurveComparison(
        axis_name=a.axis_name,
        values=va,
        diffs=a.bers - b.bers,
        pooled_stderrs=np.hypot(a.stderrs, b.stderrs),
        trend_a=trend_verdict(a),
        trend_b=trend_verdict(b),
    )
