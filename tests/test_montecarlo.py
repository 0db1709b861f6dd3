import concurrent.futures
import dataclasses
import hashlib
import json
import os
import signal
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from ambc import bd, channel, montecarlo, receiver
from ambc.analysis import LinkBudget, ber_cuif_closed, ber_unknown_symbols
from ambc.config import E_X, EM_SCHEMES, Scheme, SimParams
from ambc.montecarlo import (BerCurve, BerPoint, run_slot, slot_rng, sweep,
                             trend_verdict)
from ambc.ofdm import gen_frame


def test_slot_rng_reproducible_and_distinct():
    a = slot_rng(7, 3, 1).standard_normal(4)
    b = slot_rng(7, 3, 1).standard_normal(4)
    c = slot_rng(7, 4, 1).standard_normal(4)
    d = slot_rng(7, 3, 2).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_run_slot_deterministic():
    params = SimParams(scheme=Scheme.CAMF, seed=5)
    assert run_slot(params, 0) == run_slot(params, 0)


def test_run_slot_em_scores_data_bits_only():
    params = SimParams(M=40, scheme=Scheme.CAMF, seed=1)
    _, total = run_slot(params, 0)
    assert total == 39


def test_em_scheme_needs_a_data_bit_after_the_pilot():
    for scheme in (Scheme.CAMF, Scheme.CUIF):
        with pytest.raises(ValueError):
            SimParams(M=1, scheme=scheme)
    assert run_slot(SimParams(M=1, scheme=Scheme.GENIE_CAMF), 0)[1] == 1
    # no scheme runs without a symbol
    for scheme in Scheme:
        with pytest.raises(ValueError, match="M must be >= 1"):
            SimParams(M=0, scheme=scheme)


@settings(max_examples=100, deadline=None, database=None)
@given(L=st.integers(1, 12), P=st.integers(1, 6), M=st.integers(1, 6),
       alpha_sq=st.floats(0.0, 1.0), snr_db=st.floats(-1e4, 1e4),
       scheme=st.sampled_from(Scheme), n_iter=st.integers(1, 3))
def test_every_accepted_point_runs(L, P, M, alpha_sq, snr_db, scheme, n_iter):
    try:
        params = SimParams(L=L, M=M, P=P, alpha_sq=alpha_sq, snr_db=snr_db,
                           scheme=scheme, n_iter=n_iter, slots=1)
    except ValueError:
        return
    errors, bits = run_slot(params, 0)
    assert bits > 0
    assert 0 <= errors <= bits
    budget = LinkBudget.from_sim(params)
    assert 0.0 <= ber_cuif_closed(budget) <= 0.5
    assert 0.0 <= ber_unknown_symbols(budget) <= 0.5


def test_simparams_rejects_non_finite_snr_and_negative_seed():
    for snr_db in (float("nan"), float("inf"), float("-inf"), 1000.5,
                   -1000.5, 3100.0, -3100.0, 4000.0, -4000.0):
        with pytest.raises(ValueError):
            SimParams(snr_db=snr_db)
        with pytest.raises(ValueError):
            SimParams().at("snr_db", snr_db)
    with pytest.raises(ValueError):
        SimParams(seed=-1)
    # a bool would pass the range checks, and a scheme that is not a Scheme
    # member would run the GENIE_CUIF detector
    for field, value in (("alpha_sq", True), ("alpha_sq", np.True_),
                         ("snr_db", True), ("snr_db", False),
                         ("snr_db", "6"), ("scheme", "CAMF"),
                         ("scheme", "bogus"), ("scheme", 3),
                         ("scheme", None)):
        with pytest.raises(ValueError, match=f"{field} must be a"):
            SimParams(**{field: value})
    assert SimParams(seed=0, snr_db=-30.0).seed == 0
    for edge in (-1000.0, 1000.0):
        assert 0.0 < SimParams(snr_db=edge).n0 < np.inf


def test_simparams_rejects_a_zero_iteration_cap():
    with pytest.raises(ValueError):
        SimParams(n_iter=0)
    with pytest.raises(ValueError):
        SimParams().at("n_iter", 0)


# (bit_errors, total_bits) of the EM schemes at alpha^2 = 0.1, 6 slots,
# seed 11, recorded before the EM receiver was vectorised. Seeded counts
# are part of the output contract: a speed-up must leave them unchanged.
PINNED_EM_COUNTS = {
    ("CAMF", 32, -4.0): (175, 594),
    ("CAMF", 32, 0.0): (14, 594),
    ("CAMF", 128, -4.0): (195, 594),
    ("CAMF", 128, 0.0): (1, 594),
    ("CUIF", 32, -4.0): (272, 594),
    ("CUIF", 32, 0.0): (189, 594),
    ("CUIF", 128, -4.0): (294, 594),
    ("CUIF", 128, 0.0): (111, 594),
    # CAMF at 14 dB, alpha^2 = 0.004, 40 slots, a cap of 20 iterations:
    # here restarts often end on the same estimate and exact log-likelihood
    # ties pick the winner. L = 32 was recorded before the E-step and
    # M-step were derived from the matched-filter output; L = 16 was
    # re-recorded when the stopping tolerance became the receiver's fixed
    # 1e-12 (it was first recorded at 1e-6).
    ("CAMF", 16, 14.0): (30, 3960),
    ("CAMF", 32, 14.0): (9, 3960),
}


def test_em_counts_pinned():
    counts = {}
    for scheme in (Scheme.CAMF, Scheme.CUIF):
        for L in (32, 128):
            params = SimParams(L=L, alpha_sq=0.1, scheme=scheme, slots=6,
                               seed=11)
            for pt in sweep(params, "snr_db", [-4.0, 0.0]).points:
                counts[(scheme.value, L, pt.swept_value)] = (pt.bit_errors,
                                                             pt.total_bits)
    for L in (16, 32):
        params = SimParams(L=L, alpha_sq=0.004, scheme=Scheme.CAMF, slots=40,
                           seed=11, n_iter=20)
        pt = sweep(params, "snr_db", [14.0]).points[0]
        counts[("CAMF", L, 14.0)] = (pt.bit_errors, pt.total_bits)
    assert counts == PINNED_EM_COUNTS


# (bit_errors, total_bits) of the EM-free detectors at alpha^2 = 0.1,
# 6 slots, seed 11, recorded while genie_detect still compared the two
# residual energies and ENERGY still summed |y|^2 on its own.
PINNED_BASELINE_COUNTS = {
    ("GENIE_CUIF", 16, -8.0): (92, 600),
    ("GENIE_CUIF", 16, 0.0): (25, 600),
    ("GENIE_CUIF", 32, -8.0): (40, 600),
    ("GENIE_CUIF", 32, 0.0): (14, 600),
    ("GENIE_CAMF", 16, -8.0): (54, 600),
    ("GENIE_CAMF", 16, 0.0): (7, 600),
    ("GENIE_CAMF", 32, -8.0): (13, 600),
    ("GENIE_CAMF", 32, 0.0): (5, 600),
    ("ENERGY", 16, -8.0): (262, 600),
    ("ENERGY", 16, 0.0): (221, 600),
    ("ENERGY", 32, -8.0): (242, 600),
    ("ENERGY", 32, 0.0): (194, 600),
}


def test_baseline_counts_pinned():
    counts = {}
    for scheme in (Scheme.GENIE_CUIF, Scheme.GENIE_CAMF, Scheme.ENERGY):
        for L in (16, 32):
            params = SimParams(L=L, alpha_sq=0.1, scheme=scheme, slots=6,
                               seed=11)
            for pt in sweep(params, "snr_db", [-8.0, 0.0]).points:
                counts[(scheme.value, L, pt.swept_value)] = (pt.bit_errors,
                                                             pt.total_bits)
    assert counts == PINNED_BASELINE_COUNTS


def test_run_slot_is_the_explicit_composition(monkeypatch):
    # draw_slot draws the slot's stream in the order realization, frame,
    # bits, noise, EM starts; the detector itself draws nothing, and
    # run_slot decides its slot as a stack of one
    def same(got, want):
        if want is None:
            return got is None
        if isinstance(want, receiver.ReceivedSlot):
            return np.array_equal(got.y, want.y) and got.N0 == want.N0
        if isinstance(want, tuple):
            return len(got) == len(want) and all(map(same, got, want))
        return np.array_equal(got, want)

    for scheme, name in ((Scheme.CAMF, "em_run"), (Scheme.CUIF, "em_run"),
                         (Scheme.GENIE_CAMF, "genie_detect")):
        detector, seen = getattr(receiver, name), []

        def recording(*args):
            seen.append((args, detector(*args)))
            return seen[-1][1]

        params = SimParams(scheme=scheme, snr_db=0.0, seed=3)
        em = scheme in EM_SCHEMES
        for slot_index in range(3):
            rng = slot_rng(params.seed, slot_index)
            H, G, theta = channel.sample_realization(params, rng)
            C = channel.effective_gain(
                G, np.sqrt(params.alpha_sq) * np.exp(1j * theta), scheme)
            frame = gen_frame(params.L, params.M, rng)
            bits = bd.sample_bits(params.M, rng, pilot_first=em)
            a = bd.backscatter_frame(C, frame, bits)
            slot = receiver.receive(H, frame, a, params.n0, rng)
            starts = montecarlo._em_starts(params, theta, rng) if em else None
            y = np.empty_like(slot.y)
            drawn = montecarlo.draw_slot(params, slot_index, 0, y)
            assert np.array_equal(y, slot.y)
            assert same(drawn, (H, C, frame, bits, starts))
            stack = receiver.ReceivedSlot(y=slot.y[None], N0=params.n0)
            args = ((stack, H[None], params.n_iter, scheme, starts[None])
                    if em else (stack, frame[None], H[None], C[None]))
            want = detector(*args)
            # one row a slot; em_run returns (s_hat, v_hat, iterations,
            # converged), and EM skips the pilot
            outputs = want if em else (want,)
            assert all(len(output) == 1 for output in outputs)
            with monkeypatch.context() as patch:
                patch.setattr(montecarlo.receiver, name, recording)
                errors, total = run_slot(params, slot_index)
            got_args, got = seen.pop()
            assert same(got_args, args) and same(got, want)
            s_hat = outputs[0][0]
            assert (errors, total) == (
                int(np.sum(s_hat[em:] != bits[em:])), params.M - em)


# SHA-256 of draw_slot's outputs, in the order (y, H, C, frame, bits,
# extra), over 3 slots of each scheme at (L, P) = (32, 4) and (16, 1), 0 dB,
# seed 5, axis index 1; extra None hashes as b"None". Recorded before the
# realization was drawn in one normal draw and one FFT: a speed-up must
# leave every draw of the slot stream, and its order, unchanged.
PINNED_DRAW_DIGESTS = {
    "y": "b584d870ae60f46fdc964b2ac525db37e8a383787589e66faa3e0179a166ce18",
    "H": "905398295c9fbd1bc849dedd5d810b4b0b2a54022611fd689197c0fac41a89a2",
    "C": "d45db352db924910050e9b04d3094772df664a534aeedc3ed5e441d96a7660c0",
    "frame":
        "aaaad1c441886b63e20c6700c038ac8ad0162fb8b4a0fab250aaa7d14ecc0808",
    "bits": "b9143c7f5ac2986775e17dece5a768d92f8496ef7f7964ea569a1386c0af8905",
    "extra":
        "7a2a30ec9742457d388c1569bfb9d6dda33a10dc28e15c4ec80ccb4aabab34f1",
}


def test_draw_slot_bytes_pinned():
    digests = {name: hashlib.sha256() for name in PINNED_DRAW_DIGESTS}
    for L, P in ((32, 4), (16, 1)):
        for scheme in Scheme:
            params = SimParams(scheme=scheme, L=L, P=P, snr_db=0.0, seed=5)
            for slot_index in range(3):
                y = np.empty((L, params.M), complex)
                drawn = montecarlo.draw_slot(params, slot_index, 1, y)
                for digest, array in zip(digests.values(), (y,) + drawn):
                    digest.update(b"None" if array is None
                                  else np.ascontiguousarray(array).tobytes())
    assert ({name: d.hexdigest() for name, d in digests.items()}
            == PINNED_DRAW_DIGESTS)


def test_draw_slot_energy_draws_its_calibration_last():
    # on-off bits, then the calibration frame and its noise after the
    # slot's own noise
    params = SimParams(scheme=Scheme.ENERGY, snr_db=4.0, seed=3)
    rng = slot_rng(params.seed, 2, 1)
    H, G, theta = channel.sample_realization(params, rng)
    # ENERGY's tag reflects through the impulse filter, as CUIF's does
    C = channel.effective_gain(
        G, np.sqrt(params.alpha_sq) * np.exp(1j * theta), Scheme.CUIF)
    frame = gen_frame(params.L, params.M, rng)
    bits = rng.integers(0, 2, size=params.M)
    a = bd.backscatter_frame(C, frame, bits)
    slot = receiver.receive(H, frame, a, params.n0, rng)
    cal_bits = np.tile([0, 1], 32)
    cal_frame = gen_frame(params.L, cal_bits.size, rng)
    cal_a = bd.backscatter_frame(C, cal_frame, cal_bits)
    cal = receiver.receive(H, cal_frame, cal_a, params.n0, rng)
    y = np.empty_like(slot.y)
    drawn = montecarlo.draw_slot(params, 2, 1, y)
    assert np.array_equal(y, slot.y)
    for got, want in zip(drawn, (H, C, frame, bits, cal.y_energy),
                         strict=True):
        assert np.array_equal(got, want)
    tau = receiver.threshold_sweep(cal.y_energy, cal_bits)
    assert run_slot(params, 2, 1) == (
        int(np.sum((slot.y_energy >= tau) != bits)), params.M)


def test_run_slot_genie_scores_all_bits():
    params = SimParams(M=40, scheme=Scheme.GENIE_CUIF, seed=1)
    _, total = run_slot(params, 0)
    assert total == 40


def test_run_slot_high_snr_error_free():
    params = SimParams(snr_db=40.0, scheme=Scheme.GENIE_CAMF, seed=2)
    errors = sum(run_slot(params, i)[0] for i in range(20))
    assert errors == 0


def test_genie_cuif_matches_closed_form():
    # bits within a slot share one channel draw, so the spread is set by
    # the slot-level variance rather than the per-bit binomial one
    params = SimParams(snr_db=0.0, scheme=Scheme.GENIE_CUIF, seed=3)
    n = 1500
    per_slot = np.array([run_slot(params, i)[0] for i in range(n)])
    ber = per_slot.sum() / (n * params.M)
    se = per_slot.std(ddof=1) / np.sqrt(n) / params.M
    expected = ber_cuif_closed(LinkBudget.from_sim(params))
    assert abs(ber - expected) < 3 * se


def test_energy_scheme_runs_and_beats_chance():
    params = SimParams(snr_db=8.0, scheme=Scheme.ENERGY, seed=4)
    errors = total = 0
    for i in range(50):
        e, t = run_slot(params, i)
        errors += e
        total += t
    assert 0 < errors / total < 0.5


def test_sweep_rejects_bad_axis_and_empty_values():
    params = SimParams()
    with pytest.raises(ValueError):
        sweep(params, "bogus", [1.0])
    with pytest.raises(ValueError):
        sweep(params, "snr_db", [])


def test_sweep_points_sorted_and_counts_consistent():
    params = SimParams(scheme=Scheme.GENIE_CUIF, slots=20, seed=6)
    curve = sweep(params, "snr_db", [4.0, 0.0])
    values = [p.swept_value for p in curve.points]
    assert values == [0.0, 4.0]
    for pt in curve.points:
        assert pt.total_bits == 20 * params.M
        assert np.isclose(pt.ber, pt.bit_errors / pt.total_bits)


def test_sweep_runs_a_repeated_value_once():
    # a repeated value must not move later points onto other axis indices
    def points(axis, values):
        return [(p.swept_value, p.bit_errors, p.total_bits)
                for p in sweep(params, axis, values).points]

    params = SimParams(scheme=Scheme.GENIE_CUIF, slots=200, seed=0)
    assert points("snr_db", [-8, -8, 0, 4]) == points("snr_db", [-8, 0, 4])
    assert points("L", [16, 16.0, 32]) == points("L", [16, 32])


def test_sweep_applies_axis_value():
    params = SimParams(scheme=Scheme.GENIE_CUIF, slots=5, seed=6)
    curve = sweep(params, "L", [16])
    assert curve.points[0].total_bits == 5 * params.M
    # a different L must change the sampled channel, hence the counts stream
    a = sweep(params, "L", [16]).points[0]
    b = sweep(params, "L", [64]).points[0]
    assert (a.bit_errors, a.total_bits) == (curve.points[0].bit_errors,
                                            curve.points[0].total_bits)
    assert b.total_bits == a.total_bits


def test_at_maps_axes_and_rejects_non_integral_values():
    params = SimParams()
    assert params.at("L", 16.0).L == 16
    assert params.at("n_iter", 3.0).n_iter == 3
    assert params.at("snr_db", 2).snr_db == 2.0
    for axis in ("L", "P", "n_iter"):
        with pytest.raises(ValueError):
            params.at(axis, 2.5)
    with pytest.raises(ValueError):
        params.at("bogus", 1.0)
    with pytest.raises(ValueError):
        sweep(params.with_(scheme=Scheme.GENIE_CUIF, slots=1), "L", [16.5])
    # an axis value is a real number, as alpha_sq and snr_db are: float()
    # would take True as 1 and "6" as 6
    for axis in ("snr_db", "L", "P", "alpha_sq", "n_iter"):
        for value in (True, np.True_, "6"):
            with pytest.raises(ValueError, match=f"{axis} must be a number"):
                params.at(axis, value)
    with pytest.raises(ValueError):
        sweep(params.with_(scheme=Scheme.GENIE_CUIF, slots=1), "P", [True])
    # numpy numbers pass
    assert params.at("L", np.float64(16.0)).L == 16
    assert params.at("snr_db", np.int64(2)).snr_db == 2.0
    # counts are integers: a float or a bool is refused by name, where the
    # sweep would raise TypeError or (slots=2.5) run 2 slots
    for field, value in (("M", 2.5), ("L", 32.0), ("P", 4.0),
                         ("n_iter", 2.5), ("seed", 1.5), ("M", True),
                         ("P", True), ("slots", 2.5),
                         ("slots", np.float64(2.0)), ("seed", np.bool_(True))):
        with pytest.raises(ValueError,
                           match=f"{field} must be an integer, got"):
            SimParams(**{"slots": 2, field: value})
    # numpy integers run, as Python ints do
    numpy_counts = SimParams(L=np.int64(16), M=np.int32(10), P=np.int16(2),
                             n_iter=np.int64(2), slots=np.int64(2),
                             seed=np.uint8(3))
    python_counts = SimParams(L=16, M=10, P=2, n_iter=2, slots=2, seed=3)
    for scheme in (Scheme.CAMF, Scheme.GENIE_CUIF):
        assert counts(sweep(numpy_counts.with_(scheme=scheme), "snr_db",
                            [0.0])) == counts(
            sweep(python_counts.with_(scheme=scheme), "snr_db", [0.0]))
    # and are kept as Python ints: a point's counts serialise to JSON, and
    # slots * M does not wrap at the numpy dtype's width
    assert all(type(getattr(numpy_counts, field)) is int
               for field in ("L", "M", "P", "n_iter", "slots", "seed"))
    genie = SimParams(M=np.int32(10), slots=np.int64(3),
                      scheme=Scheme.GENIE_CUIF)
    point = dataclasses.asdict(sweep(genie, "snr_db", [0.0]).points[0])
    assert type(point["total_bits"]) is int and point["total_bits"] == 30
    assert json.loads(json.dumps(point)) == point
    big = SimParams(M=np.int32(100), slots=np.int32(30_000_000))
    assert big.slots * big.M == 3_000_000_000


def test_sweep_n_iter_axis():
    params = SimParams(scheme=Scheme.CAMF, slots=3, seed=7)
    curve = sweep(params, "n_iter", [1])
    assert curve.points[0].total_bits == 3 * (params.M - 1)


def test_sweep_worker_count_invariant():
    params = SimParams(scheme=Scheme.GENIE_CUIF, slots=30, seed=8)
    one = sweep(params, "snr_db", [0.0, 4.0], n_workers=1)
    many = sweep(params, "snr_db", [0.0, 4.0], n_workers=3)
    for p1, p2 in zip(one.points, many.points):
        assert (p1.bit_errors, p1.total_bits) == (p2.bit_errors, p2.total_bits)


@pytest.fixture
def fresh_pools(monkeypatch):
    """An empty pool cache for one test; its pools are shut down after it."""
    pools = {}
    monkeypatch.setattr(montecarlo, "_pools", pools)
    yield pools
    for pool in pools.values():
        pool.shutdown()


def counts(curve):
    return [(p.bit_errors, p.total_bits) for p in curve.points]


def test_sweep_starts_one_pool_for_all_points(fresh_pools, monkeypatch):
    started = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs)
            super().__init__(*args, **kwargs)

    # sweep imports the pool class when it first runs in parallel
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        CountingPool)
    params = SimParams(scheme=Scheme.GENIE_CUIF, slots=5, seed=9)
    values = [0.0, 2.0, 4.0]
    serial = counts(sweep(params, "snr_db", values, n_workers=1))
    assert started == []
    for n_workers in (2, 2, 3):
        assert counts(sweep(params, "snr_db", values,
                            n_workers=n_workers)) == serial
    # the second 2-worker sweep reuses the first one's pool
    assert started == [{"max_workers": 2}, {"max_workers": 3}]
    assert sorted(fresh_pools) == [2, 3]


def test_pool_has_no_more_workers_than_slots(fresh_pools):
    params = SimParams(scheme=Scheme.GENIE_CUIF, slots=2, seed=9)
    serial = counts(sweep(params, "snr_db", [0.0, 4.0]))
    assert counts(sweep(params, "snr_db", [0.0, 4.0], n_workers=8)) == serial
    assert sorted(fresh_pools) == [2]
    assert len(fresh_pools[2]._processes) == 2


def test_sweep_rejects_fewer_than_one_worker(fresh_pools):
    # sweep's own error, before any chunk or pool is made
    params = SimParams(scheme=Scheme.GENIE_CUIF, slots=4, seed=9)
    for n_workers in (0, -2):
        with pytest.raises(ValueError,
                           match=f"n_workers must be >= 1, got {n_workers}"):
            sweep(params, "snr_db", [0.0], n_workers=n_workers)
    for n_workers in (2.0, 1.5, True):
        with pytest.raises(ValueError,
                           match="n_workers must be an integer, got"):
            sweep(params, "snr_db", [0.0], n_workers=n_workers)
    assert fresh_pools == {}


@pytest.mark.parametrize("scheme", list(Scheme))
def test_counts_do_not_depend_on_the_block_budget(monkeypatch, scheme):
    # a budget below one slot's grid decides slot by slot; a huge one
    # decides each chunk as one block
    params = SimParams(L=16, scheme=scheme, slots=7, seed=12, n_iter=20)
    values = [0.0, 8.0]
    default = counts(sweep(params, "snr_db", values))
    for budget in (1, 1 << 40):
        monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", budget)
        assert counts(sweep(params, "snr_db", values)) == default
    # and run_slot is a block of one slot
    assert default == [
        tuple(map(sum, zip(*(run_slot(params.at("snr_db", value), i, k)
                             for i in range(params.slots)))))
        for k, value in enumerate(values)]


def test_broken_pool_is_replaced(fresh_pools):
    params = SimParams(scheme=Scheme.GENIE_CUIF, slots=6, seed=10)
    values = [0.0, 4.0]
    serial = counts(sweep(params, "snr_db", values))
    assert counts(sweep(params, "snr_db", values, n_workers=2)) == serial
    pool = fresh_pools[2]
    worker = next(iter(pool._processes.values()))
    os.kill(worker.pid, signal.SIGKILL)
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert counts(sweep(params, "snr_db", values, n_workers=2)) == serial
    assert fresh_pools[2] is not pool


def test_pool_broken_twice_raises_and_is_not_kept(fresh_pools, monkeypatch):
    # a pool whose map breaks on the first try and on the retry: the error
    # reaches the caller and neither pool stays cached; no worker starts
    made = []

    class BrokenPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def map(self, fn, *iterables):
            raise BrokenProcessPool("worker died")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", BrokenPool)
    params = SimParams(scheme=Scheme.GENIE_CUIF, slots=4, seed=10)
    with pytest.raises(BrokenProcessPool):
        sweep(params, "snr_db", [0.0], n_workers=2)
    assert made == [2, 2]
    assert fresh_pools == {}


@pytest.mark.parametrize("seed, snr_db",
                         [(0, 0.0), (0, 8.0), (1, 8.0), (2, 8.0), (3, 4.0)])
def test_energy_errors_match_noncentral_chi2_oracle(seed, snr_db):
    # Given a slot's realization and calibrated threshold tau, |x|^2 = E_X
    # makes 2 E_m / N0 noncentral chi-square with 2L degrees of freedom and
    # noncentrality 2 E_X sum_l |H_l + C_l b_m|^2 / N0, so each bit's
    # decision errs independently with a known probability
    params = SimParams(scheme=Scheme.ENERGY, snr_db=snr_db, slots=300,
                       seed=seed)
    n0 = params.n0
    errors, x, nc0, nc1, ones = 0, [], [], [], []
    y = np.empty((params.L, params.M), complex)
    for i in range(params.slots):
        H, C, _, bits, cal_energy = montecarlo.draw_slot(params, i, 0, y)
        tau = receiver.threshold_sweep(cal_energy, montecarlo._CAL_BITS)
        energy = receiver.ReceivedSlot(y, n0).y_energy
        errors += int(np.count_nonzero((energy >= tau) != bits))
        x.append(2 * tau / n0)
        nc0.append(2 * E_X * np.sum(np.abs(H) ** 2) / n0)
        nc1.append(2 * E_X * np.sum(np.abs(H + C) ** 2) / n0)
        ones.append(int(np.count_nonzero(bits)))
    # the harness counts the same errors
    assert sweep(params, "snr_db", [snr_db]).points[0].bit_errors == errors
    p0 = stats.ncx2.sf(x, 2 * params.L, nc0)   # a 0 read as 1
    p1 = stats.ncx2.cdf(x, 2 * params.L, nc1)  # a 1 read as 0
    k1 = np.array(ones)
    k0 = params.M - k1
    expected = k0 @ p0 + k1 @ p1
    sd = np.sqrt(k0 @ (p0 * (1 - p0)) + k1 @ (p1 * (1 - p1)))
    z = (errors - expected) / sd
    assert abs(z) < 4, z


def test_interpreter_exits_after_parallel_sweep(tmp_path):
    # the cached pool's workers must not keep the interpreter from exiting
    code = ("import ambc\n"
            "params = ambc.SimParams(scheme=ambc.Scheme.GENIE_CUIF, slots=4)\n"
            "ambc.sweep(params, 'snr_db', [0.0, 4.0], n_workers=2)\n")
    env = dict(os.environ)
    src = str(Path(montecarlo.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    # under pytest, a cached pool left to interpreter teardown is collected
    # after the pool modules' globals are cleared, and prints "Exception
    # ignored in ... weakref_cb" at exit; a plain script does not show it
    (tmp_path / "test_parallel.py").write_text(
        "from ambc import cli\n"
        "def test_parallel(tmp_path):\n"
        "    assert cli.main(['--scheme', 'GENIE_CUIF', '--values', '0,4',\n"
        "                     '--slots', '10', '--workers', '3',\n"
        "                     '--out', str(tmp_path / 'w3.csv')]) == 0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "test_parallel.py"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stdout
    assert "Exception ignored" not in proc.stdout + proc.stderr, proc.stderr


def test_curve_requires_sorted_points():
    params = SimParams()
    pts = (BerPoint.from_counts(4.0, 1, 100),
           BerPoint.from_counts(0.0, 1, 100))
    with pytest.raises(ValueError):
        BerCurve(axis_name="snr_db", points=pts, params_snapshot=params)


def make_curve(bers, totals=10 ** 6):
    params = SimParams()
    pts = tuple(BerPoint.from_counts(float(i), int(round(b * totals)), totals)
                for i, b in enumerate(bers))
    return BerCurve(axis_name="snr_db", points=pts, params_snapshot=params)


def test_trend_verdicts():
    assert trend_verdict(make_curve([1e-2, 3e-3, 1e-3, 3e-4])) == "decreasing"
    assert trend_verdict(make_curve([3e-4, 1e-3, 3e-3, 1e-2])) == "increasing"
    assert trend_verdict(make_curve([1e-3, 1.01e-3, 0.99e-3])) == "flat"


def test_trend_single_point_flat():
    assert trend_verdict(make_curve([1e-3][:1])) == "flat"


def pairwise_verdict(curve, n_sigma):
    """trend_verdict's rule with the pairwise signs counted pair by pair."""
    b, se = curve.bers, curve.stderrs
    if b.size < 2:
        return "flat"
    signs = 0
    for i in range(b.size):
        for j in range(i + 1, b.size):
            signs += int(np.sign(b[j] - b[i]))
    gap, pooled = b[-1] - b[0], np.hypot(se[0], se[-1])
    if signs < 0 and gap < -n_sigma * pooled:
        return "decreasing"
    if signs > 0 and gap > n_sigma * pooled:
        return "increasing"
    return "flat"


@settings(max_examples=300, deadline=None)
@given(bers=st.lists(st.sampled_from([0.0, 1e-3, 0.01, 0.1, 0.5])
                     | st.floats(0.0, 0.5), min_size=1, max_size=9),
       totals=st.sampled_from([10, 100, 10 ** 6]),
       n_sigma=st.sampled_from([0.0, 1.0, 3.0]))
def test_trend_verdict_matches_pairwise_loop(bers, totals, n_sigma):
    # few distinct values and coarse counts make ties and equal endpoints
    curve = make_curve(bers, totals)
    assert trend_verdict(curve, n_sigma) == pairwise_verdict(curve, n_sigma)
