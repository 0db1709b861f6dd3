import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import optimize

from ambc import bd, channel, ofdm, receiver
from ambc.config import Scheme, SimParams
from ambc.montecarlo import _em_starts
from ambc.ofdm import gen_frame, qam4
from ambc.receiver import (em_e_step, em_m_step_unconstrained, em_run,
                           genie_detect, project_common_phase, receive,
                           threshold_sweep)

CONST = qam4()


def make_slot(seed, snr_db=6.0, scheme=Scheme.CAMF, L=32, M=100, n0=None,
              alpha_sq=0.2):
    params = SimParams(L=L, M=M, P=4, alpha_sq=alpha_sq, snr_db=snr_db,
                       scheme=scheme)
    rng = np.random.default_rng(seed)
    real = channel.sample_realization(params, rng)
    frame = gen_frame(L, M, rng)
    bits = bd.sample_bits(M, rng, pilot_first=True)
    a = bd.backscatter_frame(scheme, real, frame, bits)
    slot = receive(real.H, frame, a, params.n0 if n0 is None else n0, rng)
    return params, real, frame, bits, slot, rng


def serial_descent(slot, H, n_iter_max, mode, v_tilde):
    """Reference for one EM descent from a fixed start, run alone, with the
    receiver's stopping tolerance: the final estimate, the last posteriors,
    the iteration count, the convergence flag and the last
    log-likelihood."""
    iteration = 0
    while True:
        posteriors, xhat, loglik = em_e_step(slot, H, v_tilde)
        nu = em_m_step_unconstrained(slot, H, posteriors, xhat)
        if mode is Scheme.CAMF:
            nu = project_common_phase(nu)
        delta = np.sum(np.abs(nu - v_tilde) ** 2)
        v_tilde = nu
        iteration += 1
        converged = bool(delta < receiver._EPSILON)
        if converged or iteration >= n_iter_max:
            return v_tilde, posteriors, iteration, converged, loglik


def serial_em_run(slot, H, n_iter_max, mode, starts):
    """Reference for em_run: one serial descent per start, the first
    highest final log-likelihood wins. Returns the per-descent runs, the
    winner's index and the pilot-pinned bits and estimate."""
    runs = [serial_descent(slot, H, n_iter_max, mode, start)
            for start in starts]
    winner = 0
    for k, run in enumerate(runs):
        if run[-1] > runs[winner][-1]:
            winner = k
    v_hat, posteriors = runs[winner][:2]
    s_hat = np.where(posteriors[:, 1] >= posteriors[:, 0], 1, -1)
    if posteriors[0, 1] < 0.5:
        s_hat, v_hat = -s_hat, -v_hat
    return runs, winner, s_hat, v_hat


def em_run_one(slot, H, n_iter_max, mode, starts):
    """em_run on a stack of one slot: H (L,), starts (R, L). Returns the
    slot's row of each array: (s_hat, v_hat, iterations, converged)."""
    outputs = em_run(receiver.ReceivedSlot(y=slot.y[None], N0=slot.N0),
                     H[None], n_iter_max, mode, starts[None])
    assert all(len(output) == 1 for output in outputs)
    return tuple(output[0] for output in outputs)


def residual_e_step(slot, H, v_tilde):
    """Reference E-step that forms the residuals: exhaustive 4-QAM decisions
    (ties to the first point) and the log metric -sum_l |y - g x|^2 / N0
    under each hypothesis gain g = H + v s, for a (..., L) estimate."""
    y = slot.y
    gain = H + v_tilde[..., None, :] * np.array([-1.0, 1.0])[:, None]
    gy = gain[..., None, None] * CONST.points
    dist = np.abs(y[..., None] - gy) ** 2
    xhat = CONST.points[np.argmin(dist, axis=-1)]
    resid = np.abs(y - gain[..., None] * xhat) ** 2
    ell = -resid.sum(axis=-2) / slot.N0
    peak = ell.max(axis=-2)
    w = np.exp(ell - peak[..., None, :])
    total = w.sum(axis=-2)
    posteriors = np.swapaxes(w / total[..., None, :], -1, -2)
    loglik = np.sum(peak + np.log(total), axis=-1)
    return posteriors, np.moveaxis(xhat, -3, -1), loglik


def residual_m_step(slot, H, posteriors, xhat):
    """Reference M-step from the residuals y - H xhat, valid for any xhat."""
    p = posteriors[..., None, :, :]
    resid = slot.y[..., None] - H[:, None, None] * xhat
    s = np.array([-1.0, 1.0])
    num = (p * s * np.conj(xhat) * resid).sum(axis=(-2, -1))
    den = (p * np.abs(xhat) ** 2).sum(axis=(-2, -1))
    return num / den


def residual_genie_detect(slot, frame, real, scheme):
    """Reference genie decisions from the residual energy under each
    hypothesis gain H + C s, ties to +1."""
    C = real.effective_gain(scheme)
    d = np.empty((slot.y.shape[1], 2))
    for k, s in enumerate((-1.0, 1.0)):
        resid = slot.y - (real.H + C * s)[:, None] * frame
        d[:, k] = np.sum(np.abs(resid) ** 2, axis=0)
    return np.where(d[:, 1] <= d[:, 0], 1, -1)


def q_objective(slot, H, posteriors, xhat, l):
    def f(v):
        vc = v[0] + 1j * v[1]
        gains = H[l] + vc * np.array([-1.0, 1.0])
        resid = np.abs(slot.y[l][:, None] - gains[None, :] * xhat[l]) ** 2
        return float(np.sum(posteriors * resid))
    return f


class TestReceive:
    def test_noiseless_direct_link(self):
        _, real, frame, _, _, rng = make_slot(0)
        slot = receive(real.H, frame, np.zeros_like(frame), 0.0, rng)
        assert np.allclose(slot.y, real.H[:, None] * frame)

    def test_noiseless_camf_structure(self):
        params, real, frame, bits, _, rng = make_slot(1)
        a = bd.backscatter_frame(Scheme.CAMF, real, frame, bits)
        slot = receive(real.H, frame, a, 0.0, rng)
        expected = ((real.H[:, None]
                     + real.beta_tilde * real.V[:, None] * bits[None, :])
                    * frame)
        assert np.allclose(slot.y, expected)

    def test_noise_variance(self):
        rng = np.random.default_rng(2)
        n0 = 0.37
        frame = np.zeros((100, 1000), dtype=complex)
        slot = receive(np.zeros(100), frame, np.zeros_like(frame), n0, rng)
        power = np.abs(slot.y) ** 2
        se = n0 / np.sqrt(power.size)  # |n|^2 is exponential, std = N0
        assert abs(power.mean() - n0) < 3 * se

    def test_matches_two_draw_oracle(self):
        # the noise used to be two standard_normal draws of the frame's
        # shape, summed out of place; the single (2, L, M) draw built into
        # y in place must give the same bits and leave the stream where
        # the two draws did
        def oracle(H, frame, a, n0, rng):
            noise_scale = np.sqrt(n0 / 2.0)
            n = noise_scale * (rng.standard_normal(frame.shape)
                               + 1j * rng.standard_normal(frame.shape))
            return H[:, None] * frame + a + n

        for seed in range(5):
            for L, M, n0 in ((1, 1, 0.5), (4, 7, 0.0), (32, 100, 0.37),
                             (128, 3, 1e3)):
                draw = np.random.default_rng(seed)
                H = draw.standard_normal(L) + 1j * draw.standard_normal(L)
                frame = gen_frame(L, M, draw)
                a = 0.3 * gen_frame(L, M, draw)
                ours, theirs = (np.random.default_rng(seed + 100)
                                for _ in range(2))
                y = receive(H, frame, a, n0, ours).y
                expected = oracle(H, frame, a, n0, theirs)
                assert np.array_equal(y.view(np.uint64),
                                      expected.view(np.uint64))
                assert ours.random() == theirs.random()
            # real inputs still give a complex grid
            H = np.ones(3)
            frame = draw.choice([-1.0, 1.0], size=(3, 2))
            y = receive(H, frame, frame, 0.2, np.random.default_rng(seed)).y
            expected = oracle(H, frame, frame, 0.2,
                              np.random.default_rng(seed))
            assert np.array_equal(y.view(np.uint64), expected.view(np.uint64))

    def test_cached_energy_and_conjugate(self):
        slot = make_slot(3)[-2]
        y = slot.y
        assert np.array_equal(slot.y_energy,
                              (y.real ** 2 + y.imag ** 2).sum(axis=0))
        assert np.array_equal(slot.y_conj, np.conj(y))
        assert slot.y_energy is slot.y_energy
        assert slot.y_conj is slot.y_conj


class TestEStep:
    def test_zero_estimate_gives_uniform_posteriors(self):
        # both hypotheses share the gain H, so their metrics are equal
        _, real, _, _, slot, _ = make_slot(3)
        for shape in ((32,), (3, 32)):
            posteriors, _, _ = em_e_step(slot, real.H,
                                         np.zeros(shape, dtype=complex))
            assert np.all(posteriors == 0.5)

    def test_matches_residual_oracle(self):
        # batched (3, L) estimates: the truth, a rotated truth and a
        # random guess, from low to very high SNR
        rng = np.random.default_rng(23)
        for L in (16, 32, 128):
            for snr_db in (-4.0, 6.0, 20.0, 40.0):
                _, real, _, _, slot, _ = make_slot(24 + L, snr_db=snr_db, L=L)
                truth = real.beta_tilde * real.V
                guess = 0.3 * (rng.standard_normal(L)
                               + 1j * rng.standard_normal(L))
                v = np.stack([truth, truth * np.exp(0.5j), guess])
                posteriors, xhat, loglik = em_e_step(slot, real.H, v)
                ref_post, ref_xhat, ref_loglik = residual_e_step(
                    slot, real.H, v)
                scale = np.sum(np.abs(slot.y) ** 2) / slot.N0
                assert np.array_equal(xhat, ref_xhat), (L, snr_db)
                assert np.max(np.abs(posteriors - ref_post)) < 1e-9
                assert np.max(np.abs(loglik - ref_loglik)) < 1e-12 * scale
                for k in range(3):
                    alone = em_e_step(slot, real.H, v[k])
                    assert np.array_equal(alone[1], xhat[k])

    def test_true_estimate_recovers_bits_noiselessly(self):
        params, real, frame, bits, _, rng = make_slot(4)
        a = bd.backscatter_frame(Scheme.CAMF, real, frame, bits)
        slot = receive(real.H, frame, a, 0.0, rng)
        slot = receiver.ReceivedSlot(y=slot.y, N0=params.n0)  # finite metric
        posteriors, _, _ = em_e_step(slot, real.H, real.beta_tilde * real.V)
        idx = ((bits + 1) // 2).astype(int)
        assert np.all(posteriors[np.arange(params.M), idx] >=
                      posteriors[np.arange(params.M), 1 - idx])

    def test_any_memory_layout(self):
        _, real, _, _, slot, _ = make_slot(26)
        v = np.full((3, 32), 0.3 + 0.1j)
        flipped = receiver.ReceivedSlot(y=np.asfortranarray(slot.y),
                                        N0=slot.N0)
        got, want = em_e_step(flipped, real.H, v), em_e_step(slot, real.H, v)
        assert np.array_equal(got[1], want[1])
        assert np.allclose(got[0], want[0], rtol=0, atol=1e-12)
        assert np.allclose(got[2], want[2], rtol=1e-12, atol=0)

    def test_decisions_match_detect_grid(self):
        # the decisions are the sign kernel's on z = conj(g) y; v_tilde = H
        # makes the s = -1 gain exactly zero, so every z on that hypothesis
        # is zero and its decisions take the tie rule: 1 + 1j
        _, real, _, _, slot, _ = make_slot(27)
        v = np.stack([real.H, real.beta_tilde * real.V])
        _, xhat, _ = em_e_step(slot, real.H, v)
        gain = real.H + v[:, None, :] * np.array([-1.0, 1.0])[:, None]
        z = np.conj(gain)[..., None] * slot.y
        grid = ofdm.sign_point(ofdm.sign_index(z))
        assert np.array_equal(xhat, np.moveaxis(grid, -3, -1))
        assert np.all(xhat[0, ..., 0] == 1 + 1j)

    def test_decisions_outlive_the_next_call(self):
        _, real, _, _, slot, _ = make_slot(28)
        _, first, _ = em_e_step(slot, real.H, np.full(32, 0.3 + 0.1j))
        kept = first.copy()
        _, second, _ = em_e_step(slot, real.H, np.full(32, -0.1 + 0.3j))
        assert not np.array_equal(second, kept)
        assert np.array_equal(first, kept)

    def test_posteriors_normalized(self):
        _, real, _, _, slot, _ = make_slot(5)
        posteriors, _, _ = em_e_step(slot, real.H, np.full(32, 0.3 + 0.1j))
        assert np.allclose(posteriors.sum(axis=1), 1.0, atol=1e-12)

    def test_high_snr_no_overflow(self):
        _, real, _, _, slot, _ = make_slot(6, n0=1e-9)
        posteriors, _, _ = em_e_step(slot, real.H, np.full(32, 0.3 + 0.1j))
        assert np.all(np.isfinite(posteriors))


class TestMStep:
    def test_single_point_least_squares(self):
        y = np.array([[2 * (1 + 1j)]])
        slot = receiver.ReceivedSlot(y=y, N0=1.0)
        posteriors = np.array([[0.0, 1.0]])
        xhat = np.full((1, 1, 2), 1 + 1j, dtype=complex)
        nu = em_m_step_unconstrained(slot, np.zeros(1), posteriors, xhat)
        assert np.allclose(nu, [2.0])

    def test_plug_in_identity(self):
        params, real, frame, bits, _, rng = make_slot(7)
        a = bd.backscatter_frame(Scheme.CAMF, real, frame, bits)
        slot = receive(real.H, frame, a, 0.0, rng)
        posteriors = np.zeros((params.M, 2))
        posteriors[np.arange(params.M), ((bits + 1) // 2).astype(int)] = 1.0
        xhat = np.stack([frame, frame], axis=-1)
        nu = em_m_step_unconstrained(slot, real.H, posteriors, xhat)
        assert np.allclose(nu, real.beta_tilde * real.V, atol=1e-9)

    def test_matches_residual_oracle(self):
        # the residual-free form relies on |xhat|^2 = E_X: random 4-QAM
        # decisions, unbatched and with a (3,) batch of posteriors
        rng = np.random.default_rng(25)
        for L in (16, 32, 128):
            M = 100
            y = rng.standard_normal((L, M)) + 1j * rng.standard_normal((L, M))
            H = rng.standard_normal(L) + 1j * rng.standard_normal(L)
            slot = receiver.ReceivedSlot(y=y, N0=1.0)
            for batch in ((), (3,)):
                p = rng.random(batch + (M, 2))
                p /= p.sum(axis=-1, keepdims=True)
                xhat = CONST.points[rng.integers(0, 4, batch + (L, M, 2))]
                nu = em_m_step_unconstrained(slot, H, p, xhat)
                ref = residual_m_step(slot, H, p, xhat)
                assert nu.shape == batch + (L,)
                assert np.all(np.abs(nu - ref) <= 1e-12 * np.abs(ref))

    def test_matches_numeric_minimizer(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            L, M = 4, 6
            y = rng.standard_normal((L, M)) + 1j * rng.standard_normal((L, M))
            H = rng.standard_normal(L) + 1j * rng.standard_normal(L)
            p = rng.random((M, 2))
            p /= p.sum(axis=1, keepdims=True)
            xhat = CONST.points[rng.integers(0, 4, (L, M, 2))]
            slot = receiver.ReceivedSlot(y=y, N0=1.0)
            nu = em_m_step_unconstrained(slot, H, p, xhat)
            for l in range(L):
                f = q_objective(slot, H, p, xhat, l)
                res = optimize.minimize(f, [nu[l].real + 0.05,
                                            nu[l].imag - 0.05],
                                        method="BFGS")
                assert abs(nu[l] - (res.x[0] + 1j * res.x[1])) < 1e-6
                assert f([nu[l].real, nu[l].imag]) <= res.fun + 1e-10

    def test_grid_optimality(self):
        rng = np.random.default_rng(9)
        L, M = 3, 5
        y = rng.standard_normal((L, M)) + 1j * rng.standard_normal((L, M))
        H = rng.standard_normal(L) + 1j * rng.standard_normal(L)
        p = rng.random((M, 2))
        p /= p.sum(axis=1, keepdims=True)
        xhat = CONST.points[rng.integers(0, 4, (L, M, 2))]
        slot = receiver.ReceivedSlot(y=y, N0=1.0)
        nu = em_m_step_unconstrained(slot, H, p, xhat)
        for l in range(L):
            f = q_objective(slot, H, p, xhat, l)
            base = f([nu[l].real, nu[l].imag])
            offsets = np.linspace(-0.5, 0.5, 41)
            for dr in offsets:
                for di in offsets:
                    assert base <= f([nu[l].real + dr, nu[l].imag + di]) + 1e-12


class TestProjection:
    def test_fixed_point(self):
        v = np.exp(0.4j) * np.array([1.0, 2.0, 0.5])
        assert np.allclose(project_common_phase(v), v, atol=1e-12)

    def test_two_point_average(self):
        out = project_common_phase(np.array([1.0, 1j]))
        assert np.allclose(out, np.exp(1j * np.pi / 4) * np.ones(2))

    def test_phases_and_magnitudes(self):
        rng = np.random.default_rng(10)
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        out = project_common_phase(v)
        theta = np.angle(v.mean())
        assert np.allclose(np.angle(out[np.abs(out) > 0]), theta)
        assert np.allclose(np.abs(out), np.abs(v))

    def test_zero_sum_degenerate(self):
        out = project_common_phase(np.array([1.0, -1.0]))
        assert np.allclose(out, [1.0, 1.0])  # phase defined as 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            project_common_phase(np.array([]))


class TestEmRun:
    def test_noiseless_descent_from_truth(self):
        params, real, frame, bits, _, rng = make_slot(11)
        a = bd.backscatter_frame(Scheme.CAMF, real, frame, bits)
        slot = receive(real.H, frame, a, 0.0, rng)
        slot = receiver.ReceivedSlot(y=slot.y, N0=params.n0)
        _, posteriors, iterations, converged, _ = serial_descent(
            slot, real.H, 5, Scheme.CAMF, real.beta_tilde * real.V)
        s_hat = np.where(posteriors[:, 1] >= posteriors[:, 0], 1, -1)
        assert np.array_equal(s_hat, bits)
        assert converged and iterations <= 2

    def test_batched_restarts_match_serial_descents(self):
        # With a cap of 20 iterations the three restarts of seeds 30, 31
        # and 43 converge at different iterations, so the batch retires
        # them one by one; seed 43 ends in an exact log-likelihood tie,
        # which the first restart must win. At the default cap of 5 all
        # restarts of seeds 34-37 run to the cap.
        cases = [(30, Scheme.CAMF, 6.0, 20), (31, Scheme.CAMF, 0.0, 20),
                 (43, Scheme.CAMF, 14.0, 20), (33, Scheme.CUIF, 6.0, 20)]
        cases += [(seed, Scheme.CAMF, 6.0, 5) for seed in range(34, 38)]
        staggered = ties = 0
        for seed, scheme, snr_db, n_iter_max in cases:
            params, real, _, _, slot, _ = make_slot(seed, snr_db=snr_db,
                                                    scheme=scheme, L=16)
            starts = _em_starts(real, scheme, np.random.default_rng(seed))
            got_s, got_v, iterations, converged = em_run_one(
                slot, real.H, n_iter_max, scheme, starts)
            runs, winner, s_hat, v_hat = serial_em_run(
                slot, real.H, n_iter_max, scheme, starts)
            staggered += len({run[2] for run in runs}) > 1
            tied = {run[2] for run in runs if run[-1] == runs[winner][-1]}
            ties += len(tied) > 1
            assert np.array_equal(got_s, s_hat)
            assert np.array_equal(got_v, v_hat)
            assert iterations == runs[winner][2]
            assert converged == runs[winner][3]
        assert staggered >= 1 and ties == 1

    def test_same_inputs_same_result(self):
        # em_run draws nothing and leaves its starts as they are
        for seed, scheme in ((44, Scheme.CAMF), (45, Scheme.CUIF)):
            _, real, _, _, slot, rng = make_slot(seed, scheme=scheme)
            starts = _em_starts(real, scheme, rng)
            kept = starts.copy()
            first, second = (em_run_one(slot, real.H, 5, scheme, starts)
                             for _ in range(2))
            assert np.array_equal(starts, kept)
            # s_hat, v_hat, iterations and converged
            for got, want in zip(first, second, strict=True):
                assert np.array_equal(got, want)

    def test_stacked_slots_match_single_slot_calls(self):
        # One em_run over a stack of slots decides each slot bit for bit as
        # a stack of one does. With a cap of 20 some slots, and some CAMF
        # restarts within a slot, stop before others, so the stack runs
        # both while every descent is live and after some have stopped.
        # Seed 43's CAMF restarts at 14 dB end in an exact log-likelihood
        # tie, which its first restart must win in a stack of seven too.
        staggered = ties = 0
        for scheme in (Scheme.CAMF, Scheme.CUIF):
            for snr_db in (0.0, 6.0, 14.0):
                seeds = (43, *range(50, 56))
                cases = [make_slot(seed, snr_db=snr_db, scheme=scheme, L=16)
                         for seed in seeds]
                n0 = cases[0][0].n0
                H = np.array([real.H for _, real, *_ in cases])
                starts = np.array([
                    _em_starts(real, scheme, np.random.default_rng(seed))
                    for seed, (_, real, *_) in zip(seeds, cases)])
                stack = receiver.ReceivedSlot(
                    y=np.array([case[4].y for case in cases]), N0=n0)
                for n_iter_max in (1, 5, 20):
                    stacked = em_run(stack, H, n_iter_max, scheme, starts)
                    assert all(len(output) == len(cases)
                               for output in stacked)
                    for k, (case, h, start) in enumerate(zip(cases, H,
                                                             starts)):
                        want = em_run_one(case[4], h, n_iter_max, scheme,
                                          start)
                        # s_hat, v_hat, iterations and converged
                        for got, one in zip(stacked, want, strict=True):
                            assert np.array_equal(got[k], one)
                    s_hats, v_hats, iteration_counts, _ = stacked
                    iterations = set(iteration_counts.tolist())
                    staggered += len(iterations) > 1
                    if (scheme, snr_db, n_iter_max) == (Scheme.CAMF, 14.0,
                                                        20):
                        runs, winner, s_hat, v_hat = serial_em_run(
                            cases[0][4], H[0], n_iter_max, scheme, starts[0])
                        tied = {run[2] for run in runs
                                if run[-1] == runs[winner][-1]}
                        ties += len(tied) > 1 and len(iterations) > 1
                        assert np.array_equal(s_hats[0], s_hat)
                        assert np.array_equal(v_hats[0], v_hat)
                        assert iteration_counts[0] == runs[winner][2]
        assert staggered >= 2 and ties == 1

    def test_empty_stack_and_zero_cap(self):
        # an empty stack decides no slot and returns empty arrays; a cap
        # below one iteration would leave every descent without a result,
        # so it is refused
        _, real, _, _, slot, rng = make_slot(46)
        starts = _em_starts(real, Scheme.CAMF, rng)
        L, M = slot.y.shape
        for scheme in (Scheme.CAMF, Scheme.CUIF):
            empty = receiver.ReceivedSlot(y=slot.y[None][:0], N0=slot.N0)
            s_hat, v_hat, iterations, converged = em_run(
                empty, real.H[None][:0], 5, scheme, starts[None][:0])
            assert (s_hat.shape, v_hat.shape, iterations.shape,
                    converged.shape) == ((0, M), (0, L), (0,), (0,))
            assert [s_hat.dtype.kind, v_hat.dtype.kind, iterations.dtype.kind,
                    converged.dtype.kind] == ["i", "c", "i", "b"]
        with pytest.raises(ValueError, match="n_iter_max must be >= 1"):
            em_run_one(slot, real.H, 0, Scheme.CAMF, starts)

    def test_workspace_reused_across_shapes(self, monkeypatch):
        # The E-step buffers grow only when a grid needs more than their
        # capacity; a grid of fewer starts or a shorter slot, and the live
        # descents once some have stopped, take a leading slice. Both CAMF
        # slots retire their restarts at different iterations within the
        # cap of 20.
        monkeypatch.setattr(receiver, "_workspace", threading.local())
        staggered = 0
        buffers = []
        for seed, scheme, L in ((33, Scheme.CUIF, 32), (30, Scheme.CAMF, 16),
                                (32, Scheme.CUIF, 16), (31, Scheme.CAMF, 16)):
            params, real, _, _, slot, _ = make_slot(seed, scheme=scheme, L=L)
            starts = _em_starts(real, scheme, np.random.default_rng(seed))
            got_s, got_v, iterations, _ = em_run_one(slot, real.H, 20,
                                                     scheme, starts)
            runs, winner, s_hat, v_hat = serial_em_run(
                slot, real.H, 20, scheme, starts)
            staggered += len({run[2] for run in runs}) > 1
            assert np.array_equal(got_s, s_hat)
            assert np.array_equal(got_v, v_hat)
            assert iterations == runs[winner][2]
            buffers.append(receiver._workspace.buffers[0])
        assert staggered == 2
        # (R, 2, L, M) entries: 6400 for CUIF at L = 32, then 9600 for CAMF
        # at L = 16, which every later slot reuses
        assert buffers[0].size == 6400
        assert buffers[1] is buffers[2] is buffers[3]
        assert buffers[1].size == 9600

    def test_threads_keep_their_own_workspace(self):
        # threads deciding slots of one shape at once must not write into
        # each other's E-step buffers
        seeds = range(40, 44)
        slots = [make_slot(seed) for seed in seeds]

        def decide(case, seed):
            _, real, _, _, slot, _ = case
            return em_run_one(slot, real.H, 5, Scheme.CAMF,
                              _em_starts(real, Scheme.CAMF,
                                         np.random.default_rng(seed)))[:2]

        want = [decide(case, seed) for case, seed in zip(slots, seeds)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                for _ in range(10):
                    got = pool.map(decide, slots, seeds, timeout=60)
                    for (s_hat, v_hat), (s_want, v_want) in zip(got, want):
                        assert np.array_equal(s_hat, s_want)
                        assert np.array_equal(v_hat, v_want)
        finally:
            sys.setswitchinterval(interval)

    def test_decodes_noiseless_slot(self):
        params, real, frame, bits, _, rng = make_slot(12)
        a = bd.backscatter_frame(Scheme.CAMF, real, frame, bits)
        slot = receive(real.H, frame, a, 1e-12, rng)
        slot = receiver.ReceivedSlot(y=slot.y, N0=params.n0)
        s_hat, *_ = em_run_one(slot, real.H, 5, Scheme.CAMF,
                               _em_starts(real, Scheme.CAMF, rng))
        assert np.array_equal(s_hat, bits)

    def test_camf_iterates_in_constraint_set(self):
        params, real, _, _, slot, rng = make_slot(13)
        _, v, *_ = em_run_one(slot, real.H, 5, Scheme.CAMF,
                              _em_starts(real, Scheme.CAMF, rng))
        nonzero = v[np.abs(v) > 0]
        spread = np.angle(nonzero * np.exp(-1j * np.angle(nonzero.mean())))
        assert np.max(np.abs(spread)) < 1e-9
        assert np.all(np.abs(v) >= 0)

    def test_pilot_pins_result(self):
        params, real, _, bits, slot, rng = make_slot(14)
        s_hat, *_ = em_run_one(slot, real.H, 5, Scheme.CAMF,
                               _em_starts(real, Scheme.CAMF, rng))
        assert s_hat[0] == 1

    def test_sign_symmetry_same_slot(self):
        # (s, V) and (-s, -V) generate identical received grids, so the
        # detector cannot tell them apart; the pilot fixes one labeling
        params, real, frame, bits, _, rng = make_slot(15)
        a_pos = bd.backscatter_frame(Scheme.CAMF, real, frame, bits)
        gain = real.beta_tilde * real.V
        a_neg = (-gain[:, None]) * frame * (-bits[None, :])
        assert np.allclose(a_pos, a_neg)

    def test_cuif_mode_runs_unconstrained(self):
        params, real, _, _, slot, rng = make_slot(16, scheme=Scheme.CUIF)
        _, v_hat, *_ = em_run_one(slot, real.H, 5, Scheme.CUIF,
                                  _em_starts(real, Scheme.CUIF, rng))
        # unconstrained estimates generally have distinct phases
        phases = np.angle(v_hat)
        assert np.ptp(phases) > 1e-6

    def test_iteration_cost_scales_linearly(self):
        def iter_time(L, M, reps=20):
            params, real, _, _, slot, _ = make_slot(17, L=L, M=M)
            v_tilde = np.full(L, 0.3 + 0.1j)
            start = time.perf_counter()
            for _ in range(reps):
                posteriors, xhat, _ = em_e_step(slot, real.H, v_tilde)
                em_m_step_unconstrained(slot, real.H, posteriors, xhat)
            return (time.perf_counter() - start) / reps

        small = iter_time(64, 128)
        big = iter_time(128, 256)
        # 4x the work; allow 2x slack around linear scaling
        assert big / small < 8.0


class TestGenie:
    def test_matches_residual_oracle(self):
        for L in (16, 32, 128):
            for snr_db in (-8.0, -4.0, 0.0, 6.0, 12.0, 20.0, 30.0):
                for scheme in (Scheme.GENIE_CAMF, Scheme.GENIE_CUIF):
                    _, real, frame, _, slot, _ = make_slot(
                        29 + L, snr_db=snr_db, scheme=scheme, L=L)
                    assert np.array_equal(
                        genie_detect(slot, frame, real, scheme),
                        residual_genie_detect(slot, frame, real, scheme)), (
                        L, snr_db, scheme)

    def test_exact_ties_go_to_plus_one(self):
        # zero backscatter (alpha = 0) and no noise: y = H x, so both
        # hypotheses fit exactly in either form
        L, M = 16, 20
        rng = np.random.default_rng(30)
        real = channel.realization_from_parts(
            rng.standard_normal(4) + 1j * rng.standard_normal(4),
            rng.standard_normal(4) + 1j * rng.standard_normal(4), L,
            alpha=0.0, theta=0.9)
        frame = gen_frame(L, M, rng)
        slot = receive(real.H, frame, np.zeros((L, M), dtype=complex), 0.0,
                       rng)
        assert np.array_equal(slot.y, real.H[:, None] * frame)
        for scheme in (Scheme.GENIE_CAMF, Scheme.GENIE_CUIF):
            assert np.all(genie_detect(slot, frame, real, scheme) == 1)
            assert np.all(residual_genie_detect(slot, frame, real,
                                                scheme) == 1)

    def test_noiseless_zero_errors(self):
        params, real, frame, bits, _, rng = make_slot(18)
        for scheme in (Scheme.GENIE_CAMF, Scheme.GENIE_CUIF):
            a = bd.backscatter_frame(scheme, real, frame, bits)
            slot = receive(real.H, frame, a, 0.0, rng)
            s_hat = genie_detect(slot, frame, real, scheme)
            assert np.array_equal(s_hat, bits)

    def test_cuif_ber_matches_conditional_formula(self):
        # fixed channel, many independent symbols
        params, real, _, _, _, rng = make_slot(19)
        n = 10 ** 5
        frame = gen_frame(params.L, n, rng)
        s = bd.sample_bits(n, rng)
        a = bd.backscatter_frame(Scheme.GENIE_CUIF, real, frame, s)
        slot = receive(real.H, frame, a, params.n0, rng)
        s_hat = genie_detect(slot, frame, real, Scheme.GENIE_CUIF)
        ber = np.mean(s_hat != s)
        from ambc.analysis import ber_cuif_conditional
        expected = ber_cuif_conditional(real.G, real.beta, params.n0)
        se = np.sqrt(expected * (1 - expected) / n)
        assert abs(ber - expected) < 3 * se + 1e-12

    def test_flat_channel_camf_equals_cuif(self):
        L, M = 8, 50
        real = channel.realization_from_parts(
            np.array([0.6 + 0.2j]), np.array([0.8 - 0.1j]), L,
            alpha=np.sqrt(0.2), theta=0.9)
        rng = np.random.default_rng(20)
        frame = gen_frame(L, M, rng)
        s = bd.sample_bits(M, rng)
        noise = 0.5 * (rng.standard_normal((L, M))
                       + 1j * rng.standard_normal((L, M)))
        for scheme in (Scheme.GENIE_CAMF, Scheme.GENIE_CUIF):
            a = bd.backscatter_frame(scheme, real, frame, s)
            y = real.H[:, None] * frame + a + noise
            slot = receiver.ReceivedSlot(y=y, N0=0.5)
            s_hat = genie_detect(slot, frame, real, scheme)
            if scheme is Scheme.GENIE_CAMF:
                first = s_hat
        assert np.array_equal(first, s_hat)


def brute_force_threshold(energies, labels):
    """Reference threshold: the first threshold, of 101 evenly spaced from
    the lowest energy to just above the highest, with the fewest errors,
    each threshold scored on its own."""
    grid = np.linspace(energies.min(), energies.max() + 1e-9, 101)
    best, best_errors = None, None
    for t in grid:
        errors = sum(int(e >= t) != b for e, b in zip(energies, labels))
        if best_errors is None or errors < best_errors:
            best, best_errors = t, errors
    return float(best)


class TestEnergyDetector:
    def test_sweep_separated_classes(self):
        energies = np.array([1.0, 1.1, 5.0, 5.2])
        labels = np.array([0, 0, 1, 1])
        tau = threshold_sweep(energies, labels)
        assert 1.1 < tau <= 5.0

    def test_sweep_returns_grid_minimizer(self):
        # overlapping classes, many tied minimizers, a single energy, and
        # the calibration energies of real ENERGY slots
        rng = np.random.default_rng(22)
        cases = [(np.concatenate([rng.normal(1, 0.5, 100),
                                  rng.normal(2, 0.5, 100)]),
                  np.repeat([0, 1], 100)),
                 (np.array([1.0, 1.0, 2.0, 2.0]), np.array([1, 0, 0, 1])),
                 (np.array([3.0]), np.array([1])),
                 (np.array([3.0]), np.array([0]))]
        for seed in range(4):
            params, real, _, _, _, draw = make_slot(seed,
                                                    snr_db=4.0 * seed - 4.0)
            cal_bits = np.tile([0, 1], 32)
            cal_frame = gen_frame(32, cal_bits.size, draw)
            cal_a = bd.backscatter_frame(Scheme.CUIF, real, cal_frame,
                                         cal_bits)
            cal = receive(real.H, cal_frame, cal_a, params.n0, draw)
            cases.append((cal.y_energy, cal_bits))
        for energies, labels in cases:
            tau = threshold_sweep(energies, labels)
            want = brute_force_threshold(energies, labels)
            assert np.float64(tau).view(np.uint64) == np.float64(
                want).view(np.uint64)

    def test_sweep_rejects_empty_energies(self):
        with pytest.raises(ValueError):
            threshold_sweep(np.array([]), np.array([], dtype=int))
