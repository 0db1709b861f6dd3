import time

import numpy as np
import pytest
from scipy import optimize

from ambc import bd, channel, receiver
from ambc.config import EmConfig, Scheme, SimParams
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
    a = bd.backscatter_frame(scheme, real, frame, bits.s)
    slot = receive(real.H, frame, a, params.n0 if n0 is None else n0, rng)
    return params, real, frame, bits, slot, rng


def serial_descent(slot, H, config, mode, v_tilde):
    """Reference for one EM descent from a fixed start, run alone: the final
    estimate, the last posteriors, the iteration count, the convergence
    flag and the last log-likelihood."""
    iteration = 0
    while True:
        posteriors, xhat, loglik = em_e_step(slot, H, v_tilde)
        nu = em_m_step_unconstrained(slot, H, posteriors, xhat)
        if mode is Scheme.CAMF:
            nu = project_common_phase(nu)
        delta = np.sum(np.abs(nu - v_tilde) ** 2)
        v_tilde = nu
        iteration += 1
        converged = bool(delta < config.epsilon)
        if converged or iteration >= config.n_iter_max:
            return v_tilde, posteriors, iteration, converged, loglik


def serial_em_run(slot, H, config, mode, real, rng):
    """Reference for em_run: one serial descent per start offset, the first
    highest final log-likelihood wins. Returns the per-restart runs, the
    winner's index and the pilot-pinned bits and estimate."""
    bound = receiver._INITIAL_PHASE_ERROR_BOUND
    theta0 = real.theta + rng.uniform(-bound, bound)
    offsets = receiver._START_OFFSETS if mode is Scheme.CAMF else (0.0,)
    runs = [serial_descent(slot, H, config, mode,
                           np.full(H.shape[0], real.alpha
                                   * np.exp(1j * (theta0 + offset)),
                                   dtype=complex))
            for offset in offsets]
    winner = 0
    for k, run in enumerate(runs):
        if run[-1] > runs[winner][-1]:
            winner = k
    v_hat, posteriors = runs[winner][:2]
    s_hat = np.where(posteriors[:, 1] >= posteriors[:, 0], 1, -1)
    if posteriors[0, 1] < 0.5:
        s_hat, v_hat = -s_hat, -v_hat
    return runs, winner, s_hat, v_hat


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
        a = bd.backscatter_frame(Scheme.CAMF, real, frame, bits.s)
        slot = receive(real.H, frame, a, 0.0, rng)
        expected = ((real.H[:, None]
                     + real.beta_tilde * real.V[:, None] * bits.s[None, :])
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
        a = bd.backscatter_frame(Scheme.CAMF, real, frame, bits.s)
        slot = receive(real.H, frame, a, 0.0, rng)
        slot = receiver.ReceivedSlot(y=slot.y, N0=params.n0)  # finite metric
        posteriors, _, _ = em_e_step(slot, real.H, real.beta_tilde * real.V)
        idx = ((bits.s + 1) // 2).astype(int)
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
        a = bd.backscatter_frame(Scheme.CAMF, real, frame, bits.s)
        slot = receive(real.H, frame, a, 0.0, rng)
        posteriors = np.zeros((params.M, 2))
        posteriors[np.arange(params.M), ((bits.s + 1) // 2).astype(int)] = 1.0
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
        a = bd.backscatter_frame(Scheme.CAMF, real, frame, bits.s)
        slot = receive(real.H, frame, a, 0.0, rng)
        slot = receiver.ReceivedSlot(y=slot.y, N0=params.n0)
        _, posteriors, iterations, converged, _ = serial_descent(
            slot, real.H, EmConfig(), Scheme.CAMF, real.beta_tilde * real.V)
        s_hat = np.where(posteriors[:, 1] >= posteriors[:, 0], 1, -1)
        assert np.array_equal(s_hat, bits.s)
        assert converged and iterations <= 2

    def test_batched_restarts_match_serial_descents(self):
        # At 20 iterations and a loose epsilon the three restarts converge
        # at different iterations, so the batch retires them one by one;
        # seed 43 ends in an exact log-likelihood tie, which the first
        # restart must win. The default stopping rule runs all restarts to
        # the iteration cap.
        loose = EmConfig(n_iter_max=20, epsilon=1e-6)
        cases = [(30, Scheme.CAMF, 6.0, loose), (31, Scheme.CAMF, 0.0, loose),
                 (43, Scheme.CAMF, 14.0, loose), (33, Scheme.CUIF, 6.0, loose)]
        cases += [(seed, Scheme.CAMF, 6.0, EmConfig())
                  for seed in range(34, 38)]
        staggered = ties = 0
        for seed, scheme, snr_db, config in cases:
            params, real, _, _, slot, _ = make_slot(seed, snr_db=snr_db,
                                                    scheme=scheme, L=16)
            result = em_run(slot, real.H, config, scheme, real,
                            np.random.default_rng(seed))
            runs, winner, s_hat, v_hat = serial_em_run(
                slot, real.H, config, scheme, real,
                np.random.default_rng(seed))
            staggered += len({run[2] for run in runs}) > 1
            tied = {run[2] for run in runs if run[-1] == runs[winner][-1]}
            ties += len(tied) > 1
            assert np.array_equal(result.s_hat, s_hat)
            assert np.array_equal(result.v_tilde_hat, v_hat)
            assert result.iterations_used == runs[winner][2]
            assert result.converged == runs[winner][3]
        assert staggered >= 1 and ties == 1

    def test_decodes_noiseless_slot(self):
        params, real, frame, bits, _, rng = make_slot(12)
        a = bd.backscatter_frame(Scheme.CAMF, real, frame, bits.s)
        slot = receive(real.H, frame, a, 1e-12, rng)
        slot = receiver.ReceivedSlot(y=slot.y, N0=params.n0)
        result = em_run(slot, real.H, EmConfig(), Scheme.CAMF, real, rng)
        assert np.array_equal(result.s_hat, bits.s)

    def test_camf_iterates_in_constraint_set(self):
        params, real, _, _, slot, rng = make_slot(13)
        result = em_run(slot, real.H, EmConfig(), Scheme.CAMF, real, rng)
        v = result.v_tilde_hat
        nonzero = v[np.abs(v) > 0]
        spread = np.angle(nonzero * np.exp(-1j * np.angle(nonzero.mean())))
        assert np.max(np.abs(spread)) < 1e-9
        assert np.all(np.abs(v) >= 0)

    def test_pilot_pins_result(self):
        params, real, _, bits, slot, rng = make_slot(14)
        result = em_run(slot, real.H, EmConfig(), Scheme.CAMF, real, rng)
        assert result.s_hat[0] == 1

    def test_sign_symmetry_same_slot(self):
        # (s, V) and (-s, -V) generate identical received grids, so the
        # detector cannot tell them apart; the pilot fixes one labeling
        params, real, frame, bits, _, rng = make_slot(15)
        a_pos = bd.backscatter_frame(Scheme.CAMF, real, frame, bits.s)
        gain = real.beta_tilde * real.V
        a_neg = (-gain[:, None]) * frame * (-bits.s[None, :])
        assert np.allclose(a_pos, a_neg)

    def test_cuif_mode_runs_unconstrained(self):
        params, real, _, _, slot, rng = make_slot(16, scheme=Scheme.CUIF)
        result = em_run(slot, real.H, EmConfig(), Scheme.CUIF, real, rng)
        # unconstrained estimates generally have distinct phases
        phases = np.angle(result.v_tilde_hat)
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
    def test_noiseless_zero_errors(self):
        params, real, frame, bits, _, rng = make_slot(18)
        for scheme in (Scheme.GENIE_CAMF, Scheme.GENIE_CUIF):
            a = bd.backscatter_frame(scheme, real, frame, bits.s)
            slot = receive(real.H, frame, a, 0.0, rng)
            s_hat = genie_detect(slot, real.H, frame, real, scheme)
            assert np.array_equal(s_hat, bits.s)

    def test_cuif_ber_matches_conditional_formula(self):
        # fixed channel, many independent symbols
        params, real, _, _, _, rng = make_slot(19)
        n = 10 ** 5
        frame = gen_frame(params.L, n, rng)
        s = bd.sample_bits(n, rng).s
        a = bd.backscatter_frame(Scheme.GENIE_CUIF, real, frame, s)
        slot = receive(real.H, frame, a, params.n0, rng)
        s_hat = genie_detect(slot, real.H, frame, real, Scheme.GENIE_CUIF)
        ber = np.mean(s_hat != s)
        from ambc.analysis import ber_cuif_conditional
        from ambc.config import E_X
        expected = ber_cuif_conditional(real.G, real.beta, E_X, params.n0)
        se = np.sqrt(expected * (1 - expected) / n)
        assert abs(ber - expected) < 3 * se + 1e-12

    def test_flat_channel_camf_equals_cuif(self):
        L, M = 8, 50
        real = channel.realization_from_parts(
            np.array([0.6 + 0.2j]), np.array([0.8 - 0.1j]), L,
            alpha=np.sqrt(0.2), theta=0.9)
        rng = np.random.default_rng(20)
        frame = gen_frame(L, M, rng)
        s = bd.sample_bits(M, rng).s
        noise = 0.5 * (rng.standard_normal((L, M))
                       + 1j * rng.standard_normal((L, M)))
        for scheme in (Scheme.GENIE_CAMF, Scheme.GENIE_CUIF):
            a = bd.backscatter_frame(scheme, real, frame, s)
            y = real.H[:, None] * frame + a + noise
            slot = receiver.ReceivedSlot(y=y, N0=0.5)
            s_hat = genie_detect(slot, real.H, frame, real, scheme)
            if scheme is Scheme.GENIE_CAMF:
                first = s_hat
        assert np.array_equal(first, s_hat)


class TestEnergyDetector:
    def test_sweep_separated_classes(self):
        energies = np.array([1.0, 1.1, 5.0, 5.2])
        labels = np.array([0, 0, 1, 1])
        tau = threshold_sweep(energies, labels, np.linspace(0.5, 6.0, 111))
        assert 1.1 < tau <= 5.0

    def test_sweep_single_point_grid(self):
        tau = threshold_sweep(np.array([1.0, 2.0]), np.array([0, 1]),
                              np.array([1.7]))
        assert tau == 1.7

    def test_sweep_returns_grid_minimizer(self):
        rng = np.random.default_rng(22)
        energies = np.concatenate([rng.normal(1, 0.5, 100),
                                   rng.normal(2, 0.5, 100)])
        labels = np.repeat([0, 1], 100)
        grid = np.linspace(0, 3, 61)
        tau = threshold_sweep(energies, labels, grid)

        def err(t):
            return np.sum((energies >= t).astype(int) != labels)

        assert all(err(tau) <= err(t) for t in grid)

    def test_sweep_empty_grid(self):
        with pytest.raises(ValueError):
            threshold_sweep(np.array([1.0]), np.array([1]), np.array([]))
