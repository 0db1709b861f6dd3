"""Reader-side processing: slot formation, EM joint estimation and
detection, genie-aided coherent detection, and the energy-detector
threshold calibration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .config import E_X, EmConfig, Scheme
from .ofdm import detect_grid

_HYPOTHESES = np.array([-1.0, 1.0])
# Half-width of the uniform error on the rough phase estimate that seeds EM.
_INITIAL_PHASE_ERROR_BOUND = np.pi / 4
# Restart offsets (radians) around the rough phase estimate for the
# common-phase constrained mode; the run with the highest final
# log-likelihood wins. The unconstrained mode always runs one descent.
_START_OFFSETS = (0.0, -0.5, 0.5)


@dataclass(frozen=True)
class ReceivedSlot:
    """Frequency-domain received grid y (L x M) and the noise level N0."""

    y: np.ndarray
    N0: float


@dataclass(frozen=True)
class DetectionResult:
    s_hat: np.ndarray
    v_tilde_hat: np.ndarray
    iterations_used: int
    converged: bool


def receive(H: np.ndarray, frame: np.ndarray, backscatter: np.ndarray,
            N0: float, rng: np.random.Generator) -> ReceivedSlot:
    """y = H x + a + n with i.i.d. CSCG noise of variance N0 per entry."""
    noise_scale = np.sqrt(N0 / 2.0)
    n = noise_scale * (rng.standard_normal(frame.shape)
                       + 1j * rng.standard_normal(frame.shape))
    return ReceivedSlot(y=H[:, None] * frame + backscatter + n, N0=N0)


def em_e_step(slot: ReceivedSlot, H: np.ndarray, v_tilde: np.ndarray):
    """Bit posteriors (..., M, 2) for s in (-1, +1), per-hypothesis hard
    symbol decisions (..., L, M, 2), and the slot log-likelihood (...)
    under the channel estimate v_tilde (..., L).

    Both hypotheses s are evaluated in one (..., 2, L, M) pass from the
    matched-filter output z = conj(g) y under the effective gain
    g_l = H_l + v_l s: the symbols are re-detected from z, and since a
    4-QAM decision has |x|^2 = E_X and Re(conj(x) z) = |Re z| + |Im z|,
    the residual energy is |y - g x|^2 = |y|^2 - 2(|Re z| + |Im z|)
    + E_X |g|^2, scaled by -1/N0, without forming the residual.
    Posteriors use a max-subtracted softmax.
    """
    y = slot.y
    gain = H + v_tilde[..., None, :] * _HYPOTHESES[:, None]
    # C order, so that each entry's (Re, Im) pair is adjacent in memory
    z = np.multiply(np.conj(gain)[..., None], y, order="C")
    xhat = detect_grid(z)
    # sum_l |Re z| and sum_l |Im z| from one pass over the (Re, Im) pairs;
    # z is not needed after this, so the absolute values overwrite it
    parts = np.abs(z.view(np.float64), out=z.view(np.float64)).sum(axis=-2)
    match = parts[..., 0::2] + parts[..., 1::2]
    gain_energy = E_X * (gain.real ** 2 + gain.imag ** 2).sum(axis=-1)
    y_energy = (y.real ** 2 + y.imag ** 2).sum(axis=-2)
    ell = (2.0 * match - gain_energy[..., None] - y_energy) / slot.N0
    peak = ell.max(axis=-2)
    w = np.exp(ell - peak[..., None, :])
    total = w.sum(axis=-2)
    posteriors = np.swapaxes(w / total[..., None, :], -1, -2)
    loglik = np.sum(peak + np.log(total), axis=-1)
    return posteriors, np.moveaxis(xhat, -3, -1), loglik


def em_m_step_unconstrained(slot: ReceivedSlot, H: np.ndarray,
                            posteriors: np.ndarray,
                            xhat: np.ndarray) -> np.ndarray:
    """Per-subcarrier weighted least-squares update of the channel estimate.

    Minimizes sum_{m,s} p(s) |y_lm - (H_l + v_l s) xhat_lm(s)|^2 over
    complex v_l independently for each l. Posteriors (..., M, 2) and
    decisions (..., L, M, 2) give an estimate (..., L).

    The decisions must be constant-modulus with |xhat|^2 = E_X (4-QAM
    points, as em_e_step returns): the minimizer is then
    (sum_{m,s} p s conj(xhat) y - E_X H_l sum_{m,s} p s) / (E_X sum_{m,s} p),
    so no residual y - H xhat is formed.
    """
    w = posteriors * _HYPOTHESES
    # conj(sum p s xhat conj(y)) = sum p s conj(xhat) y, since p s is real
    corr = np.conj(np.einsum("...lms,lm,...ms->...l", xhat, np.conj(slot.y),
                             w))
    num = corr - E_X * H * w.sum(axis=(-2, -1))[..., None]
    den = E_X * posteriors.sum(axis=(-2, -1))
    if np.any(den == 0):
        raise ValueError("degenerate M-step: zero symbol energy")
    return num / den[..., None]


def project_common_phase(nu: np.ndarray) -> np.ndarray:
    """Project onto common-phase, nonnegative-magnitude diagonals.

    The common phase of each (..., L) row is the angle of its entry mean;
    magnitudes are kept. A zero mean degenerates to phase 0.
    """
    nu = np.asarray(nu)
    if nu.size == 0:
        raise ValueError("empty vector")
    mean = nu.mean(axis=-1, keepdims=True)
    theta_hat = np.where(mean == 0, 0.0, np.angle(mean))
    return np.exp(1j * theta_hat) * np.abs(nu)


def em_run(slot: ReceivedSlot, H: np.ndarray, config: EmConfig, mode: Scheme,
           realization: ChannelRealization,
           rng: np.random.Generator) -> DetectionResult:
    """EM joint estimation and detection with likelihood-ranked restarts.

    The rough phase estimate theta_hat is the true flat-link phase plus a
    uniform draw within _INITIAL_PHASE_ERROR_BOUND (a stand-in for a
    pilot-based estimator; the realization is used only here). In the
    common-phase constrained mode each start offset seeds one EM descent
    from alpha * e^{j(theta_hat + offset)} and the descent with the highest
    final log-likelihood wins (the first on ties); the projection ties
    every subcarrier to one scalar phase, so a rough estimate near the edge
    of its error bound can lock the whole estimate onto a rotated local
    optimum, and the restarts sweep that scalar ambiguity. The unconstrained
    mode has no shared phase to get stuck on and runs a single descent.
    Bit 0 is a known +1 pilot that fixes the global sign.

    The descents run as one batch with estimates stacked (R, L). A descent
    stops when its update moves less than epsilon or after n_iter_max
    iterations; its estimate, posteriors, iteration count and
    log-likelihood are then set aside and the rest continue without it.
    """
    L = H.shape[0]
    bound = _INITIAL_PHASE_ERROR_BOUND
    theta0 = realization.theta + rng.uniform(-bound, bound)
    offsets = np.array(_START_OFFSETS if mode is Scheme.CAMF else (0.0,))
    v_tilde = np.repeat(
        realization.alpha * np.exp(1j * (theta0 + offsets))[:, None], L,
        axis=1)

    # per restart, set when it stops: (estimate, posteriors, iterations,
    # converged, log-likelihood)
    final = [None] * offsets.size
    live = np.arange(offsets.size)
    iteration = 0
    while live.size:
        posteriors, xhat, loglik = em_e_step(slot, H, v_tilde)
        nu = em_m_step_unconstrained(slot, H, posteriors, xhat)
        if mode is Scheme.CAMF:
            nu = project_common_phase(nu)
        delta = np.sum(np.abs(nu - v_tilde) ** 2, axis=-1)
        v_tilde = nu
        iteration += 1
        converged = delta < config.epsilon
        done = converged | (iteration >= config.n_iter_max)
        if done.any():
            for k in np.flatnonzero(done):
                final[live[k]] = (v_tilde[k], posteriors[k], iteration,
                                  bool(converged[k]), loglik[k])
            live, v_tilde = live[~done], v_tilde[~done]
    # max keeps the first of equal log-likelihoods
    best = max(final, key=lambda run: run[-1])
    v_hat, posteriors, iterations, converged, _ = best

    s_hat = np.where(posteriors[:, 1] >= posteriors[:, 0], 1, -1)
    if posteriors[0, 1] < 0.5:
        # global sign ambiguity (s, v) <-> (-s, -v): pin the pilot to +1
        s_hat = -s_hat
        v_hat = -v_hat
    return DetectionResult(s_hat=s_hat, v_tilde_hat=v_hat,
                           iterations_used=iterations, converged=converged)


def genie_detect(slot: ReceivedSlot, H: np.ndarray, frame: np.ndarray,
                 realization: ChannelRealization,
                 scheme: Scheme) -> np.ndarray:
    """Coherent per-symbol decisions with known channels and OFDM symbols."""
    C = realization.effective_gain(scheme)
    d = np.empty((slot.y.shape[1], 2))
    for k, s in enumerate(_HYPOTHESES):
        resid = slot.y - (H + C * s)[:, None] * frame
        d[:, k] = np.sum(np.abs(resid) ** 2, axis=0)
    return np.where(d[:, 1] <= d[:, 0], 1, -1)


def threshold_sweep(energies: np.ndarray, labels: np.ndarray,
                    grid: np.ndarray) -> float:
    """Grid threshold minimizing empirical error on labeled energies."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty threshold grid")
    energies = np.asarray(energies, dtype=float)
    labels = np.asarray(labels, dtype=int)
    decisions = energies[None, :] >= grid[:, None]
    errors = np.sum(decisions != labels[None, :].astype(bool), axis=1)
    return float(grid[int(np.argmin(errors))])
