"""Reader-side processing: slot formation, EM joint estimation and
detection, genie-aided coherent detection, and the energy-detector
threshold calibration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .config import EmConfig, Scheme
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
    """Bit posteriors (M, 2) for s in (-1, +1), per-hypothesis hard symbol
    decisions, and the slot log-likelihood under the channel estimate
    v_tilde.

    For each hypothesis s the OFDM symbols are re-detected under the
    effective gain H_l + v_l s, and the log metric is the residual energy
    scaled by -1/N0. Posteriors use a max-subtracted softmax.
    """
    y = slot.y
    M = y.shape[1]
    xhat = np.empty(y.shape + (2,), dtype=complex)
    ell = np.empty((M, 2))
    for k, s in enumerate(_HYPOTHESES):
        gain = H + v_tilde * s
        xh = detect_grid(y, gain)
        xhat[..., k] = xh
        resid = np.abs(y - gain[:, None] * xh) ** 2
        ell[:, k] = -resid.sum(axis=0) / slot.N0
    peak = ell.max(axis=1, keepdims=True)
    w = np.exp(ell - peak)
    total = w.sum(axis=1, keepdims=True)
    posteriors = w / total
    loglik = float(np.sum(peak[:, 0] + np.log(total[:, 0])))
    return posteriors, xhat, loglik


def em_m_step_unconstrained(slot: ReceivedSlot, H: np.ndarray,
                            posteriors: np.ndarray,
                            xhat: np.ndarray) -> np.ndarray:
    """Per-subcarrier weighted least-squares update of the channel estimate.

    Minimizes sum_{m,s} p(s) |y_lm - (H_l + v_l s) xhat_lm(s)|^2 over
    complex v_l independently for each l.
    """
    # weights broadcast to (L, M, 2)
    p = posteriors[None, :, :]
    resid = slot.y[..., None] - H[:, None, None] * xhat
    num = (p * _HYPOTHESES * np.conj(xhat) * resid).sum(axis=(1, 2))
    den = (p * np.abs(xhat) ** 2).sum(axis=(1, 2))
    if np.any(den == 0):
        raise ValueError("degenerate M-step: zero symbol energy")
    return num / den


def project_common_phase(nu: np.ndarray) -> np.ndarray:
    """Project onto common-phase, nonnegative-magnitude diagonals.

    The common phase is the angle of the entry mean; magnitudes are kept.
    A zero mean degenerates to phase 0.
    """
    nu = np.asarray(nu)
    if nu.size == 0:
        raise ValueError("empty vector")
    mean = nu.mean()
    theta_hat = 0.0 if mean == 0 else np.angle(mean)
    return np.exp(1j * theta_hat) * np.abs(nu)


def _em_descent(slot: ReceivedSlot, H: np.ndarray, config: EmConfig,
                mode: Scheme, v_tilde: np.ndarray):
    """One EM run from a fixed initial estimate; returns the final estimate,
    the last posteriors, the iteration count, the convergence flag and the
    last log-likelihood."""
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


def em_run(slot: ReceivedSlot, H: np.ndarray, config: EmConfig, mode: Scheme,
           realization: ChannelRealization,
           rng: np.random.Generator) -> DetectionResult:
    """EM joint estimation and detection with likelihood-ranked restarts.

    The rough phase estimate theta_hat is the true flat-link phase plus a
    uniform draw within _INITIAL_PHASE_ERROR_BOUND (a stand-in for a
    pilot-based estimator; the realization is used only here). In the
    common-phase constrained mode each start offset seeds one EM descent
    from alpha * e^{j(theta_hat + offset)} and the descent with the highest
    final log-likelihood wins; the projection ties every subcarrier to one
    scalar phase, so a rough estimate near the edge of its error bound can
    lock the whole estimate onto a rotated local optimum, and the restarts
    sweep that scalar ambiguity. The unconstrained mode has no shared phase
    to get stuck on and runs a single descent. Bit 0 is a known +1 pilot
    that fixes the global sign.
    """
    L = H.shape[0]
    bound = _INITIAL_PHASE_ERROR_BOUND
    theta0 = realization.theta + rng.uniform(-bound, bound)

    offsets = _START_OFFSETS if mode is Scheme.CAMF else (0.0,)
    best = None
    for offset in offsets:
        v0 = np.full(L, realization.alpha * np.exp(1j * (theta0 + offset)),
                     dtype=complex)
        run = _em_descent(slot, H, config, mode, v0)
        if best is None or run[-1] > best[-1]:
            best = run
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
