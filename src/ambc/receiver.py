"""Reader-side processing: slot formation, EM joint estimation and
detection, genie-aided coherent detection, and the energy-detector
threshold calibration.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import ChannelRealization
from .config import E_X, Scheme
from .ofdm import sign_index, sign_point

_HYPOTHESES = np.array([-1.0, 1.0])
# em_run's stopping tolerance on sum_l |Delta v_l|^2, the squared norm of
# an update; absolute and tight, so most descents run to the iteration cap.
_EPSILON = 1e-12
# em_run's E-step buffers (em_e_step's out), one flat pair per thread sized
# by capacity: the largest (B, R, 2, L, M) grid, B slots of R starts of
# L x M, seen so far. Iterations and blocks take a leading slice instead
# of allocating, and page-faulting, fresh grids each time.
_workspace = threading.local()


@dataclass(frozen=True)
class ReceivedSlot:
    """Frequency-domain received grid y (L x M) and the noise level N0.

    y must not be written once the slot is made: the E-step and the M-step
    read its per-symbol energy and its conjugate from caches filled on
    first use.
    """

    y: np.ndarray
    N0: float

    @cached_property
    def y_energy(self) -> np.ndarray:
        """sum_l |y_lm|^2, per symbol (M,)."""
        return (self.y.real ** 2 + self.y.imag ** 2).sum(axis=-2)

    @cached_property
    def y_conj(self) -> np.ndarray:
        return np.conj(self.y)


def receive(H: np.ndarray, frame: np.ndarray, backscatter: np.ndarray,
            N0: float, rng: np.random.Generator,
            out: np.ndarray | None = None) -> ReceivedSlot:
    """y = H x + a + n with i.i.d. CSCG noise of variance N0 per entry.

    The noise is one (2, L, M) draw, real parts first, built into y in
    place: a fresh grid, or the complex (L, M) array out.
    """
    noise = rng.standard_normal((2,) + frame.shape)
    noise *= np.sqrt(N0 / 2.0)
    y = np.multiply(H[:, None], frame, out=out, dtype=complex)
    y += backscatter
    y.real += noise[0]
    y.imag += noise[1]
    return ReceivedSlot(y=y, N0=N0)


def em_e_step(slot: ReceivedSlot, H: np.ndarray, v_tilde: np.ndarray, *,
              out: tuple[np.ndarray, np.ndarray] | None = None):
    """Bit posteriors (..., M, 2) for s in (-1, +1), per-hypothesis hard
    decisions (..., L, M, 2) and log-likelihood (...) under the channel
    estimate v_tilde (..., L), with y (..., L, M) and H (..., L) broadcast.

    Both hypotheses s are evaluated in one (..., 2, L, M) pass from the
    matched-filter output z = conj(g) y under the effective gain
    g_l = H_l + v_l s: the symbols are re-detected from z, and since a
    4-QAM decision has |x|^2 = E_X and Re(conj(x) z) = |Re z| + |Im z|,
    the residual energy is |y - g x|^2 = |y|^2 - 2(|Re z| + |Im z|)
    + E_X |g|^2, scaled by -1/N0, without forming the residual.
    Posteriors use a max-subtracted softmax.

    The pass works in a complex (..., 2, L, M) grid and a bool
    (..., 2, L, M, 2) grid of sign flags: fresh ones, or the C-ordered pair
    out. With out, the returned decisions are a view of its complex grid
    and stay valid only until that grid is written again.
    """
    gain = H[..., None, :] + v_tilde[..., None, :] * _HYPOTHESES[:, None]
    grid, flags = (None, None) if out is None else out
    # C order, so that each entry's (Re, Im) pair is adjacent in memory
    z = np.multiply(np.conj(gain)[..., None], slot.y[..., None, :, :],
                    out=grid, order="C")
    index = sign_index(z, out=flags)
    # sum_l |Re z| and sum_l |Im z| from one pass over the (Re, Im) pairs;
    # the absolute values overwrite z, and the decisions overwrite those
    parts = np.add.reduce(np.abs(z.view(float), out=z.view(float)), -2)
    xhat = sign_point(index, out=z)
    match = parts[..., 0::2] + parts[..., 1::2]
    gain_energy = E_X * np.add.reduce(gain.real ** 2 + gain.imag ** 2, -1)
    ell = (2.0 * match - gain_energy[..., None]
           - slot.y_energy[..., None, :]) / slot.N0
    peak = np.maximum.reduce(ell, axis=-2)
    w = np.exp(ell - peak[..., None, :])
    total = np.add.reduce(w, axis=-2)
    posteriors = (w / total[..., None, :]).swapaxes(-1, -2)
    loglik = np.add.reduce(peak + np.log(total), axis=-1)
    return posteriors, xhat.swapaxes(-3, -2).swapaxes(-2, -1), loglik


def em_m_step_unconstrained(slot: ReceivedSlot, H: np.ndarray,
                            posteriors: np.ndarray,
                            xhat: np.ndarray) -> np.ndarray:
    """Per-subcarrier weighted least-squares update of the channel estimate.

    Minimizes sum_{m,s} p(s) |y_lm - (H_l + v_l s) xhat_lm(s)|^2 over
    complex v_l for each l. Posteriors (..., M, 2) and decisions (..., L,
    M, 2) give an estimate (..., L); y and H broadcast as in em_e_step.

    The decisions must be constant-modulus with |xhat|^2 = E_X (4-QAM
    points, as em_e_step returns): the minimizer is then
    (sum_{m,s} p s conj(xhat) y - E_X H_l sum_{m,s} p s) / (E_X sum_{m,s} p),
    so no residual y - H xhat is formed.
    """
    w = posteriors * _HYPOTHESES
    # conj(sum p s xhat conj(y)) = sum p s conj(xhat) y, since p s is real
    corr = np.conj(np.einsum("...lms,...lm,...ms->...l", xhat, slot.y_conj,
                             w))
    num = corr - E_X * H * np.add.reduce(w, axis=(-2, -1))[..., None]
    den = E_X * np.add.reduce(posteriors, axis=(-2, -1))
    if (den == 0).any():
        raise ValueError("degenerate M-step: zero symbol energy")
    return num / den[..., None]


def project_common_phase(nu: np.ndarray) -> np.ndarray:
    """One common phase per (..., L) row, the angle of its entry mean (0
    for a zero mean), with each entry's magnitude kept. Not the Euclidean
    projection onto {e^{j theta} a : a >= 0}: nu = (1, j) maps to
    e^{j pi/4} (1, 1), at squared distance 1.17; the projection is at 1."""
    nu = np.asarray(nu)
    if nu.size == 0:
        raise ValueError("empty vector")
    mean = np.add.reduce(nu, axis=-1, keepdims=True) / nu.shape[-1]
    theta_hat = np.where(mean == 0, 0.0, np.arctan2(mean.imag, mean.real))
    return np.exp(1j * theta_hat) * np.abs(nu)


def em_run(slot: ReceivedSlot, H: np.ndarray, n_iter_max: int, mode: Scheme,
           starts: np.ndarray) -> tuple[np.ndarray, ...]:
    """EM joint estimation and detection for a stack of B slots, y (B, L, M)
    at one noise level N0 with direct channels H (B, L): one descent from
    each of the R starting estimates per slot in starts (B, R, L), all run
    as one batch in one loop of at most n_iter_max >= 1 iterations. Returns
    the winning descents' bits (B, M), estimates (B, L), iteration counts
    (B,) and convergence flags (B,), as int, complex, int and bool arrays.

    The common-phase constrained mode (CAMF) projects every M-step estimate
    with project_common_phase. A descent stops when its update moves less
    than _EPSILON or at the cap; its estimate, last posteriors, last E-step
    log-likelihood, iterations and convergence flag go to (B x R, ...)
    arrays at index b * R + r. The batch is (B, R) until a descent stops,
    then one axis of live descents with their slots' y gathered. Per slot,
    one argmax picks the highest last log-likelihood (the first on ties),
    which scores the estimate before the final M-step. Bit 0 is a known +1
    pilot that fixes the global sign. The E-steps use a leading slice of
    _workspace's buffers; callers bound B (montecarlo: the (B x R, 2, L, M)
    grid within _BLOCK_BYTES).
    """
    if n_iter_max < 1:
        raise ValueError(f"n_iter_max must be >= 1, got {n_iter_max}")
    n_slots, n_starts, L = starts.shape
    n, M = n_slots * n_starts, slot.y.shape[-1]
    v_hats, bit_posteriors = np.empty((n, L), complex), np.empty((n, M, 2))
    scores, iterations = np.empty(n), np.empty(n, int)
    converged = np.empty(n, bool)
    rows, gains, v_tilde, live = (ReceivedSlot(slot.y[:, None], slot.N0),
                                  H[:, None], starts, np.arange(n))
    for iteration in range(1, n_iter_max + 1):
        if not live.size:
            break
        grid = v_tilde.shape[:-1] + (2, L, M)
        size = math.prod(grid)
        if getattr(_workspace, "capacity", 0) < size:
            _workspace.capacity = size
            _workspace.buffers = (np.empty(size, dtype=complex),
                                  np.empty(2 * size, dtype=bool))
        out = (_workspace.buffers[0][:size].reshape(grid),
               _workspace.buffers[1][:2 * size].reshape(grid + (2,)))
        posteriors, xhat, loglik = em_e_step(rows, gains, v_tilde, out=out)
        nu = em_m_step_unconstrained(rows, gains, posteriors, xhat)
        if mode is Scheme.CAMF:
            nu = project_common_phase(nu)
        delta = np.add.reduce(np.abs(nu - v_tilde) ** 2, -1).ravel()
        v_tilde, settled = nu, delta < _EPSILON
        done = settled | (iteration == n_iter_max)
        if not done.any():
            continue
        v_tilde, stopped = v_tilde.reshape(-1, L), live[done]
        v_hats[stopped], converged[stopped] = v_tilde[done], settled[done]
        bit_posteriors[stopped] = posteriors.reshape(-1, M, 2)[done]
        scores[stopped], iterations[stopped] = loglik.ravel()[done], iteration
        live, v_tilde = live[~done], v_tilde[~done]
        rows = ReceivedSlot(slot.y[live // n_starts], slot.N0)
        gains = H[live // n_starts]
    # argmax keeps the first of equal log-likelihoods
    won = np.arange(0, n, n_starts) + scores.reshape(-1, n_starts).argmax(1)
    p = bit_posteriors[won]
    s_hat = np.where(p[..., 1] >= p[..., 0], 1, -1)
    # global sign ambiguity (s, v) <-> (-s, -v): pin the pilot to +1
    flip = p[:, :1, 1] < 0.5
    return (np.where(flip, -s_hat, s_hat),
            np.where(flip, -v_hats[won], v_hats[won]), iterations[won],
            converged[won])


def genie_detect(slot: ReceivedSlot, frame: np.ndarray,
                 realization: ChannelRealization,
                 scheme: Scheme) -> np.ndarray:
    """Coherent per-symbol decisions with known channels and OFDM symbols.

    s_m = +1 where Re sum_l conj(C_l x_lm) (y_lm - H_l x_lm) >= 0: since
    |x|^2 = E_X, this is |y - (H + C) x|^2 <= |y - (H - C) x|^2, the
    matched-filter form of em_e_step, with ties going to +1.
    """
    C = realization.effective_gain(scheme)
    resid = slot.y - realization.H[:, None] * frame
    corr = np.conj(C[:, None] * frame) * resid
    return np.where(corr.real.sum(axis=0) >= 0, 1, -1)


def threshold_sweep(energies: np.ndarray, labels: np.ndarray) -> float:
    """Of 101 thresholds evenly spaced from the lowest energy to just above
    the highest, the first whose decisions (1 where energy >= threshold)
    make the fewest errors on the labeled energies. Empty energies raise
    ValueError."""
    energies = np.asarray(energies, dtype=float)
    grid = np.linspace(energies.min(), energies.max() + 1e-9, 101)
    decisions = energies >= grid[:, None]
    errors = np.sum(decisions != np.asarray(labels, dtype=bool), axis=1)
    return float(grid[np.argmin(errors)])
