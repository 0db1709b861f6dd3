"""Closed-form and semi-analytic BER expressions for the genie-aided
detectors, used as oracles and reference curves for the Monte Carlo runs.

They need only math and numpy. The binomial coefficients are exact
integers taken to log space, so the expressions hold at any L and P.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import E_X, SimParams, is_integer


@dataclass(frozen=True)
class LinkBudget:
    """Average link parameters entering the closed-form BER expressions;
    both multipath links have P equal-power taps of variance 1/P."""

    L: int
    P: int
    alpha_sq: float
    gamma_x: float              # E_x / N0

    def __post_init__(self):
        if not (is_integer(self.L) and is_integer(self.P)
                and self.L >= self.P >= 1):
            raise ValueError("need integers L >= P >= 1, "
                             f"got L={self.L!r}, P={self.P!r}")
        if not 0.0 < self.gamma_x < math.inf:  # also rejects nan
            raise ValueError("gamma_x must be positive and finite, "
                             f"got {self.gamma_x!r}")
        if not 0.0 <= self.alpha_sq < math.inf:
            raise ValueError("alpha_sq must be nonnegative and finite, "
                             f"got {self.alpha_sq!r}")
        # P times the largest per-branch SNR the closed forms evaluate
        if self.L * self.alpha_sq * self.gamma_x == math.inf:
            raise ValueError("L * alpha_sq * gamma_x overflows")

    @property
    def beta_sq(self) -> float:
        # |f| = 1, so |beta|^2 = alpha^2
        return self.alpha_sq

    @classmethod
    def from_sim(cls, params: SimParams) -> "LinkBudget":
        return cls(L=params.L, P=params.P, alpha_sq=params.alpha_sq,
                   gamma_x=E_X / params.n0)


def q_function(x):
    """Upper-tail standard normal probability, elementwise."""
    z = np.asarray(x, dtype=float) / np.sqrt(2.0)
    erfc = np.fromiter(map(math.erfc, z.ravel().tolist()), float, z.size)
    return 0.5 * erfc.reshape(z.shape)


def ber_cuif_conditional(G: np.ndarray, beta: complex, n0: float) -> float:
    """Genie CUIF error probability for a fixed tag-link response G."""
    stat = 2.0 * abs(beta) ** 2 * E_X * np.sum(np.abs(G) ** 2) / n0
    return float(q_function(np.sqrt(stat)))


def _log_binomials(num, den) -> np.ndarray:
    """log(prod(num[:i]) / prod(den[:i])) for i = 0 .. len(num).

    Each partial ratio must be an integer (a binomial coefficient): it is
    kept exact, so only the final log rounds.
    """
    logs, c = [0.0], 1
    for a, b in zip(num, den):
        c = c * a // b
        logs.append(math.log(c))
    return np.array(logs)


def _ber_mrc(branch, P: int) -> np.ndarray:
    """BER of P-branch maximal-ratio combining at each per-branch SNR in
    branch: sum_p C(P-1+p, p) ((1+mu)/2)^p ((1-mu)/2)^P."""
    mu = np.sqrt(branch / (1.0 + branch))
    # log space keeps each term finite at any P; mu = 1 gives log 0 = -inf,
    # a zero term
    with np.errstate(divide="ignore"):
        log_tail = P * np.log((1.0 - mu) / 2.0)
    log_head = np.log((1.0 + mu) / 2.0)
    total = np.zeros(np.shape(mu))
    # one pass per order p keeps memory at one value per branch
    for p, log_comb in enumerate(_log_binomials(range(P, 2 * P - 1),
                                                range(1, P))):
        total += np.exp(log_comb + p * log_head + log_tail)
    # rounding in the binomials can lift a coin flip past 0.5
    return np.minimum(total, 0.5)


def ber_cuif_closed(budget: LinkBudget) -> float:
    """Exact average genie CUIF BER: P-branch diversity with per-branch SNR
    L |beta|^2 gamma_x / P."""
    return float(_ber_mrc(budget.L * budget.beta_sq * budget.gamma_x
                          * (1.0 / budget.P), budget.P))


def ber_unknown_symbols(budget: LinkBudget) -> float:
    """Genie CUIF BER accounting for OFDM symbol decision errors.

    Symbols in error are dropped, shrinking the usable subcarrier count to
    a binomial k; the result is the binomial mixture of the closed form at
    each k (k = 0 contributes a coin flip).
    """
    # unit total tap power on both links
    gamma_h = 1.0 / (E_X / budget.gamma_x + budget.beta_sq * E_X)
    p_ber = 0.5 * (1.0 - np.sqrt(gamma_h / (1.0 + gamma_h)))
    p_ser = 1.0 - (1.0 - p_ber) ** 2
    L = budget.L
    k = np.arange(L + 1)
    # log C(L, k) + k log(1 - p_ser) + (L - k) log p_ser, each log added
    # only where its count is nonzero: p_ser of 0 or 1 makes a log -inf
    # but never forms 0 * log 0
    with np.errstate(divide="ignore"):
        log_q, log_p = np.log1p(-p_ser), np.log(p_ser)
    log_w = _log_binomials(range(L, 0, -1), range(1, L + 1))
    log_w[1:] += k[1:] * log_q
    log_w[:-1] += (L - k[:-1]) * log_p
    ber = np.concatenate(([0.5], _ber_mrc(
        k[1:] * budget.beta_sq * budget.gamma_x * (1.0 / budget.P),
        budget.P)))
    # the binomial weights can sum to 1 + ulp
    return float(min(np.exp(log_w) @ ber, 0.5))


def theorem1_gap(G: np.ndarray, budget: LinkBudget):
    """Decision statistics of the genie CAMF and CUIF detectors.

    Returns (camf_stat, cuif_stat); matched filtering guarantees
    camf_stat >= cuif_stat, with equality for flat |G_l|.
    """
    G = np.asarray(G)
    v2 = np.abs(G) ** 2
    total = np.sum(v2)
    if total == 0:
        raise ValueError("G is identically zero")
    camf = budget.beta_sq * E_X * G.size * np.sum(v2 ** 2) / total
    cuif = budget.beta_sq * E_X * total
    return float(camf), float(cuif)
