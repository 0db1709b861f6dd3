"""Closed-form and semi-analytic BER expressions for the genie-aided
detectors, used as oracles and reference curves for the Monte Carlo runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.stats import binom

from .config import E_X, SimParams


@dataclass(frozen=True)
class LinkBudget:
    """Average link parameters entering the closed-form BER expressions."""

    L: int
    P_g: int
    P_h: int
    alpha_sq: float
    gamma_x: float              # E_x / N0
    sigma_g: np.ndarray         # per-tap variances of the tag link
    sigma_h: np.ndarray         # per-tap variances of the direct link

    def __post_init__(self):
        object.__setattr__(self, "sigma_g", np.asarray(self.sigma_g, float))
        object.__setattr__(self, "sigma_h", np.asarray(self.sigma_h, float))
        if self.gamma_x <= 0:
            raise ValueError("gamma_x must be positive")
        if self.alpha_sq < 0 or np.any(self.sigma_g < 0) or np.any(self.sigma_h < 0):
            raise ValueError("powers must be nonnegative")

    @property
    def beta_sq(self) -> float:
        # |f| = 1, so |beta|^2 = alpha^2
        return self.alpha_sq

    @classmethod
    def from_sim(cls, params: SimParams) -> "LinkBudget":
        sigma = np.full(params.P, 1.0 / params.P)
        return cls(L=params.L, P_g=params.P, P_h=params.P,
                   alpha_sq=params.alpha_sq, gamma_x=E_X / params.n0,
                   sigma_g=sigma, sigma_h=sigma)


def q_function(x):
    """Upper-tail standard normal probability."""
    return 0.5 * special.erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def ber_cuif_conditional(G: np.ndarray, beta: complex, e_x: float,
                         n0: float) -> float:
    """Genie CUIF error probability for a fixed tag-link response G."""
    stat = 2.0 * abs(beta) ** 2 * e_x * np.sum(np.abs(G) ** 2) / n0
    return float(q_function(np.sqrt(stat)))


def ber_camf_conditional(G: np.ndarray, beta_tilde: complex, e_x: float,
                         n0: float) -> float:
    """Genie CAMF error probability for a fixed tag-link response G."""
    stat = 2.0 * abs(beta_tilde) ** 2 * e_x * np.sum(np.abs(G) ** 4) / n0
    return float(q_function(np.sqrt(stat)))


def ber_cuif_chiani(budget: LinkBudget, L: int | None = None) -> float:
    """Average genie CUIF BER via the two-exponential Q approximation."""
    L = budget.L if L is None else L
    snr_taps = L * budget.beta_sq * budget.gamma_x * budget.sigma_g
    term1 = np.prod(1.0 / (1.0 + snr_taps)) / 12.0
    term2 = np.prod(1.0 / (1.0 + 4.0 / 3.0 * snr_taps)) / 4.0
    return float(term1 + term2)


def ber_cuif_closed(budget: LinkBudget, L: int | None = None) -> float:
    """Exact average genie CUIF BER for equal per-tap variances.

    This is the classical P-branch maximal-ratio diversity expression with
    per-branch SNR L |beta|^2 gamma_x sigma_g^2.
    """
    sigma = budget.sigma_g
    if not np.allclose(sigma, sigma[0]):
        raise ValueError("closed form requires equal tap variances; "
                         "use ber_cuif_chiani or Monte Carlo")
    L = budget.L if L is None else L
    if L == 0:
        return 0.5
    branch = L * budget.beta_sq * budget.gamma_x * sigma[0]
    mu = np.sqrt(branch / (1.0 + branch))
    P = budget.P_g
    # log-space binomials keep L up to 256 (and large P) stable
    p_idx = np.arange(P)
    log_comb = (special.gammaln(P + p_idx) - special.gammaln(p_idx + 1)
                - special.gammaln(P))
    terms = np.exp(log_comb + p_idx * np.log((1.0 + mu) / 2.0))
    return float(((1.0 - mu) / 2.0) ** P * np.sum(terms))


def ber_unknown_symbols(budget: LinkBudget, k_max: int | None = None) -> float:
    """Genie CUIF BER accounting for OFDM symbol decision errors.

    Symbols in error are dropped, shrinking the usable subcarrier count to
    a binomial k; the result is the binomial mixture of the closed form at
    each k (k = 0 contributes a coin flip).
    """
    L = budget.L if k_max is None else k_max
    k0 = (E_X / budget.gamma_x
          + budget.beta_sq * E_X * np.sum(budget.sigma_g))
    gamma_h = np.sum(budget.sigma_h) / k0
    p_ber = 0.5 * (1.0 - np.sqrt(gamma_h / (1.0 + gamma_h)))
    p_ser = 1.0 - (1.0 - p_ber) ** 2
    ks = np.arange(L + 1)
    weights = binom.pmf(ks, L, 1.0 - p_ser)
    total = weights[0] * 0.5
    for k in ks[1:]:
        total += weights[k] * ber_cuif_closed(budget, L=int(k))
    return float(total)


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
    e_x = E_X
    camf = budget.beta_sq * e_x * G.size * np.sum(v2 ** 2) / total
    cuif = budget.beta_sq * e_x * total
    return float(camf), float(cuif)
