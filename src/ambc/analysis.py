"""Closed-form and semi-analytic BER expressions for the genie-aided
detectors, used as oracles and reference curves for the Monte Carlo runs.

scipy is imported inside the functions that use it: loading scipy.stats
and scipy.special takes about a second, which a Monte Carlo run that
evaluates no closed form should not pay at `import ambc`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import E_X, SimParams


@dataclass(frozen=True)
class LinkBudget:
    """Average link parameters entering the closed-form BER expressions;
    both multipath links have P equal-power taps of variance 1/P."""

    L: int
    P: int
    alpha_sq: float
    gamma_x: float              # E_x / N0

    def __post_init__(self):
        if self.P < 1:
            raise ValueError("P must be >= 1")
        if self.gamma_x <= 0:
            raise ValueError("gamma_x must be positive")
        if self.alpha_sq < 0:
            raise ValueError("alpha_sq must be nonnegative")

    @property
    def beta_sq(self) -> float:
        # |f| = 1, so |beta|^2 = alpha^2
        return self.alpha_sq

    @classmethod
    def from_sim(cls, params: SimParams) -> "LinkBudget":
        return cls(L=params.L, P=params.P, alpha_sq=params.alpha_sq,
                   gamma_x=E_X / params.n0)


def q_function(x):
    """Upper-tail standard normal probability."""
    from scipy import special
    return 0.5 * special.erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def ber_cuif_conditional(G: np.ndarray, beta: complex, n0: float) -> float:
    """Genie CUIF error probability for a fixed tag-link response G."""
    stat = 2.0 * abs(beta) ** 2 * E_X * np.sum(np.abs(G) ** 2) / n0
    return float(q_function(np.sqrt(stat)))


def ber_camf_conditional(G: np.ndarray, beta_tilde: complex,
                         n0: float) -> float:
    """Genie CAMF error probability for a fixed tag-link response G."""
    stat = 2.0 * abs(beta_tilde) ** 2 * E_X * np.sum(np.abs(G) ** 4) / n0
    return float(q_function(np.sqrt(stat)))


def _ber_mrc(branch: float, P: int) -> float:
    """BER of P-branch maximal-ratio combining at per-branch SNR branch."""
    from scipy import special
    mu = np.sqrt(branch / (1.0 + branch))
    # log-space binomials keep L up to 256 (and large P) stable
    p_idx = np.arange(P)
    log_comb = (special.gammaln(P + p_idx) - special.gammaln(p_idx + 1)
                - special.gammaln(P))
    terms = np.exp(log_comb + p_idx * np.log((1.0 + mu) / 2.0))
    # rounding in the binomials can lift a coin flip past 0.5
    return float(min(((1.0 - mu) / 2.0) ** P * np.sum(terms), 0.5))


def ber_cuif_closed(budget: LinkBudget) -> float:
    """Exact average genie CUIF BER: P-branch diversity with per-branch SNR
    L |beta|^2 gamma_x / P."""
    return _ber_mrc(budget.L * budget.beta_sq * budget.gamma_x
                    * (1.0 / budget.P), budget.P)


def ber_unknown_symbols(budget: LinkBudget) -> float:
    """Genie CUIF BER accounting for OFDM symbol decision errors.

    Symbols in error are dropped, shrinking the usable subcarrier count to
    a binomial k; the result is the binomial mixture of the closed form at
    each k (k = 0 contributes a coin flip).
    """
    from scipy.stats import binom
    # unit total tap power on both links
    gamma_h = 1.0 / (E_X / budget.gamma_x + budget.beta_sq * E_X)
    p_ber = 0.5 * (1.0 - np.sqrt(gamma_h / (1.0 + gamma_h)))
    p_ser = 1.0 - (1.0 - p_ber) ** 2
    weights = binom.pmf(np.arange(budget.L + 1), budget.L, 1.0 - p_ser)
    total = weights[0] * 0.5
    for k in range(1, budget.L + 1):
        total += weights[k] * _ber_mrc(
            k * budget.beta_sq * budget.gamma_x * (1.0 / budget.P), budget.P)
    # the binomial weights can sum to 1 + ulp
    return float(min(total, 0.5))


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
