"""Multipath Rayleigh channel synthesis for one block-fading slot.

The legacy-transmitter-to-reader and legacy-transmitter-to-tag links are
frequency selective (P taps); the tag-to-reader link is flat with unit
modulus gain f = e^{j theta}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Scheme, SimParams


@dataclass(frozen=True)
class CirProfile:
    """Per-tap power profile of a channel impulse response."""

    taps: int
    variances: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.variances, dtype=float)
        object.__setattr__(self, "variances", v)
        if self.taps <= 0:
            raise ValueError("taps must be positive")
        if v.shape != (self.taps,):
            raise ValueError("variances length must equal taps")
        if np.any(v < 0):
            raise ValueError("variances must be nonnegative")

    @classmethod
    def uniform(cls, taps: int) -> "CirProfile":
        """Equal-power profile with per-tap variance 1/P."""
        return cls(taps, np.full(taps, 1.0 / taps))


@dataclass(frozen=True)
class ChannelRealization:
    """One slot's channels and the derived matched-filter quantities."""

    h: np.ndarray            # CIR to the reader
    g: np.ndarray            # CIR to the tag
    H: np.ndarray            # length-L frequency response of h
    G: np.ndarray            # length-L frequency response of g
    f: complex               # flat tag-to-reader gain, |f| = 1
    theta: float             # phase of f
    alpha: float             # reflection coefficient (amplitude)
    beta: complex            # alpha * f
    kappa: float             # sqrt(L) / ||G||
    beta_tilde: complex      # beta * kappa
    V: np.ndarray            # |G_l|^2, nonnegative

    def effective_gain(self, scheme: Scheme) -> np.ndarray:
        """Per-subcarrier backscatter channel C the reader sees, where the
        reflected signal is a_lm = C_l x_lm s_m.

        CAMF (the tag filters with kappa conj(G)): beta_tilde |G_l|^2, one
        common phase and nonnegative magnitudes. CUIF and the on-off energy
        baseline (impulse filter): beta G_l.
        """
        if scheme in (Scheme.CAMF, Scheme.GENIE_CAMF):
            return self.beta_tilde * self.V
        return self.beta * self.G


def sample_cir(profile: CirProfile, rng: np.random.Generator) -> np.ndarray:
    """Draw i.i.d. zero-mean CSCG taps with the profile's variances."""
    scale = np.sqrt(profile.variances / 2.0)
    return scale * (rng.standard_normal(profile.taps)
                    + 1j * rng.standard_normal(profile.taps))


def cir_to_freq(taps: np.ndarray, L: int) -> np.ndarray:
    """Per-subcarrier response: coefficient l is sum_p taps[p] e^{-j2pi lp/L}."""
    taps = np.asarray(taps)
    if L < taps.shape[0]:
        raise ValueError(f"CIR length {taps.shape[0]} exceeds symbol length L={L}")
    return np.fft.fft(taps, n=L)


def realization_from_parts(h: np.ndarray, g: np.ndarray, L: int,
                           alpha: float, theta: float) -> ChannelRealization:
    """Assemble the derived fields from CIRs and the flat-link phase."""
    H = cir_to_freq(h, L)
    G = cir_to_freq(g, L)
    g_norm = np.linalg.norm(G)
    if g_norm == 0:
        raise ValueError("G is identically zero; matched filter undefined")
    f = np.exp(1j * theta)
    beta = alpha * f
    kappa = np.sqrt(L) / g_norm
    return ChannelRealization(
        h=h, g=g, H=H, G=G, f=f, theta=theta, alpha=alpha,
        beta=beta, kappa=kappa, beta_tilde=beta * kappa,
        V=np.abs(G) ** 2,
    )


def sample_realization(params: SimParams,
                       rng: np.random.Generator) -> ChannelRealization:
    """Draw h, g and theta for one slot under the uniform 1/P profile."""
    profile = CirProfile.uniform(params.P)
    h = sample_cir(profile, rng)
    g = sample_cir(profile, rng)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    return realization_from_parts(h, g, params.L,
                                  np.sqrt(params.alpha_sq), theta)
