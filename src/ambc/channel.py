"""Multipath Rayleigh channel synthesis for one block-fading slot.

The legacy-transmitter-to-reader and legacy-transmitter-to-tag links are
frequency selective, with P equal-power Rayleigh taps of variance 1/P; the
tag-to-reader link is flat with unit modulus gain f = e^{j theta}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import Scheme, SimParams


@dataclass(frozen=True)
class CirProfile:
    """Equal-power profile of a P-tap channel impulse response: each tap
    has variance 1/P, so the total link power is 1."""

    taps: int

    def __post_init__(self):
        if self.taps <= 0:
            raise ValueError("taps must be positive")

    @classmethod
    def uniform(cls, taps: int) -> "CirProfile":
        return cls(taps)

    @property
    def variances(self) -> np.ndarray:
        return np.full(self.taps, 1.0 / self.taps)


def sample_cir(profile: CirProfile, rng: np.random.Generator) -> np.ndarray:
    """Draw i.i.d. zero-mean CSCG taps with the profile's variances."""
    scale = np.sqrt(profile.variances / 2.0)
    return scale * (rng.standard_normal(profile.taps)
                    + 1j * rng.standard_normal(profile.taps))


def cir_to_freq(taps: np.ndarray, L: int) -> np.ndarray:
    """Per-subcarrier response: entry l is sum_p taps[...,p] e^{-j2pi lp/L}."""
    taps = np.asarray(taps)
    if L < taps.shape[-1]:
        raise ValueError(f"CIR length {taps.shape[-1]} exceeds symbol length L={L}")
    return np.fft.fft(taps, n=L)


def effective_gain(G: np.ndarray, beta: complex,
                   scheme: Scheme) -> np.ndarray:
    """Per-subcarrier backscatter channel C the reader sees, where the
    reflected signal is a_lm = C_l x_lm s_m, for the tag-link response G
    (L,) and beta = alpha f.

    CAMF (the tag filters with kappa conj(G), kappa = sqrt(L) / ||G||):
    beta kappa |G_l|^2, one common phase and nonnegative magnitudes. CUIF
    and the on-off energy baseline (impulse filter): beta G_l.
    """
    if not isinstance(scheme, Scheme):
        raise ValueError(f"scheme must be a Scheme, got {scheme!r}")
    if scheme not in (Scheme.CAMF, Scheme.GENIE_CAMF):
        return beta * G
    g_norm = np.linalg.norm(G)
    if g_norm == 0:
        raise ValueError("G is identically zero; matched filter undefined")
    return beta * (math.sqrt(G.size) / g_norm) * np.abs(G) ** 2


def sample_realization(params: SimParams,
                       rng: np.random.Generator) -> tuple:
    """Draw one slot's channels under the equal-power profile: one normal
    draw holds h's real and imaginary parts, then g's. Returns the
    frequency responses H and G (L,) and the phase theta of the flat gain
    f = e^{j theta}."""
    parts = rng.standard_normal((2, 2, params.P)) * math.sqrt(0.5 / params.P)
    H, G = cir_to_freq(parts[:, 0] + 1j * parts[:, 1], params.L)
    theta = 2.0 * np.pi * rng.random()  # as rng.uniform(0, 2 pi), bit for bit
    return H, G, theta
