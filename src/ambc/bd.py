"""Backscatter device model: bits and the reflected signal."""

from __future__ import annotations

import numpy as np


def sample_bits(M: int, rng: np.random.Generator,
                pilot_first: bool = False) -> np.ndarray:
    """BPSK tag bits in {-1, +1}; s_0 is the known pilot +1 if pilot_first."""
    s = rng.integers(0, 2, size=M) * 2 - 1
    if pilot_first:
        s[0] = 1
    return s


def backscatter_frame(gain: np.ndarray, frame: np.ndarray,
                      s: np.ndarray) -> np.ndarray:
    """Reflected frequency-domain signal of a whole slot: column m is
    C x_m s_m, for the backscatter gain C (L,) the reader sees."""
    return gain[:, None] * frame * s[None, :]
