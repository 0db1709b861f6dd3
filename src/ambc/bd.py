"""Backscatter device model: bits and the reflected signal."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .config import Scheme


@dataclass(frozen=True)
class BdBits:
    """BPSK bit sequence of the tag; s_0 may be a known pilot (+1)."""

    s: np.ndarray
    pilot_first: bool = False

    def __post_init__(self):
        s = np.asarray(self.s, dtype=int)
        object.__setattr__(self, "s", s)
        if not np.all(np.isin(s, (-1, 1))):
            raise ValueError("bits must be in {-1, +1}")
        if self.pilot_first and s[0] != 1:
            raise ValueError("pilot bit s_0 must be +1")


def sample_bits(M: int, rng: np.random.Generator,
                pilot_first: bool = False) -> BdBits:
    s = rng.integers(0, 2, size=M) * 2 - 1
    if pilot_first:
        s[0] = 1
    return BdBits(s, pilot_first=pilot_first)


def backscatter_frame(scheme: Scheme, realization: ChannelRealization,
                      frame: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Reflected frequency-domain signal of a whole slot: column m is
    C x_m s_m with C = realization.effective_gain(scheme)."""
    gain = realization.effective_gain(scheme)
    return gain[:, None] * frame * np.asarray(s)[None, :]
