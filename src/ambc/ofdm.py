"""The legacy signal: its 4-QAM constellation and i.i.d. OFDM frames."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import E_X


@dataclass(frozen=True)
class Constellation:
    """Constant-modulus constellation with a fixed point ordering.

    The ordering doubles as the bit mapping: point index i carries the Gray
    bit pair (b_I, b_Q) = (i >> 1, i & 1) with I = 1 - 2 b_I, Q = 1 - 2 b_Q.
    The points are read-only, so one instance can be shared.
    """

    points: np.ndarray
    symbol_energy: float

    def __post_init__(self):
        pts = np.array(self.points, dtype=complex)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        if not np.allclose(np.abs(pts) ** 2, self.symbol_energy):
            raise ValueError("constellation is not constant-modulus")
        if not np.isclose(pts.mean(), 0.0):
            raise ValueError("constellation is not zero-mean")


def qam4() -> Constellation:
    """4-QAM {+-1 +-j}, E_x = E_X, Gray-ordered."""
    return Constellation(
        points=np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]),
        symbol_energy=E_X,
    )


# The legacy signal's constellation: built and validated once.
_POINTS = qam4().points


def gen_frame(L: int, M: int, rng: np.random.Generator) -> np.ndarray:
    """L x M grid of i.i.d. uniform 4-QAM symbols."""
    if L < 1 or M < 1:
        raise ValueError("L and M must be >= 1")
    idx = rng.integers(0, _POINTS.size, size=(L, M))
    return _POINTS[idx]
