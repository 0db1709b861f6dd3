"""Legacy 4-QAM OFDM frames and per-subcarrier ML symbol decisions."""

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
# The ML point by the signs of z: entry Re_neg + 256 Im_neg (each 0 or 1)
# is the point in that quadrant, index 2 b_I + b_Q with b = 1 on a
# negative component.
_POINT_BY_SIGNS = np.zeros(258, dtype=complex)
_POINT_BY_SIGNS[[0, 256, 1, 257]] = _POINTS


def gen_frame(L: int, M: int, rng: np.random.Generator) -> np.ndarray:
    """L x M grid of i.i.d. uniform 4-QAM symbols."""
    if L < 1 or M < 1:
        raise ValueError("L and M must be >= 1")
    idx = rng.integers(0, _POINTS.size, size=(L, M))
    return _POINTS[idx]


def detect_grid(z: np.ndarray) -> np.ndarray:
    """4-QAM ML decisions from matched-filter outputs z = conj(g) y of any
    shape: the point x minimizing |y - g x|^2 is sgn Re(z) + j sgn Im(z),
    ties (z on an axis, including a zero gain g) going to +1 like argmin's
    first point.
    """
    z = np.asarray(z, dtype=complex, order="C")
    negative = z[..., None].view(np.float64) < 0
    # each (Re z < 0, Im z < 0) flag pair, read as one little-endian
    # 16-bit integer, is Re_neg + 256 Im_neg
    return _POINT_BY_SIGNS.take(negative.view("<u2")[..., 0])
