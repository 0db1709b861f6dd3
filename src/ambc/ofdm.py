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


def sign_index(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Quadrant index Re_neg + 256 Im_neg of each entry of a C-ordered
    complex array z, for sign_point; a zero component counts as positive.
    The (Re, Im) sign flags go to out, a bool array of z's shape plus a
    trailing 2, when given; the index is a view of them.
    """
    negative = np.less(z[..., None].view(np.float64), 0, out=out)
    # each (Re z < 0, Im z < 0) flag pair, read as one little-endian
    # 16-bit integer, is Re_neg + 256 Im_neg
    return negative.view("<u2")[..., 0]


def sign_point(index: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The 4-QAM point of each quadrant index from sign_index, written
    into out when given.

    For matched-filter outputs z = conj(g) y this is the ML decision
    sgn Re z + j sgn Im z, the point minimizing |y - g x|^2; ties (z on an
    axis, including a zero gain g) go to 1 + 1j, like argmin's first point.
    """
    # with out=, take's default mode="raise" copies through a temporary
    return _POINT_BY_SIGNS.take(index, out=out, mode="clip")

