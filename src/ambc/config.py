"""Shared configuration objects for the link simulator."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from enum import Enum

E_X = 2.0  # 4-QAM symbol energy, |x|^2 for x in {+-1 +-j}


class Scheme(Enum):
    CAMF = "CAMF"
    CUIF = "CUIF"
    ENERGY = "ENERGY"
    GENIE_CAMF = "GENIE_CAMF"
    GENIE_CUIF = "GENIE_CUIF"


# Schemes decided by the EM receiver; they spend bit 0 as a known pilot.
EM_SCHEMES = (Scheme.CAMF, Scheme.CUIF)

SWEEP_AXES = ("snr_db", "L", "P", "alpha_sq", "n_iter")
_INTEGER_AXES = ("L", "P", "n_iter")
_COUNT_FIELDS = ("L", "M", "P", "n_iter", "slots", "seed")

# Bound on |snr_db|; near 3000 dB, N0 = 10^(-snr_db/10) and the receiver's
# statistics overflow or underflow.
MAX_SNR_DB = 1000.0


def is_integer(value) -> bool:
    """True for Python and numpy integers, but not for bools."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class SimParams:
    """One Monte Carlo operating point."""

    L: int = 32
    M: int = 100
    P: int = 4
    alpha_sq: float = 0.2
    snr_db: float = 6.0
    scheme: Scheme = Scheme.CAMF
    n_iter: int = 5              # EM iteration cap
    slots: int = 1000
    seed: int = 0

    def __post_init__(self):
        for name in _COUNT_FIELDS:
            value = getattr(self, name)
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            # a numpy integer would wrap in products and stay out of JSON
            object.__setattr__(self, name, int(value))
        if not isinstance(self.scheme, Scheme):
            raise ValueError(f"scheme must be a Scheme, got {self.scheme!r}")
        for name in ("alpha_sq", "snr_db"):  # a bool would pass as 0 or 1
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not (self.L >= self.P >= 1):
            raise ValueError(f"need L >= P >= 1, got L={self.L}, P={self.P}")
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if self.scheme in EM_SCHEMES and self.M < 2:
            raise ValueError(f"{self.scheme.value} spends bit 0 as a pilot "
                             "and needs M >= 2")
        if self.n_iter < 1:
            raise ValueError("n_iter must be >= 1")
        if self.slots < 1:
            raise ValueError("slots must be >= 1")
        if not (0.0 < self.alpha_sq <= 1.0):
            raise ValueError("alpha_sq must be in (0, 1]")
        if not abs(self.snr_db) <= MAX_SNR_DB:  # also rejects nan
            raise ValueError(f"snr_db must lie in [-{MAX_SNR_DB:g}, "
                             f"{MAX_SNR_DB:g}] dB, got {self.snr_db!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")

    @property
    def n0(self) -> float:
        """Noise level; SNR of the legacy link is defined as 1/N0."""
        return 1.0 / 10.0 ** (self.snr_db / 10.0)

    def with_(self, **kwargs) -> "SimParams":
        return replace(self, **kwargs)

    def at(self, axis: str, value) -> "SimParams":
        """The operating point a sweep selects by setting ``axis`` to
        ``value``."""
        if axis not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {axis!r}")
        if axis in _INTEGER_AXES:
            if not float(value).is_integer():
                raise ValueError(f"{axis} must be an integer, got {value!r}")
            value = int(value)
        else:
            value = float(value)
        return replace(self, **{axis: value})
