"""Closed numeric intervals used for frequencies, likelihoods, effects."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def midpoint(lo, hi):
    """0.5 * (lo + hi) of floats or arrays, and 0.5 * lo + 0.5 * hi where that
    sum overflows, so that finite endpoints have a finite midpoint."""
    with np.errstate(over="ignore"):
        mid = 0.5 * (lo + hi)
    overflow = np.isinf(mid)
    return np.where(overflow, 0.5 * lo + 0.5 * hi, mid) if overflow.any() else mid


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]; point values have lo == hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"interval lower bound {self.lo} exceeds upper bound {self.hi}")

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(x, x)

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def midpoint(self) -> float:
        mid = 0.5 * (self.lo + self.hi)  # plain float arithmetic; numpy only where it overflows
        return float(midpoint(self.lo, self.hi)) if math.isinf(mid) else mid

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other: "Interval") -> "Interval":
        # All quantities in this calculus are nonnegative, so the product
        # of endpoints is monotone and the corner search is unnecessary.
        if self.lo < 0 or other.lo < 0:
            raise ValueError("interval product requires nonnegative operands")
        return Interval(self.lo * other.lo, self.hi * other.hi)

    def scale(self, k: float) -> "Interval":
        if k < 0:
            raise ValueError("scale factor must be nonnegative")
        return Interval(self.lo * k, self.hi * k)

    def complement(self) -> "Interval":
        """Map an effect x in [0,1] to the surviving fraction 1 - x."""
        if self.lo < 0 or self.hi > 1:
            raise ValueError(f"complement requires an interval within [0,1], got {self}")
        return Interval(1.0 - self.hi, 1.0 - self.lo)

    def contains(self, other: "Interval", tol: float = 0.0) -> bool:
        return self.lo - tol <= other.lo and other.hi <= self.hi + tol

    def __str__(self) -> str:
        if self.is_point:
            return f"{self.lo:g}"
        return f"[{self.lo:g},{self.hi:g}]"
