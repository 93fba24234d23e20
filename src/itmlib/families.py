"""Test-function families and the functional invariance residual.

The residual of mu under a map T is max over the family of
|integral of phi d(mu) - integral of phi d(T#mu)|, and the integral of
phi composed with T against mu is the integral of phi against T#mu.
Density integrals are closed-form antiderivatives evaluated at exact
rational endpoints; only the final transcendental evaluation of the
trigonometric family is floating point.  The polynomial family is exact
end to end, and a measure with T#mu = mu has residual exactly zero.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from itmlib.circle import ZERO, Rational, frac
from itmlib.measure import Measure, pushforward

Number = Union[float, Fraction]


@dataclass(frozen=True)
class TrigBasis:
    """cos or sin of 2 pi k x; 1-periodic, so circle wrap is invisible to it."""

    k: int
    kind: str  # "cos" | "sin"

    @property
    def name(self) -> str:
        return f"{self.kind}(2pi*{self.k}x)"

    def value(self, x: Rational) -> float:
        t = 2 * math.pi * self.k * float(x)
        return math.cos(t) if self.kind == "cos" else math.sin(t)

    def integral_over(self, lo: Fraction, hi: Fraction) -> float:
        """Integral of phi over [lo, hi], closed form."""
        w = 2 * math.pi * self.k
        u0 = w * float(lo)
        u1 = w * float(hi)
        if self.kind == "cos":
            return (math.sin(u1) - math.sin(u0)) / w
        return (math.cos(u0) - math.cos(u1)) / w


@dataclass(frozen=True)
class PolynomialBasis:
    """x to the power d, integrated exactly in rational arithmetic."""

    d: int

    @property
    def name(self) -> str:
        return f"x^{self.d}"

    def value(self, x: Rational) -> Fraction:
        return frac(x) ** self.d

    def integral_over(self, lo: Fraction, hi: Fraction) -> Fraction:
        """Integral of x^d over [lo, hi], exact."""
        e = self.d + 1
        return (hi**e - lo**e) / e


class TrigFamily:
    """cos(2 pi k x) and sin(2 pi k x) for k = 1..degree."""

    def __init__(self, degree: int = 8):
        if degree < 1:
            raise ValueError("degree must be at least 1")
        self.degree = degree
        self.members: tuple[TrigBasis, ...] = tuple(
            TrigBasis(k, kind) for k in range(1, degree + 1) for kind in ("cos", "sin")
        )

    def __iter__(self):
        return iter(self.members)


class PolynomialFamily:
    """x^d for d = 1..degree; suited to segment maps, exact residuals."""

    def __init__(self, degree: int = 1):
        if degree < 1:
            raise ValueError("degree must be at least 1")
        self.degree = degree
        self.members: tuple[PolynomialBasis, ...] = tuple(
            PolynomialBasis(d) for d in range(1, degree + 1)
        )

    def __iter__(self):
        return iter(self.members)


def integral(phi, mu: Measure) -> Number:
    """Integral of phi against mu."""
    total: Number = ZERO
    for lo, hi, w in mu.density:
        total = total + w * phi.integral_over(lo, hi)
    for p, mass in mu.atoms:
        total = total + mass * phi.value(p)
    return total


def invariance_residual_functional(t, mu: Measure, family=None) -> Number:
    """Largest defect of invariance of mu under T seen by the family.

    T is an Itm or a PiecewiseMap, and mu is pushed through it once.
    Exact (a Fraction) when the family is polynomial; floating point with
    trig families, where only the transcendental evaluations round.  The
    density weights of mu and T#mu, which a slope below 1 raises, must lie
    within the float range; ValueError otherwise.
    """
    if family is None:
        family = TrigFamily(8)
    pushed = pushforward(t, mu)
    if any(w > sys.float_info.max for m in (mu, pushed) for _, _, w in m.density):
        raise ValueError("a density weight of mu or T#mu is above the float range")
    best: Number = ZERO
    for phi in family:
        defect = abs(integral(phi, mu) - integral(phi, pushed))
        if defect > best:
            best = defect
    return best
