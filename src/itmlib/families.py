"""Test-function families and the functional invariance residual.

The residual of mu under a map T is max over the family of
|integral of phi d(mu) - integral of phi d(T#mu)|, and the integral of
phi composed with T against mu is the integral of phi against T#mu.
Density integrals are closed-form antiderivatives.  The polynomial family
evaluates them at the exact rational endpoints, so it is exact end to end
and a measure with T#mu = mu has residual exactly zero.  The
trigonometric family reads each measure as floats once, not once per
member (``measure._float_view``, which divides the integer run ends by
the grid and the integer weights by their denominator): each endpoint,
weight, atom position and mass becomes its nearest float, and from there
only the transcendental evaluations and the float arithmetic on them
round.  Each basis names the view it integrates over
(``view``) and has one integral loop over it (``integrate``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from itmlib.circle import ZERO, Rational, frac
from itmlib.measure import Measure, _float_view, _largest_weight, pushforward

Number = Union[float, Fraction]

# the largest float, an integer
_FLOAT_MAX = int(sys.float_info.max)


def _exact_view(mu: Measure) -> tuple:
    """mu's density runs (lo, hi, weight) and atoms (position, mass) as Fractions."""
    return mu.density, mu.atoms


@dataclass(frozen=True)
class TrigBasis:
    """cos or sin of 2 pi k x; 1-periodic, so circle wrap is invisible to it."""

    k: int
    kind: str  # "cos" | "sin"

    view = staticmethod(_float_view)

    @property
    def name(self) -> str:
        return f"{self.kind}(2pi*{self.k}x)"

    def integrate(self, runs, atoms) -> float:
        """Integral against density runs and atoms in floats (``view``): each
        run adds its weight times phi's closed-form integral over it, each
        atom its mass times phi at it, in that order."""
        w = 2 * math.pi * self.k
        total = 0.0
        if self.kind == "cos":
            for lo, hi, m in runs:
                total += m * ((math.sin(w * hi) - math.sin(w * lo)) / w)
            for p, m in atoms:
                total += m * math.cos(w * p)
        else:
            for lo, hi, m in runs:
                total += m * ((math.cos(w * lo) - math.cos(w * hi)) / w)
            for p, m in atoms:
                total += m * math.sin(w * p)
        return total


@dataclass(frozen=True)
class PolynomialBasis:
    """x to the power d, integrated exactly in rational arithmetic."""

    d: int

    view = staticmethod(_exact_view)

    @property
    def name(self) -> str:
        return f"x^{self.d}"

    def value(self, x: Rational) -> Fraction:
        return frac(x) ** self.d

    def integral_over(self, lo: Fraction, hi: Fraction) -> Fraction:
        """Integral of x^d over [lo, hi], exact."""
        e = self.d + 1
        return (hi**e - lo**e) / e

    def integrate(self, runs, atoms) -> Fraction:
        """Integral against density runs and atoms in Fractions (``view``)."""
        total = ZERO
        for lo, hi, w in runs:
            total += w * self.integral_over(lo, hi)
        for p, mass in atoms:
            total += mass * self.value(p)
        return total


class _Family:
    """Test functions for 1..degree, iterated in order.  A family names its
    members for a degree (``_basis``) and its default degree."""

    def __init__(self, degree: int):
        if degree < 1:
            raise ValueError("degree must be at least 1")
        self.degree = degree
        self.members = tuple(self._basis(degree))

    def __iter__(self):
        return iter(self.members)


class TrigFamily(_Family):
    """cos(2 pi k x) and sin(2 pi k x) for k = 1..degree."""

    def __init__(self, degree: int = 8):
        super().__init__(degree)

    @staticmethod
    def _basis(degree: int) -> list[TrigBasis]:
        return [TrigBasis(k, kind) for k in range(1, degree + 1) for kind in ("cos", "sin")]


class PolynomialFamily(_Family):
    """x^d for d = 1..degree; suited to segment maps, exact residuals."""

    def __init__(self, degree: int = 1):
        super().__init__(degree)

    @staticmethod
    def _basis(degree: int) -> list[PolynomialBasis]:
        return [PolynomialBasis(d) for d in range(1, degree + 1)]


def integral(phi, mu: Measure) -> Number:
    """Integral of phi against mu."""
    return phi.integrate(*phi.view(mu))


def invariance_residual_functional(t, mu: Measure, family=None) -> Number:
    """Largest defect of invariance of mu under T seen by the family.

    T is an Itm or a PiecewiseMap, and mu is pushed through it once.
    Exact (a Fraction) when the family is polynomial; floating point with
    trig families, whose members integrate over float views of mu and T#mu
    built once for the whole family.  The density weights of mu and T#mu,
    which a slope below 1 raises, must lie within the float range;
    ValueError otherwise.
    """
    if family is None:
        family = TrigFamily(8)
    pushed = pushforward(t, mu)
    if any(_largest_weight(m) > _FLOAT_MAX for m in (mu, pushed)):
        raise ValueError("a density weight of mu or T#mu is above the float range")
    views: dict = {}
    best: Number = ZERO
    for phi in family:
        if phi.view not in views:
            views[phi.view] = (phi.view(mu), phi.view(pushed))
        here, there = views[phi.view]
        defect = abs(phi.integrate(*here) - phi.integrate(*there))
        if defect > best:
            best = defect
    return best
