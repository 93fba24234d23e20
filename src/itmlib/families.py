"""Test-function families and the functional invariance residual.

The residual of mu under a map T is max over the family of
|integral of phi d(mu) - integral of phi composed with T d(mu)|.
Density integrals reduce to closed-form antiderivatives over the affine
charts of the map, evaluated at exact rational endpoints; only the final
transcendental evaluation of the trigonometric family is floating point.
The polynomial family is exact end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from itmlib.circle import ONE, ZERO, CirclePoint, Rational, frac
from itmlib.itm import Itm
from itmlib.measure import Measure

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

    def integral_affine(
        self, lo: Fraction, hi: Fraction, a: Fraction, b: Fraction
    ) -> float:
        """Integral over [lo, hi] of phi(a x + b) dx, closed form."""
        if a == 0:
            return self.value(b) * float(hi - lo)
        w = 2 * math.pi * self.k
        u0 = w * float(a * lo + b)
        u1 = w * float(a * hi + b)
        if self.kind == "cos":
            return (math.sin(u1) - math.sin(u0)) / (w * float(a))
        return (math.cos(u0) - math.cos(u1)) / (w * float(a))


@dataclass(frozen=True)
class PolynomialBasis:
    """x to the power d, integrated exactly in rational arithmetic."""

    d: int

    @property
    def name(self) -> str:
        return f"x^{self.d}"

    def value(self, x: Rational) -> Fraction:
        return frac(x) ** self.d

    def integral_affine(
        self, lo: Fraction, hi: Fraction, a: Fraction, b: Fraction
    ) -> Fraction:
        if a == 0:
            return (b**self.d) * (hi - lo)
        e = self.d + 1
        return ((a * hi + b) ** e - (a * lo + b) ** e) / (a * e)


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


def _evaluate_map(m, x: Fraction) -> Fraction:
    if isinstance(m, Itm):
        return m.evaluate(CirclePoint(x)).value
    return frac(m.evaluate(x))


def integral(phi, mu: Measure) -> Number:
    """Integral of phi against mu (identity chart for the density part)."""
    total: Number = ZERO
    for lo, hi, w in mu.density:
        total = total + w * phi.integral_affine(lo, hi, ONE, ZERO)
    for p, mass in mu.atoms:
        total = total + mass * phi.value(p)
    return total


def integral_composed(phi, m, mu: Measure) -> Number:
    """Integral of phi(T(x)) d(mu), via the affine charts of T."""
    charts = m.affine_segments()
    total: Number = ZERO
    for lo, hi, w in mu.density:
        for clo, chi, a, b in charts:
            left, right = max(lo, clo), min(hi, chi)
            if right > left:
                total = total + w * phi.integral_affine(left, right, a, b)
    for p, mass in mu.atoms:
        total = total + mass * phi.value(_evaluate_map(m, p))
    return total


def invariance_residual_functional(m, mu: Measure, family=None) -> Number:
    """Largest defect of invariance of mu under T seen by the family.

    Exact (a Fraction) when the family is polynomial; floating point with
    trig families, where only the transcendental evaluations round.
    """
    if family is None:
        family = TrigFamily(8)
    best: Number = ZERO
    for phi in family:
        defect = abs(integral(phi, mu) - integral_composed(phi, m, mu))
        if defect > best:
            best = defect
    return best
