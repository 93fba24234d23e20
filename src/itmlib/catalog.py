"""Ready-made maps and number-theoretic helpers used across tests and demos."""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

from itmlib.itm import Itm
from itmlib.piecewise import AffinePiece, Domain, PiecewiseMap


def rotation(c) -> Itm:
    """The rigid rotation t -> t + c as a one-piece map."""
    return Itm((0,), (c,))


def half_collapse() -> Itm:
    """Breakpoints {0, 1/2}, shifts {0, 1/2}: both halves land on [0, 1/2)."""
    return Itm((0, Fraction(1, 2)), (0, Fraction(1, 2)))


def double_rotation(beta, c0, c1) -> Itm:
    """Two-piece map: shift c0 on [0, beta), shift c1 on [beta, 1)."""
    return Itm((0, beta), (c0, c1))


def two_shift_example() -> Itm:
    """Breakpoints {0, 1/2}, shifts {1/3, 1/4}: a non-invertible two-piece map.

    Its first image is [0, 1/4) u [1/3, 1), of length 11/12.
    """
    return double_rotation(Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))


def halving_map() -> PiecewiseMap:
    """x -> x/2 on (0, 1] with the reset value 1 at 0, as a segment map.

    Every orbit slides toward the discontinuity at 0 without reaching
    it, so no finite invariant measure survives in the limit.
    """
    return PiecewiseMap(
        domain=Domain.SEGMENT,
        pieces=(AffinePiece(Fraction(0), Fraction(1), Fraction(1, 2), Fraction(0)),),
        boundary_values=((Fraction(0), Fraction(1)),),
    )


def random_itm(
    rng: random.Random,
    pieces: int,
    denominator: int,
) -> Itm:
    """Random map with all data on the grid of multiples of 1/denominator."""
    if denominator < pieces:
        raise ValueError("need denominator >= pieces for distinct breakpoints")
    numerators = sorted(rng.sample(range(denominator), pieces))
    bps = [Fraction(a, denominator) for a in numerators]
    shs = [Fraction(rng.randrange(denominator), denominator) for _ in range(pieces)]
    return Itm(bps, shs)


def golden_mean(digits: int = 30) -> Fraction:
    """(sqrt(5) - 1) / 2 as an exact rational correct to the given digits."""
    scale = 10**digits
    return Fraction(isqrt(5 * scale * scale) - scale, 2 * scale)


def root2_minus_one(digits: int = 30) -> Fraction:
    """sqrt(2) - 1 as an exact rational correct to the given digits."""
    scale = 10**digits
    return Fraction(isqrt(2 * scale * scale) - scale, scale)


def fibonacci_up_to(limit: int, start: int = 2) -> list[int]:
    """Fibonacci numbers in [start, limit], ascending (denominator schedules)."""
    out = []
    a, b = 1, 1
    while b <= limit:
        if b >= start:
            out.append(b)
        a, b = b, a + b
    return out

