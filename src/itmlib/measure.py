"""Measures with piecewise-constant densities and finitely many atoms.

A Measure lives on [0, 1] cut open at 0: density pieces never wrap through
0 (wrapping arcs are split on construction) and atom positions are exact
rationals in [0, 1], so segment maps can keep an atom at 1 distinct from
one at 0.  The representation is canonical, which makes equality of
measures and exact invariance residuals decidable.

Every mass query reads one cumulative table: the rows (x, F(x-), F(x),
slope) of F(x) = mass of [0, x] at each cut.  ``Cdf`` stores the table of
a measure, ``mass_between`` is two lookups in it, and ``cdf_distance``
scans the table of the signed difference that ``tv_distance`` also sums.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional

from itmlib.circle import ONE, ZERO, Arc, ArcSet, CirclePoint, Rational, frac
from itmlib.circle import _on_grid, _walk
from itmlib.itm import AttractorResult, FiniteType, Itm


class NotFiniteType(ValueError):
    """The attractor did not stabilize, so no exact invariant measure exists here."""


class AtomicMeasure(ValueError):
    """A non-atomic measure was required."""


def _merge_density(
    raw: Iterable[tuple[Fraction, Fraction, Fraction]]
) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
    events: list[tuple[Fraction, Fraction]] = []
    for lo, hi, w in raw:
        if w < 0:
            raise ValueError("density weights must be nonnegative")
        if not (ZERO <= lo and hi <= ONE):
            raise ValueError(f"density piece [{lo}, {hi}) outside [0, 1]")
        if hi > lo and w > 0:
            events.append((lo, w))
            events.append((hi, -w))
    return _sweep(events)


def _sweep(
    events: list[tuple[Fraction, Fraction]]
) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
    # sum (position, weight change) events along the cut-open line into
    # runs of constant level, merging adjacent runs of equal level;
    # zero-level runs are dropped
    if not events:
        return ()
    events.sort(key=lambda e: e[0])
    out: list[list[Fraction]] = []
    level = ZERO
    prev = events[0][0]
    i = 0
    while i < len(events):
        x = events[i][0]
        if x > prev and level != 0:
            if out and out[-1][1] == prev and out[-1][2] == level:
                out[-1][1] = x
            else:
                out.append([prev, x, level])
        while i < len(events) and events[i][0] == x:
            level += events[i][1]
            i += 1
        prev = x
    return tuple((lo, hi, w) for lo, hi, w in out)


def _merge_atoms(
    raw: Iterable[tuple[Fraction, Fraction]]
) -> tuple[tuple[Fraction, Fraction], ...]:
    atoms = []
    for pos, mass in raw:
        if mass < 0:
            raise ValueError("atom masses must be nonnegative")
        if not ZERO <= pos <= ONE:
            raise ValueError(f"atom position {pos} outside [0, 1]")
        if mass > 0:
            atoms.append((pos, mass))
    return _add_neighbours(atoms)


def _add_neighbours(
    atoms: Iterable[tuple[Fraction, Fraction]]
) -> tuple[tuple[Fraction, Fraction], ...]:
    # sort (position, mass) pairs and add up equal neighbours, dropping zero
    # sums; no position is hashed, since Fraction's hash repeats with period
    # 61 along x_k = c + d/2^k and a dict of such atoms fills quadratically.
    # The tuple is built from a list: CPython sizes a tuple built from a
    # generator by guessing, and the spare tuples pile up on its free lists.
    out: list[tuple[Fraction, Fraction]] = []
    for p, m in sorted(atoms, key=lambda a: a[0]):
        if out and out[-1][0] == p:
            out[-1] = (p, out[-1][1] + m)
        else:
            out.append((p, m))
    return tuple([a for a in out if a[1] != 0])


def _cumulative(
    density: Iterable[tuple[Fraction, Fraction, Fraction]],
    atoms: Iterable[tuple[Fraction, Fraction]],
) -> list[list[Fraction]]:
    """Rows [x, F(x-), F(x), slope of F on [x, next cut)] at every cut.

    F(x) is the mass of [0, x], for density pieces and atoms of either
    sign.  The cuts are 0, 1, the density endpoints and the atom positions,
    in increasing order.  Between two cuts F is linear, so every query on
    the cut line reads one row.
    """
    events = [e for lo, hi, w in density for e in ((lo, w, ZERO), (hi, -w, ZERO))]
    events += [(p, ZERO, m) for p, m in atoms]
    events.append((ONE, ZERO, ZERO))
    events.sort(key=lambda e: e[0])
    rows = [[ZERO, ZERO, ZERO, ZERO]]
    for x, dw, m in events:
        row = rows[-1]
        if x != row[0]:
            left = row[2] + row[3] * (x - row[0])
            row = [x, left, left, row[3]]
            rows.append(row)
        row[2] += m
        row[3] += dw
    return rows


@dataclass(frozen=True)
class Measure:
    """density: disjoint (lo, hi, weight-per-unit-length) pieces, sorted,
    never wrapping through 0; atoms: sorted (position, mass) pairs.

    Construction canonicalizes arbitrary input, so equal measures have
    equal representations and ``==`` decides measure equality.
    """

    density: tuple[tuple[Fraction, Fraction, Fraction], ...] = ()
    atoms: tuple[tuple[Fraction, Fraction], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "density", _merge_density(self.density))
        object.__setattr__(self, "atoms", _merge_atoms(self.atoms))

    @classmethod
    def from_arcs(
        cls,
        weighted_arcs: Iterable[tuple[Arc, Rational]],
        atoms: Iterable[tuple[Rational, Rational]] = (),
    ) -> "Measure":
        """Build from weighted arcs; wrapping arcs are split at 0."""
        density = []
        for a, w in weighted_arcs:
            for lo, hi in a.segments():
                density.append((lo, hi, frac(w)))
        return cls(tuple(density), tuple((frac(p), frac(m)) for p, m in atoms))

    @classmethod
    def lebesgue(cls) -> "Measure":
        return cls(((ZERO, ONE, ONE),))

    @classmethod
    def point_mass(cls, pos: Rational, mass: Rational = 1) -> "Measure":
        return cls((), ((frac(pos), frac(mass)),))

    @classmethod
    def uniform_on(cls, support: ArcSet) -> "Measure":
        """Normalized Lebesgue measure restricted to an arc union."""
        if support.total_length == 0:
            raise ValueError("cannot normalize Lebesgue measure on a null set")
        w = 1 / support.total_length
        return cls(tuple((lo, hi, w) for lo, hi in support.segments()))

    @property
    def total_mass(self) -> Fraction:
        dens = sum((w * (hi - lo) for lo, hi, w in self.density), ZERO)
        return dens + sum((m for _, m in self.atoms), ZERO)

    @property
    def non_atomic(self) -> bool:
        return not self.atoms

    @property
    def is_probability(self) -> bool:
        return self.total_mass == 1

    def scale(self, r: Rational) -> "Measure":
        r = frac(r)
        return Measure(
            tuple((lo, hi, w * r) for lo, hi, w in self.density),
            tuple((p, m * r) for p, m in self.atoms),
        )

    def add(self, other: "Measure") -> "Measure":
        return Measure(self.density + other.density, self.atoms + other.atoms)

    def __add__(self, other: "Measure") -> "Measure":
        return self.add(other)

    def mass_of(self, support: ArcSet) -> Fraction:
        """Mass of an arc union (arcs half-open, wraps handled)."""
        cdf = self.cdf()
        return sum((cdf.mass_between(lo, hi) for lo, hi in support.segments()), ZERO)

    def support(self) -> ArcSet:
        """Smallest canonical arc union carrying all density mass (atoms excluded)."""
        return ArcSet.from_segments((lo, hi) for lo, hi, _ in self.density)

    def cdf(self) -> "Cdf":
        return Cdf(self)

    def __repr__(self) -> str:
        d = ", ".join(f"[{lo},{hi})x{w}" for lo, hi, w in self.density)
        a = ", ".join(f"{m}@{p}" for p, m in self.atoms)
        return f"Measure({d or 'no density'}{'; ' + a if a else ''})"


class Cdf:
    """Exact distribution function F(x) = mu([0, x]) with basepoint 0.

    F is piecewise linear with jumps at atoms; ``at`` gives the
    right-continuous value including the atom at x, ``left_limit`` the
    value just below x.  Each query reads one row of the cumulative table
    (cuts, value_left, value_at, slopes): F has slope slopes[i] on
    [cuts[i], cuts[i + 1]).
    """

    __slots__ = ("measure", "cuts", "value_left", "value_at", "slopes")

    def __init__(self, measure: Measure):
        self.measure = measure
        self.cuts, self.value_left, self.value_at, self.slopes = zip(
            *_cumulative(measure.density, measure.atoms)
        )

    def at(self, x: Rational) -> Fraction:
        x = frac(x)
        if x < 0:
            return ZERO
        i = bisect.bisect_right(self.cuts, x) - 1
        return self.value_at[i] + self.slopes[i] * (x - self.cuts[i])

    def slope_at(self, x: Rational) -> Fraction:
        """The slope of F just right of x: the density of mu there."""
        return self.slopes[bisect.bisect_right(self.cuts, frac(x)) - 1]

    def left_limit(self, x: Rational) -> Fraction:
        x = frac(x)
        if x <= 0:
            return ZERO
        i = bisect.bisect_left(self.cuts, x) - 1
        return self.value_at[i] + self.slopes[i] * (x - self.cuts[i])

    def mass_between(
        self, lo: Rational, hi: Rational, include_lo: bool = True, include_hi: bool = False
    ) -> Fraction:
        """Mass of the interval from lo to hi on the cut-open line."""
        if hi < lo:
            raise ValueError("need lo <= hi")
        if hi == lo and not (include_lo and include_hi):
            return ZERO
        upper = self.at(hi) if include_hi else self.left_limit(hi)
        return upper - (self.left_limit(lo) if include_lo else self.at(lo))

    def quantile(self, y: Rational) -> Fraction:
        """Smallest x with F(x) >= y (generalized inverse, for sampling)."""
        y = frac(y)
        if y <= 0:
            return ZERO
        i = bisect.bisect_left(self.value_at, y)
        if i >= len(self.cuts):
            return ONE
        if i > 0 and self.value_left[i] >= y:
            # the level is reached strictly inside (cuts[i-1], cuts[i]),
            # where F rises from value_at[i-1] < y, so the slope is positive
            return self.cuts[i - 1] + (y - self.value_at[i - 1]) / self.slopes[i - 1]
        return self.cuts[i]

    def rightmost_preimage(self, y: Rational) -> Fraction:
        """Largest x in [0, 1] with F(x) = y, for continuous (atom-free) F.

        Level sets of a continuous non-decreasing F are closed intervals;
        this returns their right endpoint exactly.
        """
        if self.measure.atoms:
            raise AtomicMeasure("rightmost preimage needs a continuous CDF")
        y = frac(y)
        v = self.value_at
        if y < 0 or y > v[-1]:
            raise ValueError(f"level {y} is not attained by this CDF")
        i = bisect.bisect_right(v, y) - 1
        if v[i] == y:
            return self.cuts[i]
        return self.cuts[i] + (y - v[i]) / self.slopes[i]


def pushforward(t, mu: Measure) -> Measure:
    """Exact image measure T#mu of an Itm or a PiecewiseMap.

    The density walks through the map's affine charts, each piece's weight
    divided by |a|, so every chart keeps its mass; a flat chart gathers the
    mass it covers into one atom at its value b, and the empty segment it
    leaves in the density is dropped by Measure.  Atoms move by the map's
    own evaluate, so boundary values apply.
    """
    moved = _walk(mu.density, t.affine_segments())
    atoms = [(lo, m) for lo, hi, m in moved if lo == hi]
    atoms += [(frac(t.evaluate(p)), m) for p, m in mu.atoms]
    return Measure(tuple(moved), tuple(atoms))


def _difference(mu: Measure, nu: Measure) -> tuple[tuple, tuple]:
    """The signed measure mu - nu as canonical (density, atoms)."""
    events = [e for lo, hi, w in mu.density for e in ((lo, w), (hi, -w))]
    events += [e for lo, hi, w in nu.density for e in ((lo, -w), (hi, w))]
    atoms = [*mu.atoms, *[(p, -m) for p, m in nu.atoms]]
    return _sweep(events), _add_neighbours(atoms)


def tv_distance(mu: Measure, nu: Measure) -> Fraction:
    """Exact total variation of mu - nu."""
    density, atoms = _difference(mu, nu)
    total = sum((abs(w) * (hi - lo) for lo, hi, w in density), ZERO)
    return total + sum((abs(m) for _, m in atoms), ZERO)


def invariance_residual_exact(t, mu: Measure) -> Fraction:
    """Exact ||T#mu - mu|| for an Itm or a PiecewiseMap; zero if and only
    if mu is T-invariant."""
    return tv_distance(pushforward(t, mu), mu)


def attractor_measure(s: Itm, attr: Optional[AttractorResult] = None) -> Measure:
    """Normalized Lebesgue measure on a stabilized attractor, verified exactly.

    It is invariant.  Let q be the map's common denominator.  Every cell
    [i/q, (i+1)/q) lies inside one piece and moves rigidly onto another
    cell, so S acts on the cells as a function f.  A stabilized attractor
    is A = f^m(C) = f^(m+1)(C) with C the set of all cells, so f maps the
    finite set A onto itself, hence bijectively, and S carries Lebesgue
    measure on A onto itself.

    The exact residual check can therefore fail only when attr is not the
    attractor of s; that raises ValueError.
    """
    if attr is None:
        attr = s.attractor()
    if attr.finite_type is not FiniteType.YES:
        raise NotFiniteType("attractor did not stabilize within budget")
    mu = Measure.uniform_on(attr.attractor)
    if invariance_residual_exact(s, mu) != 0:
        raise ValueError("attr is not the attractor of this map")
    return mu


def cdf_distance(mu: Measure, nu: Measure) -> Fraction:
    """sup over x of |F_mu(x) - F_nu(x)|, exact.

    Both measures must be probability measures.  F_mu - F_nu is the
    distribution function of mu - nu, linear between its cuts, so the sup
    is its largest value at a cut or just below one.
    """
    if mu.total_mass != 1 or nu.total_mass != 1:
        raise ValueError("cdf distance requires probability measures")
    rows = _cumulative(*_difference(mu, nu))
    return max(max(abs(left), abs(at)) for _, left, at, _ in rows)


def mass_near_points(
    mu: Measure,
    points: Iterable[Rational],
    delta: Rational,
    wrap: bool = True,
) -> list[Fraction]:
    """Exact mu((t - delta, t + delta)) per point.

    With wrap the neighbourhood lives on the circle; without it the
    interval is clipped to [0, 1], keeping boundary atoms that fall
    strictly inside the open neighbourhood.
    """
    delta = frac(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    cdf = mu.cdf()
    out = []
    for p in points:
        t = frac(p)
        if not wrap:
            lo, hi = t - delta, t + delta
            out.append(
                cdf.mass_between(
                    max(lo, ZERO),
                    min(hi, ONE),
                    include_lo=lo < 0,
                    include_hi=hi > 1,
                )
            )
            continue
        lo = (t - delta) % 1
        hi = (t + delta) % 1
        if delta > Fraction(1, 2):
            out.append(mu.total_mass)
        elif lo < hi:
            out.append(cdf.mass_between(lo, hi, include_lo=False, include_hi=False))
        else:
            total = cdf.mass_between(lo, ONE, include_lo=False, include_hi=True)
            total += cdf.mass_between(ZERO, hi, include_lo=True, include_hi=False)
            out.append(total)
    return out


@dataclass(frozen=True)
class Recurrence:
    """One sampled point with its first eps-return time, if any was found."""

    point: CirclePoint
    time: Optional[int]
    distance: Optional[Fraction]

    @property
    def found(self) -> bool:
        return self.time is not None


def find_recurrent_points(
    s: Itm,
    mu: Measure,
    eps: Rational,
    horizon: int,
    samples: int,
    rng=None,
) -> list[Recurrence]:
    """Search for eps-recurrence from points sampled across supp mu.

    Sample positions are CDF quantiles of mu (a density-weighted grid), or
    random quantile levels when an rng is supplied.  The orbit walk aborts
    early once it revisits a point without having come eps-close, since
    everything after that repeats.

    A sample x of denominator d never leaves the grid of multiples of 1/Q,
    Q = lcm(q, d) with q the map's common denominator, so its orbit is
    walked exactly as integers in [0, Q), through the map's charts on that
    grid.
    """
    eps = frac(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    cdf = mu.cdf()
    total = mu.total_mass
    levels = [
        (total * frac(rng.random()).limit_denominator(2**40))
        if rng is not None
        else total * Fraction(2 * i + 1, 2 * samples)
        for i in range(samples)
    ]
    q = s.common_denominator()
    out = []
    for y in levels:
        x = cdf.quantile(y) % 1
        Q = lcm(q, x.denominator)
        charts = _on_grid(s.affine_segments(), Q)
        starts = [lo for lo, *_ in charts]
        home = x.numerator * (Q // x.denominator)
        # d/Q < eps, cleared of denominators
        below = eps.numerator * Q
        time = distance = None
        cur = home
        visited = {cur}
        for m in range(1, horizon + 1):
            cur += charts[bisect.bisect_right(starts, cur) - 1][3]
            d = abs(cur - home)
            d = min(d, Q - d)
            if d * eps.denominator < below:
                time, distance = m, Fraction(d, Q)
                break
            if cur in visited:
                break
            visited.add(cur)
        out.append(Recurrence(CirclePoint(x), time, distance))
    return out
