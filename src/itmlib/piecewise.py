"""Piecewise continuous maps of the segment or circle and empirical measures.

Pieces are affine with exact rational coefficients.  Boundary values
may override the piece formula at finitely many points, which is how a
map like x -> x/2 with the reset value 1 at 0 is encoded.
The discontinuity set contains the piece edges where the one-sided
values genuinely differ, so a rotation split into two affine charts has
none.  Orbits, visit frequencies of discontinuity neighbourhoods, the
Birkhoff empirical measure with its exact pushforward defect, and a
sampled wandering check for discontinuity points all live here.

An orbit is walked only until it revisits a point.  T is a function, so
once x_n equals an earlier x_i the orbit repeats the cycle x_i, ...,
x_{n-1} forever.  A slope-1 map with rational shifts, such as every
`from_itm` map, keeps the orbit of a rational x0 inside x0 + (1/q)Z mod
1, so it closes within q steps however long the orbit asked for; the
walk finds the repeat by Brent's cycle finding within 3q steps.  Orbit
tails, empirical weights and visit counts follow from the cycle.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from numbers import Number
from typing import NamedTuple, Optional, Sequence, Union

from itmlib.circle import ONE, ZERO, Rational, _integer, circle_distance, frac, mod1
from itmlib.circle import _affine_charts, _chart_table
from itmlib.itm import Itm
from itmlib.measure import Measure, _add_neighbours

VERDICT_RATIO = Fraction(1, 2)


class Domain(Enum):
    CIRCLE = "circle"
    SEGMENT = "segment"


class HitDiscontinuity(RuntimeError):
    """An orbit point landed exactly on the discontinuity set."""

    def __init__(self, point, step: int):
        super().__init__(f"orbit hit the discontinuity set at step {step}: {point}")
        self.point = point
        self.step = step


@dataclass(frozen=True)
class AffinePiece:
    """x -> a*x + b on [lo, hi), exact; reduced mod 1 on the circle."""

    lo: Fraction
    hi: Fraction
    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        for name in ("lo", "hi", "a", "b"):
            object.__setattr__(self, name, frac(getattr(self, name)))
        if not self.lo < self.hi:
            raise ValueError("piece interval is empty")

    def value(self, x: Fraction) -> Fraction:
        return self.a * x + self.b


@dataclass(frozen=True)
class PiecewiseMap:
    """A piecewise continuous self-map of [0, 1] or of the circle.

    pieces must partition [0, 1) contiguously from 0.  On the segment the
    final piece also covers x = 1 and affine values are required to stay
    inside [0, 1]; on the circle values are reduced mod 1.
    boundary_values override the formula at single points.  The
    discontinuity list defaults to the genuine jumps: piece edges and
    override points where the two one-sided values differ.
    """

    domain: Domain
    pieces: tuple[AffinePiece, ...]
    boundary_values: tuple[tuple[Fraction, Fraction], ...] = ()
    discontinuities: Optional[tuple[Fraction, ...]] = None
    _starts: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)
    _overrides: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "domain", Domain(self.domain))
        pieces = tuple(self.pieces)
        if not pieces:
            raise ValueError("at least one piece required")
        for piece in pieces:
            if not isinstance(piece, AffinePiece):
                raise TypeError(f"not an AffinePiece: {piece!r}")
        if pieces[0].lo != 0 or pieces[-1].hi != 1:
            raise ValueError("pieces must cover [0, 1)")
        for left, right in zip(pieces, pieces[1:]):
            if left.hi != right.lo:
                raise ValueError("pieces must be contiguous")
        object.__setattr__(self, "pieces", pieces)

        bvs = tuple(
            (frac(p), frac(v)) for p, v in self.boundary_values
        )
        for p, v in bvs:
            self._check_point(p, "boundary point")
            self._check_point(v, "boundary value")
        object.__setattr__(self, "boundary_values", tuple(sorted(bvs)))
        object.__setattr__(self, "_overrides", dict(self.boundary_values))
        if len(self._overrides) != len(bvs):
            raise ValueError("duplicate boundary points")

        if self.domain is Domain.SEGMENT:
            for piece in pieces:
                for x in (piece.lo, piece.hi):
                    v = piece.value(x)
                    if not 0 <= v <= 1:
                        raise ValueError(f"affine piece leaves [0, 1] at {x}: {v}")

        object.__setattr__(self, "_starts", tuple(p.lo for p in pieces))
        if self.discontinuities is None:
            object.__setattr__(self, "discontinuities", self._genuine_jumps())
        else:
            pts = tuple(sorted(frac(p) for p in self.discontinuities))
            for p in pts:
                self._check_point(p, "discontinuity point")
            object.__setattr__(self, "discontinuities", pts)

    def _check_point(self, p: Fraction, what: str) -> None:
        inside = 0 <= p <= 1 if self.domain is Domain.SEGMENT else 0 <= p < 1
        if not inside:
            raise ValueError(f"{what} outside the domain: {p}")

    def _reduce(self, v: Fraction) -> Fraction:
        return mod1(v) if self.domain is Domain.CIRCLE else v

    def _piece_at(self, x: Fraction) -> AffinePiece:
        idx = bisect.bisect_right(self._starts, x) - 1
        return self.pieces[idx]

    def _formula_value(self, x: Fraction) -> Fraction:
        return self._reduce(self._piece_at(x).value(x))

    def _one_sided_values(self, e: Fraction) -> tuple[Optional[Fraction], Fraction]:
        """(left limit, right value) at an edge, None when x=0 on the segment."""
        right = self._formula_value(e)
        if e == 0 and self.domain is Domain.SEGMENT:
            return None, right
        # the last piece starting below e; below 0 on the circle that is the
        # last piece, read at its end 1
        prev = self.pieces[bisect.bisect_left(self._starts, e) - 1]
        return self._reduce(prev.value(e if e else ONE)), right

    def _genuine_jumps(self) -> tuple[Fraction, ...]:
        edges = {p.lo for p in self.pieces}
        if self.domain is Domain.SEGMENT:
            edges.discard(ZERO)  # the segment has no left limit at 0
        jumps = []
        for e in sorted(edges | set(self._overrides)):
            left, right = self._one_sided_values(e)
            if self._overrides.get(e, right) != right or left not in (None, right):
                jumps.append(e)
        return tuple(jumps)

    def evaluate(self, x: Rational) -> Fraction:
        """Exact value at x, honouring boundary overrides."""
        x = self._reduce(frac(x))
        if self.domain is Domain.SEGMENT and not 0 <= x <= 1:
            raise ValueError(f"point outside the segment: {x}")
        if x in self._overrides:
            return self._overrides[x]
        return self._formula_value(x)

    def distance_to(self, x: Fraction, points: Sequence[Fraction]) -> Fraction:
        """Distance from x to a point set in the domain metric."""
        if self.domain is Domain.CIRCLE:
            return min(circle_distance(x, p) for p in points)
        return min(abs(frac(x) - frac(p)) for p in points)

    def affine_segments(self) -> list[tuple[Fraction, Fraction, Fraction, Fraction]]:
        """Charts (lo, hi, a, b) with a*x + b inside [0, 1] on each.

        Segment pieces are their own charts.  Circle pieces are cut where
        a*x + b crosses an integer and each part is shifted back.
        """
        pieces = [(p.lo, p.hi, p.a, p.b) for p in self.pieces]
        if self.domain is Domain.SEGMENT:
            return pieces
        return _affine_charts(pieces)

    @cached_property
    def _table(self) -> tuple:
        """The charts on integers, built once: circle._chart_table."""
        return _chart_table(self.affine_segments())

    def discontinuity_points(self) -> tuple[Fraction, ...]:
        return self.discontinuities


def from_itm(s: Itm, discontinuities: Optional[Sequence[Rational]] = None) -> PiecewiseMap:
    """The same circle map as affine pieces cut at 0.

    The default discontinuity set keeps only the genuine jumps, so a
    rotation comes out continuous; pass explicit points to study formal
    breakpoints as well.
    """
    pieces = tuple(
        AffinePiece(lo, hi, a, b) for lo, hi, a, b in s.affine_segments()
    )
    return PiecewiseMap(
        domain=Domain.CIRCLE,
        pieces=pieces,
        discontinuities=discontinuities,
    )


class _Walk(NamedTuple):
    """The points x_0, ..., x_{n-1} of an orbit, and where its cycle starts.

    When the orbit closed, points are its distinct points and start is the
    index i with x_n = x_i, so x_k = x_{k + period} for every k >= i with
    period = n - i.  start is None when the walk reached its length before
    it found a repeat; points are then the whole orbit.
    """

    points: list[Fraction]
    start: Optional[int]

    def unroll(self, m: int) -> list[Fraction]:
        """(x_0, ..., x_{m-1}): the cycle repeated after the distinct points."""
        if self.start is None:
            return self.points
        cycle = self.points[self.start:]
        reps, rest = divmod(m - len(self.points), len(cycle))
        return self.points + cycle * reps + cycle[:rest]

    def visits(self, length: int) -> list[int]:
        """How often each entry of points recurs among x_0, ..., x_{length-1}."""
        i = len(self.points) if self.start is None else self.start
        period = len(self.points) - i
        return [
            0 if j >= length else 1 if j < i else (length - 1 - j) // period + 1
            for j in range(len(self.points))
        ]


def _walk(t: PiecewiseMap, x0: Rational, m: int) -> _Walk:
    """Walk the length-m orbit from x0 until it finds a repeated point.

    Brent's cycle finding: each point is compared with the one saved at
    the last step 2^j - 1.  The first match comes exactly one period after
    that step, and the walk stops there, within 3n steps for an orbit of
    n distinct points.  It only tests points for equality: the hash of a
    Fraction takes one of 61 values on the powers of 1/2, so a dict of
    the halving map's orbit fills quadratically.  Every point is tested
    against the discontinuity set on its first visit; a revisited point
    already passed that test.
    """
    if m < 1:
        raise ValueError("orbit length must be positive")
    h = t.discontinuities
    x = t._reduce(frac(x0))
    points: list[Fraction] = []
    saved = 0
    for step in range(m):
        if points and x == points[saved]:
            points.append(x)
            period = step - saved
            i = next(i for i in range(saved + 1) if points[i] == points[i + period])
            return _Walk(points[: i + period], i)
        if h and x in h:
            raise HitDiscontinuity(x, step)
        points.append(x)
        if step & (step + 1) == 0:
            saved = step
        if step + 1 < m:
            x = t.evaluate(x)
    return _Walk(points, None)


def orbit(t: PiecewiseMap, x0: Rational, m: int) -> tuple[Fraction, ...]:
    """Exact forward orbit (x0, T(x0), ..., T^{m-1}(x0)).

    The walk stops once it finds a repeated point and fills the rest of
    the orbit by repeating the cycle, so a rational orbit of a slope-1 map
    costs at most 3q evaluations for any m.  Every returned point must
    avoid the discontinuity set, else HitDiscontinuity names the
    offending step.
    """
    return tuple(_walk(t, x0, m).unroll(m))


@dataclass(frozen=True)
class VisitFrequencyEntry:
    m: int
    eps: Fraction
    count: int

    @property
    def frequency(self) -> Fraction:
        return Fraction(self.count, self.m)


class Verdict(Enum):
    PLAUSIBLE = "plausible"
    VIOLATED = "violated"


@dataclass(frozen=True)
class VisitFrequencyTable:
    """f(eps, m) = #{1 <= k <= m : T^k(x0) within eps of H} / m.

    The verdict is a trend heuristic on the largest tested m: plausible
    when the frequency at the smallest eps has dropped to at most half
    of the one at the largest eps, violated otherwise.  It never decides
    the underlying limsup condition.
    """

    base_point: Fraction
    entries: tuple[VisitFrequencyEntry, ...]

    def frequency(self, eps: Rational, m: int) -> Fraction:
        eps = frac(eps)
        for e in self.entries:
            if e.eps == eps and e.m == m:
                return e.frequency
        raise KeyError((eps, m))

    @property
    def verdict(self) -> Verdict:
        largest_m = max(e.m for e in self.entries)
        row = sorted(
            (e for e in self.entries if e.m == largest_m), key=lambda e: e.eps
        )
        f_small, f_large = row[0].frequency, row[-1].frequency
        if f_large == 0 or f_small <= VERDICT_RATIO * f_large:
            return Verdict.PLAUSIBLE
        return Verdict.VIOLATED


def visit_frequency(
    t: PiecewiseMap,
    x0: Rational,
    ms: Union[int, Sequence[int]],
    epsilons: Sequence[Rational],
) -> VisitFrequencyTable:
    """Exact visit counts of discontinuity neighbourhoods along the orbit."""
    return _visit_frequency(t, x0, ms, epsilons, None)


def _visit_frequency(
    t: PiecewiseMap,
    x0: Rational,
    ms: Union[int, Sequence[int]],
    epsilons: Sequence[Rational],
    walk: Optional[_Walk],
) -> VisitFrequencyTable:
    """``visit_frequency``, counted on a walk of x0's orbit when one is given
    that covers the longest orbit asked for (a closed walk, or one of that
    many points), so that ``cli empirical`` walks its orbit once.

    Each distinct point's distance to H is read from its neighbours in the
    sorted H, found by bisection: on the circle the two points of H on
    either side, the last and the first for a point outside [h_0, h_{n-1}].
    """
    if isinstance(ms, Number):  # one orbit length, checked as the others are
        ms = (ms,)
    ms = sorted(_integer(m, "ms") for m in ms)
    if not ms or ms[0] < 1:
        raise ValueError("orbit lengths must be positive")
    epsilons = sorted((frac(e) for e in epsilons), reverse=True)
    if not epsilons or epsilons[-1] <= 0:
        raise ValueError("epsilons must be positive")
    h = t.discontinuities
    if not h:
        raise ValueError("the map has no discontinuity points to visit")
    x0 = frac(x0)
    if walk is None or (walk.start is None and len(walk.points) <= ms[-1]):
        walk = _walk(t, x0, ms[-1] + 1)
    circle, n = t.domain is Domain.CIRCLE, len(h)
    dists = []
    for p in walk.points:
        i = bisect.bisect_left(h, p)
        if circle:
            dists.append(min(circle_distance(p, h[i - 1]), circle_distance(p, h[i % n])))
        else:
            dists.append(min(abs(p - h[j]) for j in (i - 1, i) if 0 <= j < n))
    entries = []
    for m in ms:
        visits = walk.visits(m + 1)
        visits[0] -= 1  # the count starts at T(x0)
        for eps in epsilons:
            count = sum(v for v, d in zip(visits, dists) if d < eps)
            entries.append(VisitFrequencyEntry(m=m, eps=eps, count=count))
    return VisitFrequencyTable(base_point=x0, entries=tuple(entries))


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniform atoms on the first m orbit points, with the exact defect.

    next_point is T^m(x0) and map is T.  The pushforward moves 1/m of
    mass from the base point to next_point, so the defect in total
    variation is 2/m exactly unless the orbit closed up.  An orbit that
    revisits a point repeats its cycle, so measure holds one atom per
    distinct point, weighted by its visit count.  _orbit keeps the walk
    that found them, for the visit counts of ``cli empirical``.
    """

    base_point: Fraction
    points: tuple[Fraction, ...]
    next_point: Fraction
    measure: Measure
    map: PiecewiseMap
    _orbit: Optional[_Walk] = field(default=None, repr=False, compare=False)

    @property
    def m(self) -> int:
        return len(self.points)

    @property
    def defect(self) -> Fraction:
        if self.next_point == self.base_point:
            return ZERO
        return Fraction(2, self.m)

    def verify_defect(self) -> bool:
        """Check T#mu - mu = (delta(T^m x0) - delta(x0)) / m exactly.

        T#mu applies the map to the atoms, met on a walk from x0 that must
        reach every atom, and mu must be a probability measure without a
        density; the atoms of T#mu and those of mu negated must then sum to
        those two atoms, or to nothing when the orbit closed.  Two
        solutions of the identity differ by a T-invariant signed measure.
        On the forward orbit of x0 that is a multiple of the uniform
        measure on its cycle, and total mass 1 makes the multiple 0.  So
        the check holds for the empirical measure of x0's orbit under T,
        with next_point = T^m(x0), and for no other measure or next_point.
        """
        positions = [p for p, _ in self.measure.atoms]

        def index(x: Fraction) -> Optional[int]:
            j = bisect.bisect_left(positions, x)
            return j if j < len(positions) and positions[j] == x else None

        images: list[Optional[Fraction]] = [None] * len(positions)
        reached, x = 0, self.base_point
        j = index(x)
        while j is not None and images[j] is None:
            x = images[j] = self.map.evaluate(x)
            reached += 1
            j = index(x)
        if reached < len(images) or self.measure.density or not self.measure.is_probability:
            return False
        weight = Fraction(1, self.m)
        moved = sorted([(self.base_point, -weight), (self.next_point, weight)])
        expected = () if self.defect == 0 else tuple(moved)
        pushed = [(q, w) for q, (_, w) in zip(images, self.measure.atoms)]
        return _add_neighbours(pushed + [(p, -w) for p, w in self.measure.atoms]) == expected


def empirical_measure(t: PiecewiseMap, x0: Rational, m: int) -> EmpiricalMeasure:
    """The Birkhoff empirical measure of the length-m orbit from x0.

    Each pre-period point has mass 1/m; a cycle point visited c times
    among the m orbit points has mass c/m.
    """
    walk = _walk(t, x0, m)
    if walk.start is None:
        next_point = t.evaluate(walk.points[-1])
    else:
        cycle = walk.points[walk.start:]
        next_point = cycle[(m - walk.start) % len(cycle)]
    mu = Measure(
        (),
        [(p, Fraction(c, m)) for p, c in zip(walk.points, walk.visits(m))],
    )
    return EmpiricalMeasure(
        base_point=walk.points[0],
        points=tuple(walk.unroll(m)),
        next_point=next_point,
        measure=mu,
        map=t,
        _orbit=walk,
    )


@dataclass(frozen=True)
class WanderingProbe:
    """One discontinuity point probed at one radius."""

    point: Fraction
    radius: Fraction
    found: bool
    witness: Optional[Fraction]
    return_time: Optional[int]

    @property
    def verdict(self) -> str:
        return "return found" if self.found else "no return within budget"


def wandering_discontinuity_check(
    t: PiecewiseMap,
    radii: Sequence[Rational],
    horizon: int,
    points: Optional[Sequence[Rational]] = None,
    samples: int = 8,
) -> tuple[WanderingProbe, ...]:
    """Sampled search for returns to neighbourhoods of discontinuity points.

    For each point h and radius r, up to `samples` starts on either side
    of h inside the radius are iterated for `horizon` steps, looking for
    a return within distance r of h.  Finding one is nonwandering
    evidence; finding none is wandering evidence, not proof.  Starts
    that sit on the discontinuity set or whose orbit hits it are
    skipped.
    """
    if horizon < 1:
        raise ValueError("horizon must be positive")
    if points is None:
        points = t.discontinuities
    probes = []
    for h in (frac(p) for p in points):
        for r in (frac(rr) for rr in radii):
            if r <= 0:
                raise ValueError("radii must be positive")
            found = False
            witness = None
            when = None
            for k in range(1, samples + 1):
                offset = r * k / (samples + 1)
                for start in (h + offset, h - offset):
                    start = t._reduce(start)
                    if not 0 <= start <= 1:
                        continue
                    try:
                        walk = _walk(t, start, horizon + 1)
                    except HitDiscontinuity:
                        continue
                    # Steps 1..n-1 visit the distinct points after x0 and
                    # step n revisits x_start; later steps repeat the cycle.
                    pts = walk.points
                    returns = pts[1:] + pts[:1] if walk.start == 0 else pts[1:]
                    hit = next(
                        (
                            step
                            for step, p in enumerate(returns, start=1)
                            if t.distance_to(p, (h,)) < r
                        ),
                        None,
                    )
                    if hit is not None:
                        found, witness, when = True, start, hit
                        break
                if found:
                    break
            probes.append(
                WanderingProbe(
                    point=h, radius=r, found=found, witness=witness, return_time=when
                )
            )
    return tuple(probes)
