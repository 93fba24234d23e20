"""Piecewise continuous maps of the segment or circle and empirical measures.

Pieces are affine with exact rational coefficients.  Boundary values
may override the piece formula at finitely many points, which is how a
map like x -> x/2 with the reset value 1 at 0 is encoded.
The discontinuity set contains the piece edges where the one-sided
values genuinely differ, so a rotation split into two affine charts has
none.  Orbits, visit frequencies of discontinuity neighbourhoods, the
Birkhoff empirical measure with its exact pushforward defect, and a
sampled wandering check for discontinuity points all live here.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence, Union

from itmlib.circle import ONE, ZERO, Rational, _affine_charts, circle_distance, frac
from itmlib.itm import Itm
from itmlib.measure import Measure, tv_distance

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
        return v % 1 if self.domain is Domain.CIRCLE else v

    def _piece_at(self, x: Fraction) -> AffinePiece:
        idx = bisect.bisect_right(self._starts, x) - 1
        return self.pieces[idx]

    def _formula_value(self, x: Fraction) -> Fraction:
        return self._reduce(self._piece_at(x).value(x))

    def _one_sided_values(self, e: Fraction) -> tuple[Optional[Fraction], Fraction]:
        """(left limit, right value) at an edge, None when x=0 on the segment."""
        right = self._formula_value(e)
        if e == 0:
            if self.domain is Domain.SEGMENT:
                return None, right
            return self._reduce(self.pieces[-1].value(ONE)), right
        idx = bisect.bisect_right(self._starts, e) - 1
        prev = self.pieces[idx - 1] if self._starts[idx] == e else self.pieces[idx]
        return self._reduce(prev.value(e)), right

    def _genuine_jumps(self) -> tuple[Fraction, ...]:
        points = {p.lo for p in self.pieces} | set(self._overrides)
        if self.domain is Domain.SEGMENT:
            points.discard(ZERO)
            points |= set(self._overrides)
        jumps = []
        for e in sorted(points):
            left, right = self._one_sided_values(e)
            value = self._overrides.get(e, right)
            if left is None:
                if value != right:
                    jumps.append(e)
                continue
            if left != right or value != right:
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
        discontinuities=(
            tuple(sorted(frac(p) for p in discontinuities))
            if discontinuities is not None
            else None
        ),
    )


def orbit(t: PiecewiseMap, x0: Rational, m: int) -> tuple[Fraction, ...]:
    """Exact forward orbit (x0, T(x0), ..., T^{m-1}(x0)).

    Every returned point must avoid the discontinuity set, else
    HitDiscontinuity names the offending step.
    """
    if m < 1:
        raise ValueError("orbit length must be positive")
    h = t.discontinuities
    x = t._reduce(frac(x0))
    points = []
    for step in range(m):
        if h and x in h:
            raise HitDiscontinuity(x, step)
        points.append(x)
        if step + 1 < m:
            x = t.evaluate(x)
    return tuple(points)


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
    if isinstance(ms, int):
        ms = (ms,)
    ms = sorted(int(m) for m in ms)
    if not ms or ms[0] < 1:
        raise ValueError("orbit lengths must be positive")
    epsilons = sorted((frac(e) for e in epsilons), reverse=True)
    if not epsilons or epsilons[-1] <= 0:
        raise ValueError("epsilons must be positive")
    h = t.discontinuities
    if not h:
        raise ValueError("the map has no discontinuity points to visit")
    x0 = frac(x0)
    points = orbit(t, x0, ms[-1] + 1)
    entries = []
    dists = [t.distance_to(p, h) for p in points[1:]]
    for m in ms:
        for eps in epsilons:
            count = sum(1 for d in dists[:m] if d < eps)
            entries.append(VisitFrequencyEntry(m=m, eps=eps, count=count))
    return VisitFrequencyTable(base_point=x0, entries=tuple(entries))


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniform atoms on the first m orbit points, with the exact defect.

    next_point is T^m(x0); the pushforward moves 1/m of mass from the
    base point to it, so the defect in total variation is 2/m exactly
    unless the orbit closed up.
    """

    base_point: Fraction
    points: tuple[Fraction, ...]
    next_point: Fraction
    measure: Measure

    @property
    def m(self) -> int:
        return len(self.points)

    @property
    def defect(self) -> Fraction:
        if self.next_point == self.base_point:
            return ZERO
        return Fraction(2, self.m)

    def pushforward_measure(self) -> Measure:
        """Atoms moved one step: the empirical measure of (T x0, ..., T^m x0)."""
        weight = Fraction(1, self.m)
        return Measure(
            (), [(p, weight) for p in self.points[1:] + (self.next_point,)]
        )

    def verify_defect(self) -> bool:
        """Check T#mu - mu = (delta(T^m x0) - delta(x0)) / m exactly."""
        pushed = self.pushforward_measure()
        weight = Fraction(1, self.m)
        expected = self.measure.add(
            Measure((), [(self.next_point, weight)])
        )
        actual = pushed.add(Measure((), [(self.base_point, weight)]))
        return expected == actual and tv_distance(pushed, self.measure) == self.defect


def empirical_measure(t: PiecewiseMap, x0: Rational, m: int) -> EmpiricalMeasure:
    """The Birkhoff empirical measure of the length-m orbit from x0."""
    points = orbit(t, x0, m)
    next_point = t.evaluate(points[-1])
    weight = Fraction(1, m)
    mu = Measure((), [(p, weight) for p in points])
    return EmpiricalMeasure(
        base_point=points[0], points=points, next_point=next_point, measure=mu
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
                    if t.domain is Domain.CIRCLE:
                        start = start % 1
                    elif not 0 <= start <= 1:
                        continue
                    try:
                        pts = orbit(t, start, horizon + 1)
                    except HitDiscontinuity:
                        continue
                    hit = next(
                        (
                            step
                            for step, p in enumerate(pts[1:], start=1)
                            if t.distance_to(p, (h,)) < r
                        ),
                        None,
                    )
                    if hit is not None:
                        found, witness, when = True, t._reduce(start), hit
                        break
                if found:
                    break
            probes.append(
                WanderingProbe(
                    point=h, radius=r, found=found, witness=witness, return_time=when
                )
            )
    return tuple(probes)
