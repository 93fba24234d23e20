"""Exact rational arithmetic on the circle R/Z and an algebra of half-open arcs.

Positions are arbitrary-precision rationals reduced into [0, 1).  Arcs are
half-open [start, start + length) and may wrap through 0.  An ArcSet is a
canonical finite union of arcs: two sets that are equal as point sets have
identical representations, so ``==`` decides set equality exactly.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Rational = Union[int, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x: Union[Rational, str, "CirclePoint"]) -> Fraction:
    """Coerce ints, 'p/q' / decimal strings, CirclePoints and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, CirclePoint):
        return x.value
    return Fraction(x)


def mod1(x: Union[Rational, str]) -> Fraction:
    """Reduce a rational to the fundamental domain [0, 1)."""
    return frac(x) % 1


@dataclass(frozen=True, order=True)
class CirclePoint:
    """A point of R/Z stored as an exact rational in [0, 1).

    Construction reduces mod 1, so ``CirclePoint(Fraction(5, 4)) ==
    CirclePoint(Fraction(1, 4))``.  Equality and ordering compare the
    reduced rational exactly.
    """

    value: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", mod1(self.value))

    def __add__(self, shift: Rational) -> "CirclePoint":
        return CirclePoint(self.value + frac(shift))

    __radd__ = __add__

    def __sub__(self, shift: Rational) -> "CirclePoint":
        return CirclePoint(self.value - frac(shift))

    def gap_to(self, other: "CirclePoint") -> Fraction:
        """Length of the forward arc from self to other (0 if equal)."""
        return (other.value - self.value) % 1

    def distance_to(self, other: "CirclePoint") -> Fraction:
        """Circle metric: length of the shorter arc between the points."""
        d = abs(self.value - other.value)
        return min(d, 1 - d)

    def __repr__(self) -> str:
        return f"CirclePoint({self.value})"


def circle_distance(x: Rational, y: Rational) -> Fraction:
    d = abs(mod1(x) - mod1(y))
    return min(d, 1 - d)


@dataclass(frozen=True)
class Arc:
    """Half-open arc [start, start + length), possibly wrapping through 0.

    length lies in (0, 1]; length 1 is the full circle.
    """

    start: CirclePoint
    length: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.start, CirclePoint):
            object.__setattr__(self, "start", CirclePoint(frac(self.start)))
        object.__setattr__(self, "length", frac(self.length))
        if not ZERO < self.length <= ONE:
            raise ValueError(f"arc length must be in (0, 1], got {self.length}")

    @property
    def end(self) -> CirclePoint:
        return self.start + self.length

    @property
    def wraps(self) -> bool:
        return self.start.value + self.length > ONE

    def contains(self, p: CirclePoint) -> bool:
        v = p.value
        s = self.start.value
        e = s + self.length
        if e <= ONE:
            return s <= v < e
        return v >= s or v < e - ONE

    def translate(self, c: Rational) -> "Arc":
        return Arc(self.start + frac(c), self.length)

    def segments(self) -> list[tuple[Fraction, Fraction]]:
        """The arc as intervals on the cut-open line [0, 1] (two if it wraps)."""
        s = self.start.value
        e = s + self.length
        if e <= ONE:
            return [(s, e)]
        return [(s, ONE), (ZERO, e - ONE)]

    def __repr__(self) -> str:
        return f"Arc({self.start.value}, len={self.length})"


Segment = tuple[Fraction, Fraction]


def merge_segments(raw: Iterable[Segment]) -> list[Segment]:
    """Sort intervals on the cut line and merge overlapping or adjacent ones."""
    segs = sorted((lo, hi) for lo, hi in raw if hi > lo)
    merged: list[Segment] = []
    for lo, hi in segs:
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def segments_within(inner: list[Segment], outer: list[Segment]) -> bool:
    """Whether every segment of inner lies in one segment of outer.

    Both lists must be merged, as merge_segments leaves them; one walk
    over the two decides it.
    """
    j = 0
    for lo, hi in inner:
        while j < len(outer) and outer[j][1] < hi:
            j += 1
        if j >= len(outer) or not (outer[j][0] <= lo and hi <= outer[j][1]):
            return False
    return True


def _segments_to_arcs(segs: list[Segment]) -> tuple[Arc, ...]:
    """Canonical arc tuple from disjoint, merged cut-line segments.

    Segments touching both 0 and 1 are rejoined into a single wrapping arc;
    a lone (0, 1) segment becomes the full circle.
    """
    if not segs:
        return ()
    if len(segs) == 1 and segs[0] == (ZERO, ONE):
        return (Arc(CirclePoint(ZERO), ONE),)
    if len(segs) >= 2 and segs[0][0] == ZERO and segs[-1][1] == ONE:
        first, last = segs[0], segs[-1]
        wrap = Arc(CirclePoint(last[0]), (ONE - last[0]) + first[1])
        inner = [Arc(CirclePoint(lo), hi - lo) for lo, hi in segs[1:-1]]
        return tuple(inner + [wrap])
    return tuple(Arc(CirclePoint(lo), hi - lo) for lo, hi in segs)


class ArcSet:
    """Canonical finite union of half-open arcs on the circle.

    The constructor accepts arcs in any state (overlapping, adjacent,
    wrapping, unsorted) and normalizes them.  Canonical form: arcs pairwise
    disjoint, non-adjacent, sorted by start, at most one arc wrapping
    through 0 (stored last), full circle as the single arc [0, 1).
    """

    __slots__ = ("arcs", "total_length", "_starts")

    arcs: tuple[Arc, ...]
    total_length: Fraction

    def __init__(self, arcs: Iterable[Arc] = ()):
        segs: list[Segment] = []
        for a in arcs:
            segs.extend(a.segments())
        self._canonicalize(merge_segments(segs))

    def _canonicalize(self, merged: list[Segment]) -> None:
        # merged: sorted, disjoint, non-adjacent segments on the cut line
        canonical = _segments_to_arcs(merged)
        object.__setattr__(self, "arcs", canonical)
        object.__setattr__(
            self, "total_length", sum((a.length for a in canonical), ZERO)
        )
        object.__setattr__(self, "_starts", tuple(a.start.value for a in canonical))

    def __setattr__(self, name, value):
        raise AttributeError("ArcSet is immutable")

    @classmethod
    def from_segments(cls, segs: Iterable[Segment]) -> "ArcSet":
        out = cls.__new__(cls)
        out._canonicalize(merge_segments(segs))
        return out

    @classmethod
    def _from_runs(cls, runs: list[tuple[int, int]], q: int) -> "ArcSet":
        """The union of the segments [a/q, b/q) for the int runs (a, b).

        The runs must already be merged, as merge_segments leaves them, so
        no sort is needed.
        """
        out = cls.__new__(cls)
        out._canonicalize([(Fraction(a, q), Fraction(b, q)) for a, b in runs])
        return out

    @classmethod
    def full(cls) -> "ArcSet":
        return cls([Arc(CirclePoint(ZERO), ONE)])

    @classmethod
    def empty(cls) -> "ArcSet":
        return cls(())

    def segments(self) -> list[Segment]:
        """Disjoint intervals on the cut-open line [0, 1], sorted."""
        segs: list[Segment] = []
        for a in self.arcs:
            segs.extend(a.segments())
        segs.sort()
        return segs

    # -- set algebra ------------------------------------------------------

    def intersect(self, other: "ArcSet") -> "ArcSet":
        a, b = self.segments(), other.segments()
        out: list[Segment] = []
        i = j = 0
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if hi > lo:
                out.append((lo, hi))
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        return ArcSet.from_segments(out)

    def union(self, other: "ArcSet") -> "ArcSet":
        return ArcSet(self.arcs + other.arcs)

    def complement(self) -> "ArcSet":
        out: list[Segment] = []
        cursor = ZERO
        for lo, hi in self.segments():
            if lo > cursor:
                out.append((cursor, lo))
            cursor = hi
        if cursor < ONE:
            out.append((cursor, ONE))
        return ArcSet.from_segments(out)

    def difference(self, other: "ArcSet") -> "ArcSet":
        return self.intersect(other.complement())

    def translate(self, c: Rational) -> "ArcSet":
        return ArcSet([a.translate(c) for a in self.arcs])

    def contains(self, p: CirclePoint) -> bool:
        if not self.arcs:
            return False
        i = bisect.bisect_right(self._starts, p.value) - 1
        if i >= 0 and self.arcs[i].contains(p):
            return True
        return self.arcs[-1].wraps and self.arcs[-1].contains(p)

    def is_subset_of(self, other: "ArcSet") -> bool:
        return segments_within(self.segments(), other.segments())

    # -- dunder sugar -----------------------------------------------------

    def __and__(self, other: "ArcSet") -> "ArcSet":
        return self.intersect(other)

    def __or__(self, other: "ArcSet") -> "ArcSet":
        return self.union(other)

    def __invert__(self) -> "ArcSet":
        return self.complement()

    def __sub__(self, other: "ArcSet") -> "ArcSet":
        return self.difference(other)

    def __contains__(self, p: CirclePoint) -> bool:
        return self.contains(p)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ArcSet) and self.arcs == other.arcs

    def __hash__(self) -> int:
        return hash(self.arcs)

    def __bool__(self) -> bool:
        return bool(self.arcs)

    def __len__(self) -> int:
        return len(self.arcs)

    def __iter__(self):
        return iter(self.arcs)

    def __repr__(self) -> str:
        inner = ", ".join(f"[{a.start.value},+{a.length})" for a in self.arcs)
        return f"ArcSet({inner})"


def arc(start: Union[Rational, str], length: Union[Rational, str]) -> Arc:
    """Shorthand arc constructor from raw rationals."""
    return Arc(CirclePoint(frac(start)), frac(length))


def arcset(*pairs: tuple) -> ArcSet:
    """Shorthand: ``arcset((0, '1/2'), ('3/4', '1/8'))``."""
    return ArcSet([arc(s, l) for s, l in pairs])
