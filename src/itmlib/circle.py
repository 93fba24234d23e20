"""Exact rational arithmetic on the circle R/Z and an algebra of half-open arcs.

Positions are arbitrary-precision rationals reduced into [0, 1).  Arcs are
half-open [start, start + length) and may wrap through 0.  An ArcSet is a
finite union of arcs stored as its merged runs [a, b) of cells of width
1/q on the line [0, q] cut open at 0, for a common denominator q of its
ends.  Two sets meet on the grid lcm(q, q'), so set operations are integer
arithmetic, and ``==`` decides set equality exactly across grids.

Maps move runs through integer chart tables: _rigid_table builds one from
the breakpoints and shifts of a map that translates pieces mod 1, and
_chart_table one from rational charts of any slope, such as _affine_charts
builds for affine pieces read mod 1.  _walk carries sorted, disjoint runs of
cells through a table chart by chart, for sets and measure densities alike:
images, preimages, translates and pushforwards move through it, on tables
whose charts may overlap, leave gaps, carry weights or have any slope.  The
attractor (Itm.attractor) steps no whole iterate: since a map's rigid table
tiles [0, q) with slope 1, it moves only the hole each step opens, cuts
that out of one run list in place, counts arcs with _joins_at_zero and
wraps an iterate's runs, when one is read, with _set_of_runs; _arc_runs
lists a set's runs in the order of its arcs, for the attractor's chart.  With
Arc.segments, these are the only code that knows how a set meets the cut
at 0.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, lcm
from operator import itemgetter
from typing import Any, Iterable, Sequence, Union

Rational = Union[int, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)
_START, _END = itemgetter(0), itemgetter(1)


def frac(x: Union[Rational, str, "CirclePoint"]) -> Fraction:
    """Coerce ints, 'p/q' / decimal strings, CirclePoints and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, CirclePoint):
        return x.value
    return Fraction(x)


def mod1(x: Union[Rational, str]) -> Fraction:
    """Reduce a rational to the fundamental domain [0, 1); one already in it is kept."""
    v = frac(x)
    return v if 0 <= v.numerator < v.denominator else v % 1


def _integer(v: Any, key: str = "") -> int:
    """A count taken from a caller or from JSON as an int: an int, or a
    decimal string such as a flag's value.

    Bools, floats and other strings are refused with a ValueError that
    names the key when one is given, so no count is truncated.
    """
    if isinstance(v, (int, str)) and not isinstance(v, bool):
        try:
            return int(v)
        except ValueError:
            pass
    named = f"'{key}' " if key else ""
    raise ValueError(f"{named}must be an integer: {v!r}")


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
        return circle_distance(self.value, other.value)

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
        object.__setattr__(self, "start", CirclePoint(self.start))
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
        return any(lo <= p.value < hi for lo, hi in self.segments())

    def translate(self, c: Rational) -> "Arc":
        return Arc(self.start + c, self.length)

    def segments(self) -> list[tuple[Fraction, Fraction]]:
        """The arc as intervals on the cut-open line [0, 1] (two if it wraps)."""
        s = self.start.value
        if self.wraps:
            return [(s, ONE), (ZERO, s + self.length - ONE)]
        return [(s, s + self.length)]

    def __repr__(self) -> str:
        return f"Arc({self.start.value}, len={self.length})"


Segment = tuple[Fraction, Fraction]


def merge_segments(raw: Iterable[Segment]) -> list[Segment]:
    """Sort intervals on the cut line and merge overlapping or adjacent ones."""
    segs = [seg for seg in raw if seg[1] > seg[0]]
    segs.sort()
    merged: list[Segment] = []
    for lo, hi in segs:
        if merged and lo <= top:
            if hi > top:
                top = hi
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
            top = hi
    return merged


def _affine_charts(pieces: Iterable[tuple]) -> list[tuple]:
    """Charts (lo, hi, a, b) of affine pieces x -> a*x + b on [lo, hi), read mod 1.

    Each piece is cut where a*x + b crosses an integer and each part is
    shifted back by its integer, so every chart maps into [0, 1].  The
    charts come back sorted by lo.
    """
    out = []
    for lo, hi, a, b in pieces:
        first, last = sorted((a * lo + b, a * hi + b))
        crossings = [(k - b) / a for k in range(floor(first) + 1, ceil(last))]
        xs = sorted([lo, hi] + crossings)
        for left, right in zip(xs, xs[1:]):
            window = floor(a * (left + right) / 2 + b)
            out.append((left, right, a, b - window))
    out.sort()
    return out


def _rigid_table(q: int, starts: Sequence[int], shifts: Sequence[int]) -> tuple:
    """The sorted chart table (q, 1, charts) of n -> n + C_j mod q on [B_j, B_{j+1}),
    for starts B_j increasing in [0, q), B_n = B_0 + q, and shifts C_j in [0, q).
    A piece is split only where it or its image crosses q, so no chart leaves [0, q]."""
    charts = []
    for start, end, c in zip(starts, [*starts[1:], starts[0] + q], shifts):
        for lo, hi in [(start, end)] if end <= q else [(start, q), (0, end - q)]:
            if lo < q - c:
                charts.append((lo, min(hi, q - c), 1, c))
            if hi > q - c:
                charts.append((max(lo, q - c), hi, 1, c - q))
    return q, 1, tuple(sorted(charts))


def _chart_table(charts: Sequence[tuple]) -> tuple:
    """The chart table (q, r, charts) of rational charts (lo, hi, a, b) on integers:
    q is the lcm of the denominators of every lo, hi and b, r that of the slopes,
    and x -> a*x + b on [lo, hi) becomes n -> a*r*n + b*q*r on [lo*q, hi*q)."""
    q = lcm(*(v.denominator for lo, hi, _, b in charts for v in (lo, hi, b)))
    r = lcm(*(a.denominator for _, _, a, _ in charts))
    return q, r, [
        (_units(lo, q), _units(hi, q), _units(a, r), _units(b, q * r)) for lo, hi, a, b in charts
    ]


def _charts_on(table: tuple, q: int) -> Sequence[tuple]:
    """A table's charts on the grid of 1/q, a multiple of the table's grid."""
    k = q // table[0]
    return table[2] if k == 1 else [(lo * k, hi * k, a, b * k) for lo, hi, a, b in table[2]]


def _walk(q: int, runs: Sequence[tuple], table: tuple) -> tuple[int, int, list[tuple]]:
    """Runs (a, b) or (a, b, weight) of cells on the grid of 1/q moved through
    a chart table.

    The runs must be sorted and disjoint, as a set's or a measure's are.  A
    table (grid, R, charts) sends the cells of 1/grid onto the grid of
    1/(grid R) by n -> a*n + b on each chart (lo, hi, a, b).  The walk runs
    on Q = lcm(q, grid), scaling the charts only when Q is finer than their
    grid, and returns QR, a scale L and the moved runs on that grid.  Charts
    may overlap or leave gaps.  The walk goes chart by chart: it bisects the
    runs a chart meets, clips the first and the last of them to the chart,
    and moves each part [left, right) to its image, with the ends swapped
    when a < 0.  A weight per unit length becomes weight/|a|, so mass is
    kept; the walk returns every weight times L, the lcm of the slopes |a|,
    so that it multiplies an integer weight by L/|a| where it would divide
    by |a|.  A flat chart (a = 0) gives the empty run [b, b), whose weight
    is QR L times the mass gathered at b.  The moved runs come chart by
    chart.  L is 1 for unweighted runs and for tables of slope 1.
    """
    grid, r = table[:2]
    grid = grid if q == grid else lcm(q, grid)
    charts = _charts_on(table, grid)
    k = grid // q
    weighted = bool(runs) and len(runs[0]) > 2
    scale = lcm(*[abs(c[2]) for c in charts if c[2]]) if weighted else 1
    if k != 1 or r != 1:
        # a weight per unit length moves by R/|a|: scale them by R here, and
        # by L/|a| chart by chart
        if weighted:
            runs = [(lo * k, hi * k, w * r) for lo, hi, w in runs]
        else:
            runs = [(lo * k, hi * k) for lo, hi in runs]
    out: list[tuple] = []
    for lo, hi, a, b in charts:
        # the runs ending after lo and starting before hi, which meet [lo, hi),
        # as a list so that the first and the last can be clipped in place
        first = bisect.bisect_right(runs, lo, key=_END)
        part = list(runs[first:bisect.bisect_left(runs, hi, first, key=_START)])
        if not part:
            continue
        if part[0][0] < lo:
            part[0] = (lo, *part[0][1:])
        if part[-1][1] > hi:
            part[-1] = (part[-1][0], hi, *part[-1][2:])
        if a == 1 and scale == 1:
            out += [(x[0] + b, x[1] + b) + x[2:] for x in part]
        elif a > 0:
            f = scale // a
            out += [(a * x[0] + b, a * x[1] + b, *[w * f for w in x[2:]]) for x in part]
        elif a < 0:
            f = scale // -a
            out += [(a * x[1] + b, a * x[0] + b, *[w * f for w in x[2:]]) for x in part]
        else:
            out += [(b, b, *[w * (x[1] - x[0]) * scale for w in x[2:]]) for x in part]
    return grid * r, scale, out


def _units(v: Rational, q: int) -> int:
    """v counted in units of 1/q; q must be a multiple of v's denominator."""
    return v.numerator * (q // v.denominator)


def _joins_at_zero(segs, top) -> bool:
    """Whether merged segments of [0, top] hold a run from 0 and a run to top,
    which are one arc through 0."""
    return len(segs) > 1 and segs[0][0] == 0 and segs[-1][1] == top


def _segments_to_arcs(segs: tuple[Segment, ...]) -> tuple[Arc, ...]:
    """Canonical arc tuple from disjoint, merged cut-line segments."""
    arcs = [Arc(lo, hi - lo) for lo, hi in segs]
    if _joins_at_zero(segs, ONE):
        first = arcs.pop(0)
        arcs[-1] = Arc(arcs[-1].start, arcs[-1].length + first.length)
    return tuple(arcs)


def _grid_of(segs: Iterable[Segment]) -> tuple[int, list[tuple[int, int]]]:
    """The lcm q of the segments' end denominators, and their merged runs on 1/q."""
    segs = [(lo, hi) for lo, hi in segs if hi > lo]
    q = lcm(*(v.denominator for seg in segs for v in seg))
    return q, merge_segments((_units(lo, q), _units(hi, q)) for lo, hi in segs)


class ArcSet:
    """Canonical finite union of half-open arcs on the circle.

    The set is stored as its runs [a, b) of cells [i/q, (i+1)/q) on the
    line [0, q] cut open at 0: sorted, disjoint and non-adjacent, so an arc
    wrapping through 0 is a run from 0 and one to q.  The constructor
    accepts arcs in any state (overlapping, adjacent, wrapping, unsorted).
    ``segments()`` and ``arcs`` are Fraction views built on first read,
    ``arcs`` in canonical form: arcs sorted by start, at most one arc
    wrapping through 0 (stored last), full circle as the single arc [0, 1).
    """

    __slots__ = ("_q", "_runs", "_segments", "_arcs")

    def __init__(self, arcs: Iterable[Arc] = ()):
        self._store(*_grid_of(seg for a in arcs for seg in a.segments()))

    def _store(self, q: int, runs: list[tuple[int, int]]) -> None:
        # runs: sorted, disjoint, non-adjacent runs of cells on [0, q]
        object.__setattr__(self, "_q", q)
        object.__setattr__(self, "_runs", runs)
        object.__setattr__(self, "_segments", None)
        object.__setattr__(self, "_arcs", None)

    def __setattr__(self, name, value):
        raise AttributeError("ArcSet is immutable")

    @classmethod
    def _from_runs(cls, q: int, runs: list[tuple[int, int]]) -> "ArcSet":
        """The set of merged runs of cells on the grid of 1/q."""
        out = cls.__new__(cls)
        out._store(q, runs)
        return out

    @classmethod
    def from_segments(cls, segs: Iterable[Segment]) -> "ArcSet":
        return cls._from_runs(*_grid_of(segs))

    @classmethod
    def full(cls) -> "ArcSet":
        return cls._from_runs(1, [(0, 1)])

    @classmethod
    def empty(cls) -> "ArcSet":
        return cls(())

    def _scaled(self, q: int) -> list[tuple[int, int]]:
        """The runs on the grid of 1/q, a multiple of the set's own grid."""
        k = q // self._q
        return self._runs if k == 1 else [(a * k, b * k) for a, b in self._runs]

    def _meet(self, other: "ArcSet") -> tuple[int, list, list]:
        """The grid lcm(q, q') and the runs of both sets on it."""
        q = lcm(self._q, other._q)
        return q, self._scaled(q), other._scaled(q)

    def _moved(self, table: tuple) -> "ArcSet":
        """The set walked through a chart table (see _walk)."""
        q, _, moved = _walk(self._q, self._runs, table)
        return ArcSet._from_runs(q, merge_segments(moved))

    @property
    def arcs(self) -> tuple[Arc, ...]:
        if self._arcs is None:
            object.__setattr__(self, "_arcs", _segments_to_arcs(self.segments()))
        return self._arcs

    @property
    def total_length(self) -> Fraction:
        return Fraction(sum(b - a for a, b in self._runs), self._q)

    def segments(self) -> tuple[Segment, ...]:
        """Disjoint intervals on the cut-open line [0, 1], sorted."""
        if self._segments is None:
            q = self._q
            segs = tuple((Fraction(a, q), Fraction(b, q)) for a, b in self._runs)
            object.__setattr__(self, "_segments", segs)
        return self._segments

    # -- set algebra ------------------------------------------------------

    def intersect(self, other: "ArcSet") -> "ArcSet":
        q, a, b = self._meet(other)
        out: list[tuple[int, int]] = []
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
        # parts of non-adjacent runs are themselves sorted and non-adjacent
        return ArcSet._from_runs(q, out)

    def union(self, other: "ArcSet") -> "ArcSet":
        q, a, b = self._meet(other)
        return ArcSet._from_runs(q, merge_segments(a + b))

    def complement(self) -> "ArcSet":
        out: list[tuple[int, int]] = []
        cursor = 0
        for lo, hi in self._runs:
            if lo > cursor:
                out.append((cursor, lo))
            cursor = hi
        if cursor < self._q:
            out.append((cursor, self._q))
        return ArcSet._from_runs(self._q, out)

    def difference(self, other: "ArcSet") -> "ArcSet":
        return self.intersect(other.complement())

    def translate(self, c: Rational) -> "ArcSet":
        c = mod1(c)
        return self._moved(_rigid_table(c.denominator, [0], [c.numerator]))

    def contains(self, p: CirclePoint) -> bool:
        # the last run starting at or before p's cell x; q + 1 sorts after every end
        x = p.value.numerator * self._q // p.value.denominator
        i = bisect.bisect_right(self._runs, (x, self._q + 1)) - 1
        return i >= 0 and x < self._runs[i][1]

    def is_subset_of(self, other: "ArcSet") -> bool:
        # each run must lie in one run of other; both lists are sorted
        _, inner, outer = self._meet(other)
        j, n = 0, len(outer)
        for lo, hi in inner:
            while j < n and outer[j][1] < hi:
                j += 1
            if j == n or outer[j][0] > lo:
                return False
        return True

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
        if not isinstance(other, ArcSet):
            return False
        _, a, b = self._meet(other)
        return a == b

    def __hash__(self) -> int:
        # the Fraction view is the same for equal sets on any grid
        return hash(self.segments())

    def __bool__(self) -> bool:
        return bool(self._runs)

    def __len__(self) -> int:
        return len(self._runs) - _joins_at_zero(self._runs, self._q)

    def __iter__(self):
        return iter(self.arcs)

    def __repr__(self) -> str:
        inner = ", ".join(f"[{a.start.value},+{a.length})" for a in self.arcs)
        return f"ArcSet({inner})"


def _runs_of(s: ArcSet) -> tuple[int, list[tuple[int, int]]]:
    """A set's grid q and its merged runs of cells on 1/q."""
    return s._q, s._runs


def _arc_runs(s: ArcSet) -> tuple[int, list[tuple[int, int]]]:
    """A set's grid q and its runs of cells on 1/q in the order ``arcs`` lists
    their segments: the arc through 0 comes last, as its run to q and then
    its run from 0."""
    runs = s._runs
    if _joins_at_zero(runs, s._q):
        runs = runs[1:] + runs[:1]
    return s._q, runs


def _set_of_runs(q: int, runs: list[tuple[int, int]]) -> ArcSet:
    """The set of sorted, disjoint and non-adjacent runs of cells on 1/q."""
    return ArcSet._from_runs(q, runs)


def arc(start: Union[Rational, str], length: Union[Rational, str]) -> Arc:
    """Shorthand arc constructor from raw rationals."""
    return Arc(start, length)


def arcset(*pairs: tuple) -> ArcSet:
    """Shorthand: ``arcset((0, '1/2'), ('3/4', '1/8'))``."""
    return ArcSet([arc(s, l) for s, l in pairs])
