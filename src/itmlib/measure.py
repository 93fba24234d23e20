"""Measures with piecewise-constant densities and finitely many atoms, on integer grids.

A Measure lives on [0, 1] cut open at 0: density pieces never wrap through
0 (wrapping arcs are split on construction) and atom positions are exact
rationals in [0, 1], so segment maps can keep an atom at 1 distinct from
one at 0.  The density is stored as merged runs (a, b, n) of integers over
one weight denominator W: weight n/W per unit length on the cells
[a/q, b/q) of the measure's own grid q.  q is the lcm of the merged ends'
denominators and W that of the weights' denominators, so no integer above
1 divides q and every end, or W and every n: the representation is
canonical, which makes equality of measures and exact invariance
residuals decidable, and ``==`` and ``hash`` compare integers.
Construction sums the weight changes along the line as integers over W
(``_sweep``) and reduces q and W (``_own_grid``); a map's chart table moves
the runs on integers (``circle._walk``), which scales their weights so that
dividing by a slope stays exact, and the pushforward sums them over the
scaled W.  The ``density`` tuples of Fractions are a view built on first
read, and the largest weight and the float view read n / W.  Atoms are
sorted (position, mass) pairs of Fractions.

Every mass query reads one integer cumulative table, which a measure
builds on its first ``cdf()`` call and keeps: the rows (x, F(x-), F(x),
slope) of F(x) = mass of [0, x] at each cut, with the cuts counted in
units of 1/Q for Q the lcm of the grid and the atoms' denominators, F in
units of 1/M and the slope per cell of 1/Q.  ``Cdf`` bisects and solves on
the rows, building one Fraction per answer, ``mass_between`` is two
lookups in it, ``total_mass`` and ``is_probability`` read its last row,
and the conjugacy walk reads its rows.  ``Cdf._quantile`` takes a level as
two integers and gives the point as two integers, so the recurrence
samples build one Fraction per sample.  Other modules read the rows
through two helpers: ``_rows`` gives the integer columns that the CSV
and the chart of F print, and ``_values_at`` reads F and h's exceptional
set at sorted points n/d in one walk, for the h(x) table.
``_masses_near`` reads F at the integer ends t -/+ delta of every point's
neighbourhood over one denominator, so ``mass_near_points`` builds one
Fraction per point and the limit check one per delta.  ``cdf_distance``
and ``tv_distance`` walk the rows of two measures' tables once, merged on
a common grid, and read F_mu - F_nu at each cut as an integer; the
distance is one Fraction built at the end.  The trig integrals read the
runs in floats (``_float_view``), each end a / q and each weight n / W
divided once.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from itmlib.circle import ONE, ZERO, Arc, ArcSet, CirclePoint, Rational, frac, merge_segments
from itmlib.circle import _charts_on, _runs_of, _set_of_runs, _units, _walk
from itmlib.itm import AttractorResult, FiniteType, Itm


class NotFiniteType(ValueError):
    """The attractor did not stabilize, so no exact invariant measure exists here."""


class AtomicMeasure(ValueError):
    """A non-atomic measure was required."""


def _sweep(events: list[tuple[int, int]]) -> tuple[tuple[int, int, int], ...]:
    """Sum (cell, weight change) events along the cut-open line into runs
    (a, b, level) of constant level, merging adjacent runs of equal level and
    dropping runs of level 0.  Changes and levels are integers over one
    weight denominator, which the caller keeps."""
    steps: dict[int, int] = {}
    for x, w in events:
        steps[x] = steps.get(x, 0) + w
    out: list[tuple[int, int, int]] = []
    level = prev = 0
    for x in sorted(steps):
        if level:
            if out and out[-1][1] == prev and out[-1][2] == level:
                out[-1] = (out[-1][0], x, level)
            else:
                out.append((prev, x, level))
        level += steps[x]
        prev = x
    return tuple(out)


def _own_grid(q: int, den: int, runs: tuple) -> tuple[int, int, tuple[tuple[int, int, int], ...]]:
    """Merged runs (a, b, n) of weight n/den on the grid of 1/q moved to the
    coarsest grid holding their ends, and their weights to the least
    denominator: the canonical (grid, W, runs)."""
    g = gcd(q, *map(itemgetter(0), runs), *map(itemgetter(1), runs))
    h = gcd(den, *map(itemgetter(2), runs))
    if g == 1 and h == 1:
        return q, den, runs
    return q // g, den // h, tuple([(a // g, b // g, n // h) for a, b, n in runs])


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
    q: int,
    den: int,
    runs: tuple[tuple[int, int, int], ...],
    atoms: tuple[tuple[Fraction, Fraction], ...],
) -> tuple[int, int, list[list[int]]]:
    """The grids Q and M and the rows [x, F(x-), F(x), slope of F on [x, next cut)].

    F(x) is the mass of [0, x], for density runs (a, b, n) of weight n/den on
    the grid of 1/q and atoms.  The cut x counts units of 1/Q, Q the lcm of
    q and the atoms' denominators; F counts units of 1/M, M the lcm of Q
    den and the masses' denominators, and the slope units of 1/M per cell
    of 1/Q.  The cuts are 0, Q, the run ends and the atom positions, in
    increasing order.  Between two cuts F is linear, so every query on the
    cut line reads one row.
    """
    grid = lcm(q, *(p.denominator for p, _ in atoms))
    unit = lcm(grid * den, *(m.denominator for _, m in atoms))
    k, per_weight = grid // q, unit // (grid * den)
    events = [(_units(p, grid), 0, _units(m, unit)) for p, m in atoms]
    for a, b, n in runs:
        v = n * per_weight
        events += [(a * k, v, 0), (b * k, -v, 0)]
    events.append((grid, 0, 0))
    events.sort(key=itemgetter(0))
    rows = [[0, 0, 0, 0]]
    for x, dw, m in events:
        row = rows[-1]
        if x != row[0]:
            left = row[2] + row[3] * (x - row[0])
            row = [x, left, left, row[3]]
            rows.append(row)
        row[2] += m
        row[3] += dw
    return grid, unit, rows


class Measure:
    """A density on [0, 1] plus atoms, stored canonically on a grid.

    ``Measure(density, atoms)`` takes density pieces (lo, hi,
    weight-per-unit-length), which may overlap and sum, and (position,
    mass) atoms.  ``density`` reads back disjoint, sorted pieces that never
    wrap through 0, and ``atoms`` sorted (position, mass) pairs.  The
    pieces are stored as merged runs of cells on the coarsest grid of 1/q
    holding their ends, with integer weights over the least denominator
    holding them, so equal measures store equal integers and ``==`` and
    ``hash`` decide measure equality.
    """

    __slots__ = ("_grid", "_den", "_cells", "atoms", "_density", "_cdf")

    def __init__(
        self,
        density: Iterable[tuple[Rational, Rational, Rational]] = (),
        atoms: Iterable[tuple[Rational, Rational]] = (),
    ):
        pieces = []
        for lo, hi, w in density:
            if w < 0:
                raise ValueError("density weights must be nonnegative")
            if not (ZERO <= lo and hi <= ONE):
                raise ValueError(f"density piece [{lo}, {hi}) outside [0, 1]")
            if hi > lo and w > 0:
                pieces.append((lo, hi, w))
        q = lcm(*(v.denominator for lo, hi, _ in pieces for v in (lo, hi)))
        den = lcm(*(w.denominator for _, _, w in pieces))
        events = []
        for lo, hi, w in pieces:
            n = w.numerator * (den // w.denominator)
            events += [(_units(lo, q), n), (_units(hi, q), -n)]
        self._keep(*_own_grid(q, den, _sweep(events)), _merge_atoms(atoms))

    def _keep(self, grid: int, den: int, cells: tuple, atoms: tuple) -> None:
        # cells: merged runs (a, b, n) of weight n/den on the grid of 1/grid,
        # grid and den reduced; atoms: sorted, merged (position, mass) pairs
        # with nonzero mass
        object.__setattr__(self, "_grid", grid)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_cells", cells)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "_density", None)
        object.__setattr__(self, "_cdf", None)

    @classmethod
    def _on_cells(cls, grid: int, den: int, cells: tuple, atoms: tuple) -> "Measure":
        """The measure of canonical cells and atoms, as ``_keep`` takes them."""
        out = cls.__new__(cls)
        out._keep(grid, den, cells, atoms)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Measure is immutable")

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
        q, runs = _runs_of(support)
        cells = sum(b - a for a, b in runs)
        if cells == 0:
            raise ValueError("cannot normalize Lebesgue measure on a null set")
        # the set's runs are sorted, disjoint and non-adjacent: merged cells
        # of the weight q/cells
        return cls._on_cells(*_own_grid(q, cells, tuple([(a, b, q) for a, b in runs])), ())

    @property
    def density(self) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
        """Disjoint (lo, hi, weight-per-unit-length) pieces, sorted."""
        if self._density is None:
            q, den = self._grid, self._den
            pieces = tuple(
                (Fraction(a, q), Fraction(b, q), Fraction(n, den)) for a, b, n in self._cells
            )
            object.__setattr__(self, "_density", pieces)
        return self._density

    @property
    def total_mass(self) -> Fraction:
        """The mass of [0, 1]: the last row of the cumulative table."""
        cdf = self.cdf()
        return Fraction(cdf._at[-1], cdf._unit)

    @property
    def non_atomic(self) -> bool:
        return not self.atoms

    @property
    def is_probability(self) -> bool:
        """Whether the mass of [0, 1] is 1: the table's last row is its unit."""
        cdf = self.cdf()
        return cdf._at[-1] == cdf._unit

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
        return _set_of_runs(self._grid, merge_segments((a, b) for a, b, _ in self._cells))

    def cdf(self) -> "Cdf":
        """The distribution function, built on the first call and kept."""
        if self._cdf is None:
            object.__setattr__(self, "_cdf", Cdf(self))
        return self._cdf

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Measure):
            return NotImplemented
        return (self._grid, self._den, self._cells, self.atoms) == (
            other._grid, other._den, other._cells, other.atoms
        )

    def __hash__(self) -> int:
        return hash((self._grid, self._den, self._cells, self.atoms))

    def __repr__(self) -> str:
        d = ", ".join(f"[{lo},{hi})x{w}" for lo, hi, w in self.density)
        a = ", ".join(f"{m}@{p}" for p, m in self.atoms)
        return f"Measure({d or 'no density'}{'; ' + a if a else ''})"


class Cdf:
    """Exact distribution function F(x) = mu([0, x]) with basepoint 0.

    F is piecewise linear with jumps at atoms; ``at`` gives the
    right-continuous value including the atom at x, ``left_limit`` the
    value just below x.  Each query reads one row of the measure's integer
    cumulative table (``_cumulative``), whose cuts it bisects: F has slope
    slopes[i] on [cuts[i], cuts[i + 1]).  ``cuts``, ``value_left``,
    ``value_at`` and ``slopes`` are the table's Fraction views, built on
    first read.
    """

    def __init__(self, measure: Measure):
        self.measure = measure
        self._grid, self._unit, rows = _cumulative(
            measure._grid, measure._den, measure._cells, measure.atoms
        )
        self._ticks, self._left, self._at, self._slopes = zip(*rows)

    @cached_property
    def cuts(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self._grid) for x in self._ticks)

    @cached_property
    def value_left(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self._unit) for v in self._left)

    @cached_property
    def value_at(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self._unit) for v in self._at)

    @cached_property
    def slopes(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v * self._grid, self._unit) for v in self._slopes)

    def _row(self, m: int, d: int, left: bool = False) -> int:
        """The row of the last cut at or below x = m/(Q d), or below x when
        left; -1 when there is none."""
        if left:
            # a cut c/Q lies below x iff c < ceil(x * Q)
            return bisect.bisect_left(self._ticks, -(-m // d)) - 1
        # a cut c/Q lies at or below x iff c <= floor(x * Q)
        return bisect.bisect_right(self._ticks, m // d) - 1

    def _numerator(self, n: int, d: int, left: bool = False) -> int:
        """F(n/d), or the left limit F(n/d -) when left, in units of 1/(M d)."""
        m = n * self._grid
        i = self._row(m, d, left)
        if i < 0:
            return 0
        return self._at[i] * d + self._slopes[i] * (m - self._ticks[i] * d)

    def _x_at_level(self, i: int, n: int, d: int) -> tuple[int, int]:
        """The x at which F reaches the level n/d on row i, whose slope is
        positive, as a numerator and a denominator."""
        top = (self._ticks[i] * self._slopes[i] - self._at[i]) * d + n * self._unit
        return top, self._slopes[i] * self._grid * d

    def at(self, x: Rational) -> Fraction:
        x = frac(x)
        return Fraction(self._numerator(x.numerator, x.denominator), self._unit * x.denominator)

    def left_limit(self, x: Rational) -> Fraction:
        x = frac(x)
        d = x.denominator
        return Fraction(self._numerator(x.numerator, d, left=True), self._unit * d)

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
        n, d, _ = self._quantile(y.numerator, y.denominator)
        return Fraction(n, d)

    def _quantile(self, n: int, d: int, above: bool = False) -> tuple[int, int, Optional[int]]:
        """The smallest x with F(x) >= y for the level y = n/d (d > 0), or the
        largest x with F(x) <= y when above and F is continuous, as a
        numerator and a denominator, and the row i when F reaches y on its
        slope from cuts[i]; x is 1 when F stays below y."""
        # F >= y at a cut iff F * M >= ceil(y * M), and F > y iff F * M > floor(y * M)
        need = n * self._unit // d + 1 if above else -(-n * self._unit // d)
        i = bisect.bisect_left(self._at, need)
        if i >= len(self._ticks):
            return 1, 1, None
        if i > 0 and self._left[i] >= need:
            # the level is reached in (cuts[i-1], cuts[i]], where F rises
            # from value_at[i-1] < y, so the slope is positive
            return (*self._x_at_level(i - 1, n, d), i - 1)
        return self._ticks[i], self._grid, None

    def rightmost_preimage(self, y: Rational) -> Fraction:
        """Largest x in [0, 1] with F(x) = y, for continuous (atom-free) F.

        Level sets of a continuous non-decreasing F are closed intervals;
        this returns their right endpoint exactly: the point where F first
        passes y, or 1.
        """
        if self.measure.atoms:
            raise AtomicMeasure("rightmost preimage needs a continuous CDF")
        y = frac(y)
        if y < 0 or y.numerator * self._unit > self._at[-1] * y.denominator:
            raise ValueError(f"level {y} is not attained by this CDF")
        n, d, _ = self._quantile(y.numerator, y.denominator, above=True)
        return Fraction(n, d)


def pushforward(t, mu: Measure) -> Measure:
    """Exact image measure T#mu of an Itm or a PiecewiseMap.

    The density runs walk through the map's chart table on integers
    (``circle._walk``), each run's weight divided by |a|, so every chart
    keeps its mass; a flat chart gathers the mass it covers into one atom
    at its value b.  The walk scales the integer weights so that each
    division is exact, and the moved runs are summed over the scaled
    denominator.  Atoms move by the map's own evaluate, so boundary values
    apply.
    """
    q, scale, moved = _walk(mu._grid, mu._cells, t._table)
    den = mu._den * scale
    events = [e for a, b, n in moved if a < b for e in ((a, n), (b, -n))]
    atoms = [(Fraction(a, q), Fraction(n, den * q)) for a, b, n in moved if a == b]
    atoms += [(frac(t.evaluate(p)), m) for p, m in mu.atoms]
    return Measure._on_cells(*_own_grid(q, den, _sweep(events)), _add_neighbours(atoms))


def _rigid_pieces(s: Itm, mu: Measure) -> tuple[int, int, list[tuple]]:
    """mu's density carried through the slope-1 charts of s, piece by piece.

    mu's cumulative table is read on the grid of 1/Q, Q = lcm(its grid, s's
    grid) = k times its grid, with F(x) = mu([0, x]) in units of 1/M, M = k
    times its unit, so each slope per cell keeps its integer.  Each chart
    (lo, hi, 1, b) of s's table is cut where x or x + b crosses a cut, into
    pieces (u, v, b, w, w', f, f'): F rises by w per cell on [u, v) and by w'
    on [u + b, v + b), and is f/M at u/Q and f'/M at (u + b)/Q.  Returns Q, M
    and the pieces, which tile [0, Q) in order.
    """
    cdf = mu.cdf()
    q = lcm(cdf._grid, s._table[0])
    k = q // cdf._grid
    ends = [x * k for x in cdf._ticks]
    mass, slope = cdf._at, cdf._slopes
    pieces = []
    for lo, hi, _, b in _charts_on(s._table, q):
        inside = ends[bisect.bisect_right(ends, lo):bisect.bisect_left(ends, hi)]
        hit = ends[bisect.bisect_right(ends, lo + b):bisect.bisect_left(ends, hi + b)]
        cuts = sorted({lo, hi, *inside, *(y - b for y in hit)})
        for u, v in zip(cuts, cuts[1:]):
            i, j = (bisect.bisect_right(ends, x) - 1 for x in (u, u + b))
            f = mass[i] * k + slope[i] * (u - ends[i])
            f_image = mass[j] * k + slope[j] * (u + b - ends[j])
            pieces.append((u, v, b, slope[i], slope[j], f, f_image))
    return q, cdf._unit * k, pieces


def _difference_on_cuts(mu: Measure, nu: Measure) -> tuple[int, Iterator[tuple[int, int]]]:
    """U, and the pairs (D(x-), D(x)) in units of 1/U of D = F_mu - F_nu at
    the merged cuts x of both cumulative tables on the grid lcm(Q, Q'), in
    increasing order; U is the lcm of both tables' units on that grid, and
    D is linear between the cuts.  One walk merges the two tables' rows."""
    f, g = mu.cdf(), nu.cdf()
    grid = lcm(f._grid, g._grid)
    kf, kg = grid // f._grid, grid // g._grid
    unit = lcm(f._unit * kf, g._unit * kg)
    # F_mu in units of 1/U is mf times a row value, and rises by pf times
    # the row's slope per cell of 1/grid; likewise F_nu
    pf, pg = unit // (f._unit * kf), unit // (g._unit * kg)
    mf, mg = pf * kf, pg * kg

    def walk() -> Iterator[tuple[int, int]]:
        fx, fl, fa, fs = f._ticks, f._left, f._at, f._slopes
        gx, gl, ga, gs = g._ticks, g._left, g._at, g._slopes
        # both tables cut at 0 and at the grid's end; i and j are the rows
        # next to meet, and a table with no cut at x is linear from the row
        # before
        i = j = 0
        while i < len(fx):
            x, y = fx[i] * kf, gx[j] * kg
            if x == y:
                yield mf * fl[i] - mg * gl[j], mf * fa[i] - mg * ga[j]
                i, j = i + 1, j + 1
            elif x < y:
                v = mg * ga[j - 1] + pg * gs[j - 1] * (x - gx[j - 1] * kg)
                yield mf * fl[i] - v, mf * fa[i] - v
                i += 1
            else:
                v = mf * fa[i - 1] + pf * fs[i - 1] * (y - fx[i - 1] * kf)
                yield v - mg * gl[j], v - mg * ga[j]
                j += 1

    return unit, walk()


def tv_distance(mu: Measure, nu: Measure) -> Fraction:
    """Exact total variation of mu - nu: that of D = F_mu - F_nu from D(0-) = 0,
    the jump |D(x) - D(x-)| at each cut x and the change |D(x-) - D(c)| from
    the cut c before it, over which D is linear."""
    if mu == nu:
        return ZERO
    unit, rows = _difference_on_cuts(mu, nu)
    total = before = 0
    for left, at in rows:
        total += abs(left - before) + abs(at - left)
        before = at
    return Fraction(total, unit)


def invariance_residual_exact(t, mu: Measure) -> Fraction:
    """Exact ||T#mu - mu|| for an Itm or a PiecewiseMap; zero if and only
    if mu is T-invariant."""
    return tv_distance(pushforward(t, mu), mu)


def attractor_measure(s: Itm, attr: Optional[AttractorResult] = None) -> Measure:
    """Normalized Lebesgue measure on a stabilized attractor, verified exactly.

    It is invariant.  Let Q be the lcm of the map's common denominator and
    the grid of A's runs.  Every cell [i/Q, (i+1)/Q) lies inside one piece
    and moves rigidly onto a cell, so S acts on the cells as a function f
    and S(A) = f(A).  A stabilized attractor is A = f^m(C) = f^(m+1)(C) with
    C the set of all cells, so f maps the finite set A onto itself, hence
    bijectively, and S carries Lebesgue measure on A onto itself.

    The check is the set identity S(A) = A, one image walk.  It is exactly
    T#mu = mu for mu uniform on A: T#mu gives each cell the mass of its
    preimage cells in A, which is mu's mass exactly when f permutes A's
    cells, that is, when f(A) = A.  It can therefore fail only when attr is
    not the attractor of s; that raises ValueError.
    """
    if attr is None:
        attr = s.attractor()
    if attr.finite_type is not FiniteType.YES:
        raise NotFiniteType("attractor did not stabilize within budget")
    if s.image(attr.attractor) != attr.attractor:
        raise ValueError("attr is not the attractor of this map")
    return Measure.uniform_on(attr.attractor)


def cdf_distance(mu: Measure, nu: Measure) -> Fraction:
    """sup over x of |F_mu(x) - F_nu(x)|, exact, for probability measures: as
    F_mu - F_nu is linear between the merged cuts, its largest value at a cut
    or just below one."""
    if not (mu.is_probability and nu.is_probability):
        raise ValueError("cdf distance requires probability measures")
    unit, rows = _difference_on_cuts(mu, nu)
    largest = 0
    for pair in rows:
        for d in pair:
            if d > largest or -d > largest:
                largest = abs(d)
    return Fraction(largest, unit)


def _masses_near(
    mu: Measure, points: Iterable[Rational], delta: Rational, wrap: bool
) -> tuple[int, list[int]]:
    """One denominator D and, per point t, the numerator over D of
    mu((t - delta, t + delta)), as ``mass_near_points`` defines it.

    The ends t -/+ delta are integer numerators over L, the lcm of delta's
    and the points' denominators, and F is read on them from the rows of
    ``mu.cdf()`` in units of 1/(M L), so D = M L.
    """
    delta = frac(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    points = [frac(p) for p in points]
    den = lcm(delta.denominator, *(t.denominator for t in points))
    reach = delta.numerator * (den // delta.denominator)
    cdf = mu.cdf()
    total, numerator = cdf._at[-1] * den, cdf._numerator
    out = []
    for t in points:
        mid = t.numerator * (den // t.denominator)
        lo, hi = mid - reach, mid + reach
        if wrap:
            if 2 * reach > den:
                out.append(total)
                continue
            lo, hi = lo % den, hi % den
            # F(hi-) - F(lo), plus F(1) when (lo, hi) passes 0 (lo >= hi):
            # the mass of (lo, 1] and [0, hi)
            out.append(numerator(hi, den, left=True) - numerator(lo, den) + (lo >= hi) * total)
        else:
            if lo > den or hi < 0:
                raise ValueError(f"point {t} lies farther than delta outside [0, 1]")
            # F(hi-) - F(lo), with F(1) for F(hi-) where hi passes 1 and 0
            # for F(lo) where lo passes 0
            upper = total if hi > den else numerator(hi, den, left=True)
            out.append(upper - (numerator(lo, den) if lo >= 0 else 0))
    return cdf._unit * den, out


def mass_near_points(
    mu: Measure,
    points: Iterable[Rational],
    delta: Rational,
    wrap: bool = True,
) -> list[Fraction]:
    """Exact mu((t - delta, t + delta)) per point.

    With wrap the neighbourhood lives on the circle; without it the
    interval is clipped to [0, 1], keeping boundary atoms that fall
    strictly inside the open neighbourhood.  A point farther than delta
    outside [0, 1] has no clipped interval; ValueError.

    The masses are integer numerators over one denominator, read from the
    rows of ``mu.cdf()`` at integer ends (``_masses_near``), and each is
    built as one Fraction.
    """
    den, masses = _masses_near(mu, points, delta, wrap)
    return [Fraction(m, den) for m in masses]


def _largest_weight(mu: Measure) -> Fraction:
    """The largest density weight of mu, read from its runs; 0 without any."""
    return Fraction(max((n for _, _, n in mu._cells), default=0), mu._den)


def _rows(mu: Measure) -> tuple[int, int, tuple, tuple, tuple]:
    """The grid Q, the unit M and the columns x, F(x-) and F(x) of the rows
    of ``mu.cdf()``: each cut x in units of 1/Q, and F in units of 1/M."""
    cdf = mu.cdf()
    return cdf._grid, cdf._unit, cdf._ticks, cdf._left, cdf._at


def _values_at(cdf: Cdf, numerators: Iterable[int], den: int) -> tuple[int, list]:
    """F at the points x = n/den, taken in increasing order: one denominator
    D = M den and, per point, the numerator of F(x) over D and whether x is
    a cut of F or F is flat on the row holding x (h's exceptional set, when
    F is h).  One walk over the rows meets every point."""
    ticks, at, slopes = cdf._ticks, cdf._at, cdf._slopes
    last = len(ticks) - 1
    out, i = [], 0
    for n in numerators:
        m = n * cdf._grid  # x in units of 1/(Q den)
        if m < 0:
            out.append((0, True))
            continue
        # the last cut c/Q at or below x
        while i < last and ticks[i + 1] * den <= m:
            i += 1
        tick = ticks[i] * den
        out.append((at[i] * den + slopes[i] * (m - tick), tick == m or slopes[i] == 0))
    return cdf._unit * den, out


def _float_view(mu: Measure) -> tuple[list, list]:
    """mu's density runs (lo, hi, weight) and atoms (position, mass) in
    floats.  The run ends and weights are read from the integer runs: a / q
    and n / W on ints round once, to the floats of Fraction(a, q) and
    Fraction(n, W)."""
    q, den = mu._grid, mu._den
    runs = [(a / q, b / q, n / den) for a, b, n in mu._cells]
    return runs, [(float(p), float(m)) for p, m in mu.atoms]


@dataclass(frozen=True)
class Recurrence:
    """One sampled point with its first eps-return time, if any was found."""

    point: CirclePoint
    time: Optional[int]
    distance: Optional[Fraction]

    @property
    def found(self) -> bool:
        return self.time is not None


def _gap(a: int, b: int, q: int) -> int:
    """Circle distance of cells a and b, counted in cells of 1/q."""
    d = abs(a - b)
    return min(d, q - d)


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
    random quantile levels when an rng is supplied.  A sample's cell is the
    first cell of 1/q whose mass reaches its level (the left-continuous
    inverse of F on cells).  Where F reaches the level at that cell's right
    end, as at a run's right end, the sample moves into the cell, to its
    first point in the run.  A sample x reports the first time m <= horizon
    with S^m(x) eps-close to x, unless the orbit revisited a point before,
    since everything after that repeats.

    The search runs on cells.  With q the map's common denominator, S
    moves every cell [i/q, (i+1)/q) rigidly onto a cell, so S acts on the
    cells as a function f and a point keeps its offset inside its cell:
    S^m(x) is as far from x as the cell f^m(c) is from x's cell c, a whole
    number of cells of 1/q, and the orbit of x repeats exactly when that
    of c does.  ``Itm._cell_orbit`` walks c for up to horizon steps and
    ends at its first eps-close cell or at the cycle of f it enters, and
    the samples share its record of the cycles, so each cycle is walked
    once and time and memory grow only with the cells walked up to the
    return.  A walk that enters a cycle seeks the return in the cycle's
    first turn, by one scan over the cycle's cells or over the cells near
    home looked up in the record, whichever are fewer.
    """
    eps = frac(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if horizon < 1:
        raise ValueError("horizon must be positive")
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    cdf = mu.cdf()
    total, unit = cdf._at[-1], cdf._unit  # mu's mass is total/unit
    if total == 0:
        raise ValueError("a measure of zero mass has no support to sample")
    # the levels y = n/d, a fraction of mu's mass total/unit
    levels = [
        (total * rng.getrandbits(40), unit << 40)
        if rng is not None
        else (total * (2 * i + 1), unit * 2 * samples)
        for i in range(samples)
    ]
    q = s.common_denominator()
    # d cells are eps-close iff d/q < eps, iff d <= reach
    reach = (eps.numerator * q - 1) // eps.denominator
    record: dict = {}  # cell -> (its cycle, its place), shared by the samples
    out = []
    for n, d in levels:
        a, b, i = cdf._quantile(n, d)
        home = a * q // b
        if i is not None and home * b == a * q:
            # F reaches y at the cell end home/q, from the cut t/Q of row i
            # below it: the sample moves into the cell, to the later of its
            # start and the cut
            home -= 1
            t, grid = cdf._ticks[i], cdf._grid
            x = Fraction(t, grid) if t * q > home * grid else Fraction(home, q)
        else:
            x = Fraction(a, b)
            home %= q

        def close(cell: int) -> bool:
            return _gap(cell, home, q) <= reach

        # the walk ends at its first eps-return; with reach 0 only home is
        # eps-close, and it comes back only by closing its cycle
        tail, cycle, place = s._cell_orbit(home, horizon, record, close if reach else None)
        time = near = None
        if cycle is None and close(tail[-1]):
            time, near = len(tail) - 1, tail[-1]
        elif cycle is not None:
            # the walk tested each cell after home; the first turn of the
            # cycle from step len(tail) meets each of its cells once, and
            # home, when on it, comes back after a full turn
            n, skip = len(cycle), 0 if tail else 1
            nearby = ((home + d) % q for d in range(-reach, reach + 1))
            turns = [
                ((record[cell][1] - place - skip) % n + skip, cell)
                for cell in (nearby if 2 * reach + 1 < n else cycle)
                if record.get(cell, (None,))[0] is cycle and _gap(cell, home, q) <= reach
            ]
            t, cell = min(turns, default=(horizon + 1, None))
            if t <= horizon - len(tail):
                time, near = len(tail) + t, cell
        distance = None if time is None else Fraction(_gap(near, home, q), q)
        out.append(Recurrence(CirclePoint(x), time, distance))
    return out
