"""Interval translation maps of the circle.

An ITM is given by breakpoints t_0 < ... < t_{n-1} in [0, 1) and shifts
c_0, ..., c_{n-1}: on the piece [t_j, t_{j+1}) the map acts as
t -> t + c_j mod 1 (indices circular, t_n = t_0).  Everything here is
exact: images and preimages of arc unions, the attractor as a nested
intersection of forward images, backward orbits of the discontinuity
set, and whole-arc tracking of the continuity intervals in between.
Images and preimages walk an ArcSet's runs of cells through the map's
integer chart table (ArcSet._moved).  The attractor moves only what each
iterate loses: the forward table's slope-1 charts tile [0, q), so the hole
D_k = A_k \\ A_{k+1} satisfies D_{k+1} = S(D_k) \\ S(A_{k+1}), and a step
moves D_k through the charts, pulls each moved part back through the
charts whose images overlap, and cuts what stays uncovered out of one
sorted run list in place.  Each iterate wraps a copy of that list, so the
iterates share their run tuples.
The map moves each cell [i/q, (i+1)/q) rigidly onto a cell, so it acts on
the cells as a function f, and ``_cell_orbit`` is the one walk of f that
closes a cycle: it returns the cells before the orbit enters its cycle and
that cycle, and writes each cycle it closes into a record the caller keeps,
so a later walk that meets the cycle stops there.  The recurrence search
(``measure.find_recurrent_points``) and the homterval tracker read it.
The backward orbit steps cells back through the forward charts, and each gap
between its points is a run of cells whose start follows the cell orbit, so
the homtervals stay on integers too.  The one-sided orbits of the
breakpoints step the same cells: a lift adds each piece's shift unreduced,
its cell lift % q picks the next piece, and the winding, the number of
times the orbit passed 1, is lift // q.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm
from typing import Optional, Sequence, Union

from itmlib.circle import ONE, ZERO, Arc, ArcSet, CirclePoint, mod1
from itmlib.circle import _END, _joins_at_zero, _rigid_table, _set_of_runs, _units
from itmlib.circle import merge_segments

DEFAULT_MAX_ITER = 4096
DEFAULT_MAX_ARCS = 2**16
DEFAULT_ORBIT_BUDGET = 2**16


class BudgetExceeded(RuntimeError):
    """An iteration or size budget was hit before the computation resolved."""

    def __init__(self, message: str, budget: str, value: int):
        super().__init__(message)
        self.budget = budget
        self.value = value


class FiniteType(Enum):
    YES = "yes"
    NO_WITHIN_BUDGET = "no-within-budget"


class Genericity(Enum):
    NOT_GENERIC = "not generic"
    NO_PERIODIC_DOMAIN_FOUND = "no periodic domain found"


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class EndpointOrbit:
    """One-sided orbit of a breakpoint: the limit S^r(t_j ± 0) step by step.

    visit_counts[k] is the number of orbit steps taken through piece k, and
    winding is the number of times the unreduced orbit t_j + sum of the
    shifts so far passed 1, so sum(l_k * c_k) - winding equals the net
    displacement points[-1] - points[0] as exact rationals.
    """

    base: int
    side: Side
    points: tuple[CirclePoint, ...]
    itinerary: tuple[int, ...]
    visit_counts: tuple[int, ...]
    winding: int

    @property
    def steps(self) -> int:
        return len(self.itinerary)


@dataclass(frozen=True)
class AttractorResult:
    """Forward images A_k of the full circle and their stabilization status.

    finite_type is YES exactly when some A_{m+1} = A_m was found; then
    stabilized_at = m and attractor = A_m is the true intersection of all
    forward images.  NO_WITHIN_BUDGET means the budget ran out first; the
    attractor field then holds the deepest iterate as an upper bound.
    """

    iterates: tuple[ArcSet, ...]
    stabilized_at: Optional[int]
    attractor: ArcSet
    finite_type: FiniteType


@dataclass(frozen=True)
class Homterval:
    """A maximal open arc free of the discontinuity orbit up to some depth.

    arc stores the closure's left endpoint and length; the homterval itself
    is the open interior (arc.start, arc.end).  When the whole-arc forward
    orbit repeats exactly, preperiod and period are set; otherwise both are
    None and the interval is reported unresolved.
    """

    arc: Arc
    preperiod: Optional[int] = None
    period: Optional[int] = None

    @property
    def resolved(self) -> bool:
        return self.period is not None


@dataclass(frozen=True)
class HomtervalReport:
    omega: tuple[CirclePoint, ...]
    homtervals: tuple[Homterval, ...]

    @property
    def resolved(self) -> tuple[Homterval, ...]:
        return tuple(h for h in self.homtervals if h.resolved)

    @property
    def unresolved(self) -> tuple[Homterval, ...]:
        return tuple(h for h in self.homtervals if not h.resolved)

    @property
    def genericity(self) -> Genericity:
        """NOT_GENERIC once any homterval is resolved as periodic.

        Otherwise only NO_PERIODIC_DOMAIN_FOUND: genericity itself is never
        certified by a finite computation.
        """
        if self.resolved:
            return Genericity.NOT_GENERIC
        return Genericity.NO_PERIODIC_DOMAIN_FOUND


@dataclass(frozen=True)
class Itm:
    """An interval translation map presented by its breakpoints and shifts.

    Accepts sequences of raw rationals, strings or CirclePoints; the
    constructor is the one place that turns them into tuples reduced mod 1.
    Instances are immutable and all operations are pure, so maps can be
    shared freely.
    """

    breakpoints: tuple[CirclePoint, ...]
    shifts: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        bps = tuple(map(CirclePoint, self.breakpoints))
        shs = tuple(mod1(c) for c in self.shifts)
        if not bps:
            raise ValueError("at least one piece required")
        if len(bps) != len(shs):
            raise ValueError("breakpoints and shifts must have equal length")
        for k in range(1, len(bps)):
            if not bps[k - 1] < bps[k]:
                raise ValueError(f"breakpoints not strictly increasing at index {k}")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "shifts", shs)

    @classmethod
    def _on_grid(cls, q: int, starts: Sequence[int], shifts: Sequence[int]) -> "Itm":
        """The map with breakpoints starts[j]/q and shifts shifts[j]/q, given
        as integers in [0, q) with the starts strictly increasing.

        q is reduced by the gcd of q and every numerator, so the fields and
        ``_grid_pieces``, which is seeded, are those ``Itm(...)`` computes.
        """
        g = gcd(q, *starts, *shifts)
        q, starts, shifts = q // g, [s // g for s in starts], [c // g for c in shifts]
        out = cls.__new__(cls)
        bps = tuple([CirclePoint(Fraction(s, q)) for s in starts])
        object.__setattr__(out, "breakpoints", bps)
        object.__setattr__(out, "shifts", tuple([Fraction(c, q) for c in shifts]))
        out.__dict__["_grid_pieces"] = (q, starts, shifts)
        return out

    @cached_property
    def _grid_pieces(self) -> tuple[int, list[int], list[int]]:
        """The common denominator q, and the breakpoints and shifts in cells of 1/q."""
        values = [p.value for p in self.breakpoints]
        q = lcm(*(v.denominator for v in values), *(c.denominator for c in self.shifts))
        return q, [_units(v, q) for v in values], [_units(c, q) for c in self.shifts]

    @cached_property
    def _table(self) -> tuple:
        """The map's chart table (q, 1, charts) on integers: circle._rigid_table."""
        return _rigid_table(*self._grid_pieces)

    @property
    def n(self) -> int:
        return len(self.breakpoints)

    def piece(self, j: int) -> Arc:
        """The half-open continuity piece [t_j, t_{j+1}); one piece is the whole circle."""
        nxt = self.breakpoints[(j + 1) % self.n]
        return Arc(self.breakpoints[j], self.breakpoints[j].gap_to(nxt) or ONE)

    def piece_index(self, x: CirclePoint) -> int:
        """Index j with x in [t_j, t_{j+1}); breakpoints belong to their right piece."""
        q = self._grid_pieces[0]
        return self._piece_of(x.value.numerator * q // x.value.denominator)

    def _piece_of(self, cell: int) -> int:
        """Index j of the piece holding the cell [cell/q, (cell+1)/q), 0 <= cell < q."""
        _, starts, _ = self._grid_pieces
        # a breakpoint B/q starts the cell's piece or one before it iff
        # B <= cell; a cell below the first one lies in the last piece
        return (bisect.bisect_right(starts, cell) - 1) % len(starts)

    def evaluate(self, x: Union[CirclePoint, Fraction]) -> CirclePoint:
        """S(x) for a CirclePoint or a rational, which is read mod 1."""
        x = CirclePoint(x)
        return x + self.shifts[self.piece_index(x)]

    def evaluate_one_sided(
        self, j: int, side: Union[Side, str], steps: int
    ) -> EndpointOrbit:
        """Orbit of the one-sided limit S^r(t_j + 0) or S^r(t_j - 0).

        The limit is propagated exactly on the cells of ``_grid_pieces``: the
        orbit's lift starts at t_j and adds the shift of each piece it goes
        through, unreduced.  Where the cell lift % q is a breakpoint, the left
        orbit continues through the piece ending there, the right orbit
        through the piece starting there.  The winding is lift // q.
        """
        side = Side(side)
        itinerary, lifts = self._one_sided(j, side, steps)
        q = self._grid_pieces[0]
        return EndpointOrbit(
            base=j,
            side=side,
            points=tuple([CirclePoint(Fraction(x % q, q)) for x in lifts]),
            itinerary=itinerary,
            visit_counts=tuple([itinerary.count(k) for k in range(self.n)]),
            winding=lifts[-1] // q,
        )

    def _one_sided(self, j: int, side: Side, steps: int) -> tuple[tuple[int, ...], list[int]]:
        """The walk of ``evaluate_one_sided`` on integers: the pieces the
        orbit of t_j -/+ 0 goes through in its first steps, and its unreduced
        lifts S^r(t_j -/+ 0) in cells of 1/q for r = 0..steps."""
        if steps < 0:
            raise ValueError("steps must be nonnegative")
        if not 0 <= j < self.n:
            raise ValueError(f"breakpoint index {j} outside range({self.n})")
        q, starts, shifts = self._grid_pieces
        # bisect_left puts a cell on a breakpoint in the piece before it
        find = bisect.bisect_left if side is Side.LEFT else bisect.bisect_right
        n = self.n
        lift = starts[j]
        lifts = [lift]
        itinerary = []
        for _ in range(steps):
            k = (find(starts, lift % q) - 1) % n  # -1: the last piece, through 0
            itinerary.append(k)
            lift += shifts[k]
            lifts.append(lift)
        return tuple(itinerary), lifts

    def image(self, a: ArcSet) -> ArcSet:
        """Exact forward image S(A): A's runs walked through the chart table."""
        return a._moved(self._table)

    def preimage(self, a: ArcSet) -> ArcSet:
        """Exact S^{-1}(A): x lies in the result iff evaluate(x) lies in A.

        A's runs walk through the forward charts pulled back onto their
        images: (lo + b, hi + b, 1, -b) for each chart (lo, hi, 1, b).
        """
        q, r, charts = self._table
        return a._moved((q, r, [(lo + b, hi + b, 1, -b) for lo, hi, _, b in charts]))

    @cached_property
    def _images(self) -> tuple[tuple, tuple, list[int], list[list[tuple]]]:
        """How the images of the forward charts cover [0, q), for the attractor.

        The merged runs of S(circle) and those of its complement; the chart
        starts; and for each chart, the image [x, y) and shift b of each
        other chart (lo, hi, 1, b) whose image meets its own.  Only where
        two images meet has a cell a second preimage, y' - b.
        """
        q, _, charts = self._table
        images = sorted([(lo + b, hi + b, b, i) for i, (lo, hi, _, b) in enumerate(charts)])
        overlaps = [[] for _ in charts]
        runs, gaps, start, top = [], [], 0, 0
        for k, (u, v, b, i) in enumerate(images):
            # the images starting in [u, v) meet this one
            for x, y, c, j in images[k + 1:]:
                if x >= v:
                    break
                overlaps[i].append((x, y, c))
                overlaps[j].append((u, v, b))
            if u > top:
                # no image holds [top, u): a run of S(circle) ends at top
                gaps.append((top, u))
                if top:
                    runs.append((start, top))
                start = u
            top = max(top, v)
        runs.append((start, top))
        if top < q:
            gaps.append((top, q))
        return tuple(runs), tuple(gaps), [lo for lo, _, _, _ in charts], overlaps

    def _moved_hole(self, hole: list[tuple[int, int]], runs: list[tuple[int, int]]) -> list:
        """The merged runs of S(D) outside S(A), for a hole D disjoint from
        A = ``runs``, both sorted runs of cells on the chart table's grid.

        Each run of D is moved through the tiling charts it crosses; a moved
        part keeps the cells that no other chart whose image overlaps its
        chart's image pulls back into A.
        """
        _, _, charts = self._table
        _, _, starts, overlaps = self._images
        n = len(runs)
        out = []
        for a, b in hole:
            # the chart holding a; each next chart starts where one ends
            i = bisect.bisect_right(starts, a) - 1
            while a < b:
                _, hi, _, c = charts[i]
                end = hi if hi < b else b
                u, v = a + c, end + c
                covered = []
                for x, y, d in overlaps[i]:
                    if x < v and u < y:
                        x, y = (x if x > u else u) - d, (y if y < v else v) - d
                        r = bisect.bisect_right(runs, x, key=_END)
                        while r < n and runs[r][0] < y:
                            covered.append((max(runs[r][0], x) + d, min(runs[r][1], y) + d))
                            r += 1
                for x, y in merge_segments(covered) if len(covered) > 1 else covered:
                    if u < x:
                        out.append((u, x))
                    u = y
                if u < v:
                    out.append((u, v))
                a = end
                i += 1
        return merge_segments(out) if len(out) > 1 else out

    def attractor(
        self,
        max_iter: int = DEFAULT_MAX_ITER,
        max_arcs: int = DEFAULT_MAX_ARCS,
    ) -> AttractorResult:
        """Iterate A_{k+1} = S(A_k) from the full circle until exact stabilization.

        Stabilization at m means A_{m+1} = A_m, which makes A_m the
        intersection of all forward images.  Raises BudgetExceeded when an
        iterate needs more than max_arcs arcs; returns NO_WITHIN_BUDGET after
        max_iter steps without stabilization.

        S maps the cells [i/q, (i+1)/q) of its grid onto cells, so every A_k
        is a union of cells, kept as one sorted list of runs on the grid of
        the map's chart table, whose slope-1 charts (lo, hi, 1, b) tile
        [0, q).  The loop moves only the hole D_k = A_k \\ A_{k+1} that each
        step opens.  A_1 is the union of the chart images and D_0 is its
        complement.  Since A_k = A_{k+1} u D_k, S(A_k) = S(A_{k+1}) u S(D_k),
        so D_{k+1} = S(D_k) \\ S(A_{k+1}).  A cell y that a chart moves out
        of D_k lies in S(A_{k+1}) iff y - b' lies in A_{k+1} for another
        chart (lo', hi', 1, b') whose image holds y, since D_k and A_{k+1}
        are disjoint.  So each step moves D_k through the charts, pulls
        each moved part back through the charts whose images overlap its
        chart's image, and keeps what none of them pulls back into A_{k+1}:
        that is D_{k+1}.  It is cut out of the run list in place, which
        makes A_{k+2} = A_{k+1} \\ D_{k+1} a subset of A_{k+1} by
        construction; the cut checks that each run of D_{k+1} lies within
        one run of A_{k+1}, as S(D_k) within S(A_k) = A_{k+1} says, and
        raises AssertionError if not.  The map stabilizes at the first k
        with D_k empty.  A step costs the runs of D_k times the charts, not
        the runs of A_k, and each iterate wraps a copy of the run list, so
        the iterates share their run tuples.
        """
        if max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        q = self._table[0]
        runs, hole, _, _ = self._images
        runs = list(runs)
        current = ArcSet.full()
        iterates = [current]
        for k in range(max_iter):
            if k:
                hole = self._moved_hole(hole, runs)
                for u, v in hole:
                    # the run that must hold [u, v): the first ending after u
                    r = bisect.bisect_right(runs, u, key=_END)
                    if r == len(runs) or runs[r][0] > u or runs[r][1] < v:
                        raise AssertionError("forward images failed to nest")
                    # keep the parts of the run on either side of the hole
                    a, b = runs[r]
                    if a < u:
                        runs[r] = (a, u)
                        if v < b:
                            runs.insert(r + 1, (v, b))
                    elif v < b:
                        runs[r] = (v, b)
                    else:
                        del runs[r]
            arcs = len(runs) - _joins_at_zero(runs, q)
            if arcs > max_arcs:
                raise BudgetExceeded(
                    f"iterate {k + 1} needs {arcs} arcs (max_arcs={max_arcs})",
                    budget="max_arcs",
                    value=max_arcs,
                )
            if not hole:
                return AttractorResult(tuple(iterates), k, current, FiniteType.YES)
            current = _set_of_runs(q, runs[:])
            iterates.append(current)
        return AttractorResult(tuple(iterates), None, current, FiniteType.NO_WITHIN_BUDGET)

    def omega_to_depth(
        self, depth: int, max_points: int = DEFAULT_ORBIT_BUDGET
    ) -> list[CirclePoint]:
        """Backward orbit of the breakpoints: union of S^{-k}(H) for k <= depth.

        It runs on the cells of the chart table: the preimages of a cell y
        are y - b over the forward charts (lo, hi, 1, b) with lo <= y - b < hi.
        """
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        q, _, charts = self._table
        seen = set(self._grid_pieces[1])
        frontier = list(seen)
        for _ in range(depth):
            # the preimages of distinct cells are distinct
            fresh = [y - b for y in frontier for lo, hi, _, b in charts if lo <= y - b < hi]
            fresh = [x for x in fresh if x not in seen]
            seen.update(fresh)
            if len(seen) > max_points:
                raise BudgetExceeded(
                    f"backward orbit exceeds {max_points} points",
                    budget="max_points",
                    value=max_points,
                )
            if not fresh:
                break
            frontier = fresh
        return [CirclePoint(Fraction(x, q)) for x in sorted(seen)]

    def _cell_orbit(self, cell: int, budget: int, record: dict, stop=None) -> tuple:
        """The orbit of a cell of 1/q under f, S's action on the cells, up to
        its cycle: (tail, cycle, place), with tail the cells before the orbit
        enters the cycle and cycle[place] the cell it enters at, after
        len(tail) steps.

        record maps each cell of a cycle closed before to (cycle, place); the
        walk stops at the first recorded cell and writes each cycle it closes
        there, so each cycle is walked once per record.  stop, when given, is
        the caller's test of each cell the walk steps to that neither closes
        a cycle nor is recorded, and the walk ends at the first cell that
        passes it.  A walk that ends there, or closes no cycle in budget
        steps, returns (walked, None, None), walked holding the orbit up to
        and with that cell, or its first budget + 1 cells; it records
        nothing.
        """
        if cell in record:
            return [], *record[cell]
        q, starts, shifts = self._grid_pieces
        steps = {cell: 0}  # cell -> step, in walk order
        for m in range(1, budget + 1):
            # -1: a cell below the first breakpoint lies in the last piece
            cell = (cell + shifts[bisect.bisect_right(starts, cell) - 1]) % q
            if cell in record:
                return list(steps), *record[cell]
            first = steps.get(cell)
            if first is not None:
                walked = list(steps)
                cycle = walked[first:]
                record.update((c, (cycle, place)) for place, c in enumerate(cycle))
                return walked[:first], cycle, 0
            steps[cell] = m
            if stop is not None and stop(cell):
                break
        return list(steps), None, None

    def classify_homtervals(
        self, depth: int, orbit_budget: int = DEFAULT_ORBIT_BUDGET
    ) -> HomtervalReport:
        """Track the continuity gaps between discontinuity-orbit points.

        The complement of the depth-K backward orbit is a finite union of
        open arcs; each is advanced as a whole arc until its orbit repeats
        exactly (reported as preperiod and period), splits across a
        breakpoint, or exhausts the budget (reported unresolved).  The arcs
        are runs of cells of 1/q: while an arc (s, s + length) stays inside
        the piece of its first cell s, it moves whole, so its start follows
        ``_cell_orbit`` and repeats when that orbit closes its cycle.  The
        walk ends at the first start the arc would split from, the gaps
        share one record of the cycles, and only the report holds them as
        Arcs.
        """
        if depth < 1:
            raise ValueError("depth must be at least 1")
        omega = self.omega_to_depth(depth)
        q, starts, _ = self._grid_pieces
        n = len(starts)

        def room(s: int) -> int:
            # the cells from s to the next breakpoint; one piece splits no arc
            return (starts[(self._piece_of(s) + 1) % n] - s) % q if n > 1 else q

        cells = [_units(p.value, q) for p in omega]
        record: dict = {}
        # the least room on the recorded cycle through a cell, once per cycle
        least = cache(lambda c: min(map(room, record[c][0])))
        homtervals = []
        for i, p in enumerate(omega):
            # the gap to the next point; a single point leaves the whole circle
            length = (cells[(i + 1) % len(cells)] - cells[i]) % q or q
            arc = Arc(p, Fraction(length, q))
            # the arc stays whole iff it ends by the next breakpoint from each
            # of its starts: the walk ends at the first start it overhangs
            tail = cycle = None
            if length <= room(cells[i]):
                tail, cycle, _ = self._cell_orbit(
                    cells[i], orbit_budget, record, lambda s: length > room(s)
                )
            # the orbit repeats after len(tail) + len(cycle) steps, which can
            # pass the budget when the walk met a recorded cycle, whose cells
            # it did not test
            resolved = cycle is not None and len(tail) + len(cycle) <= orbit_budget
            resolved = resolved and length <= least(cycle[0])
            homtervals.append(
                Homterval(arc, len(tail), len(cycle)) if resolved else Homterval(arc)
            )
        return HomtervalReport(tuple(omega), tuple(homtervals))

    def with_breakpoint(self, x: CirclePoint) -> "Itm":
        """The same map with x inserted as an (artificial) breakpoint."""
        x = CirclePoint(x)
        if x in self.breakpoints:
            return self
        # x splits the piece i - 1, which is the last piece when i = 0
        i = bisect.bisect_left(self.breakpoints, x)
        bps = self.breakpoints[:i] + (x,) + self.breakpoints[i:]
        shs = self.shifts[:i] + (self.shifts[i - 1],) + self.shifts[i:]
        return Itm(bps, shs)

    def merged(self) -> "Itm":
        """Canonical form: adjacent pieces with equal shifts fused (circularly).

        A map that is a single rotation collapses to one piece based at 0, so
        exact equality of merged maps decides equality of the underlying
        transformations for these normal forms.
        """
        if all(c == self.shifts[0] for c in self.shifts):
            return Itm((ZERO,), (self.shifts[0],))
        keep = [j for j in range(self.n) if self.shifts[j] != self.shifts[j - 1]]
        return Itm([self.breakpoints[j] for j in keep], [self.shifts[j] for j in keep])

    def common_denominator(self) -> int:
        """lcm of all breakpoint and shift denominators (1 for integer maps)."""
        return self._grid_pieces[0]

    def affine_segments(self) -> list[tuple]:
        """The chart table read as Fractions: charts (lo, hi, 1, b), x -> x + b on
        [lo, hi), that cover [0, 1) cut open at 0 with values in [0, 1]."""
        q, _, charts = self._table
        return [(Fraction(lo, q), Fraction(hi, q), 1, Fraction(b, q)) for lo, hi, _, b in charts]

    def discontinuity_points(self) -> tuple[CirclePoint, ...]:
        return self.breakpoints

    def __repr__(self) -> str:
        bps = ", ".join(str(p.value) for p in self.breakpoints)
        shs = ", ".join(str(c) for c in self.shifts)
        return f"Itm([{bps}] -> [{shs}])"


def itm(breakpoints: Sequence, shifts: Sequence) -> Itm:
    """Shorthand constructor from raw rationals or strings."""
    return Itm(breakpoints, shifts)
