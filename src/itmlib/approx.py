"""Relation-preserving rational approximation of interval translation maps.

Integer relations among breakpoints and shifts are harvested from exact
one-sided endpoint orbits, stepped as integer lifts on the cells of the
map's grid, where a relation's winding is the number of times the
unreduced orbit passed 1.  A schedule of rational approximants keeps every
relation exactly while the free coordinates follow the best rational
approximations of the target, all read from one continued fraction
expansion per coordinate, so the invariant measures of the approximants
can be compared level by level: endpoint collisions are replayed,
attractor measures computed, successive distribution distances checked
for a Cauchy tail, and a candidate limit measure tested against the two
invariance hypotheses (vanishing mass near the discontinuities, read on
integer ends from the measure's cumulative table, and small functional
residual, in floats built once per measure for trig families).

Every exact output is a Fraction built once, at the end of its
computation.  A level is computed on its own integer grid: the best
approximations come as (p, q) pairs, the solved coordinates are integer
numerators over the grid, and the map is built from them
(``Itm._on_grid``); its distance to the target is a maximum taken by
cross-multiplication.  The Cauchy distances walk two integer cumulative
tables (``measure.cdf_distance``), and the limit masses of each delta are
integer numerators over one denominator (``measure._masses_near``),
summed before their one Fraction is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from itmlib.catalog import fibonacci_up_to
from itmlib.circle import ZERO, Rational, _integer, _units, frac
from itmlib.itm import (
    DEFAULT_MAX_ARCS,
    DEFAULT_MAX_ITER,
    AttractorResult,
    BudgetExceeded,
    Itm,
    Side,
)
from itmlib.families import invariance_residual_functional
from itmlib.measure import (
    Measure,
    NotFiniteType,
    _masses_near,
    attractor_measure,
    cdf_distance,
)
from itmlib.piecewise import Domain

DEFAULT_DENOMINATOR_LIMIT = 10**6
# Most itinerary steps the witnesses of one relation harvest may hold: the
# rotation by 0 holds 245350 at depth 700, where every step is a relation.
_WITNESS_STEPS = 2**20


def _tolerance(value, key: str) -> Fraction:
    """A tolerance taken from a caller, as an exact nonnegative rational.

    Negative values, NaN and infinities are refused with a ValueError that
    names the key, so no tolerance quietly fails or passes every check.
    """
    try:
        tol = frac(value)
    except (ValueError, OverflowError):
        tol = None
    if tol is None or tol < 0:
        raise ValueError(f"'{key}' must be a finite nonnegative number: {value!r}")
    return tol


class InconsistentRelations(ValueError):
    """The relation system admits no rational solution near the target."""


class OrderViolation(ValueError):
    """An approximant level broke the breakpoint ordering."""

    def __init__(self, bound: int, message: str):
        super().__init__(f"denominator bound {bound}: {message}")
        self.bound = bound


@dataclass(frozen=True)
class Relation:
    """Exact identity t_j - t_i = sum_k l[k] * c_k - w among map parameters.

    l counts orbit steps through each piece and w is the integer winding
    lifting the mod-1 identity to the rationals.  Harvested relations
    carry their witness (the orbit side and itinerary); declared ones do
    not and are never replayed.
    """

    i: int
    j: int
    l: tuple[int, ...]
    w: int
    side: Optional[Side] = None
    itinerary: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        for key in ("i", "j", "w"):
            object.__setattr__(self, key, _integer(getattr(self, key), key))
        object.__setattr__(self, "l", tuple(_integer(v, "l") for v in self.l))
        if any(v < 0 for v in self.l):
            raise ValueError("visit counts must be nonnegative")
        if not (0 <= self.i < len(self.l) and 0 <= self.j < len(self.l)):
            raise ValueError("relation indices outside the piece range")
        if self.side is not None:
            object.__setattr__(self, "side", Side(self.side))
        if self.itinerary is not None:
            itin = tuple(_integer(k, "itinerary") for k in self.itinerary)
            object.__setattr__(self, "itinerary", itin)
            if self.side is None:
                raise ValueError("a witness itinerary needs a side")
            if any(not 0 <= k < len(self.l) for k in itin):
                raise ValueError("itinerary steps outside the piece range")
            if tuple(itin.count(k) for k in range(len(self.l))) != self.l:
                raise ValueError("itinerary does not match the visit counts")

    @property
    def depth(self) -> int:
        return sum(self.l)

    @property
    def witnessed(self) -> bool:
        return self.itinerary is not None

    def residual(
        self, breakpoints: Sequence[Fraction], shifts: Sequence[Fraction]
    ) -> Fraction:
        """t_j - t_i - sum_k l[k] * c_k + w at the given parameter values,
        rationals or CirclePoints."""
        total = sum(
            (Fraction(lk) * frac(ck) for lk, ck in zip(self.l, shifts)), ZERO
        )
        return frac(breakpoints[self.j]) - frac(breakpoints[self.i]) - total + self.w


@dataclass(frozen=True)
class RelationSystem:
    """Relations together with the orbit depth they were harvested at."""

    relations: tuple[Relation, ...]
    source_depth: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "relations", tuple(self.relations))

    @classmethod
    def empty(cls) -> "RelationSystem":
        return cls((), 0)

    @classmethod
    def declared(cls, relations: Sequence[Relation]) -> "RelationSystem":
        rels = tuple(relations)
        depth = max((r.depth for r in rels), default=0)
        return cls(rels, depth)

    def witnessed_up_to(self, depth: int) -> tuple[Relation, ...]:
        return tuple(r for r in self.relations if r.witnessed and r.depth <= depth)

    def __len__(self) -> int:
        return len(self.relations)

    def __iter__(self):
        return iter(self.relations)


def detect_relations(s: Itm, depth: int) -> RelationSystem:
    """Harvest every exact endpoint collision S^r(t_i +/- 0) = t_j, r <= depth.

    Only exact rational coincidences count; near-collisions are ignored.
    Duplicate (i, j, l, w) hits keep their first witness.  Each orbit is
    the integer walk of ``Itm.evaluate_one_sided`` (``Itm._one_sided``): a
    collision is a lift whose cell lift % q holds a breakpoint, and its
    winding is lift // q.  A witness of r steps keeps its r-step itinerary,
    so the kept witnesses can grow with the square of the depth; once they
    hold more than _WITNESS_STEPS steps, BudgetExceeded is raised.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    q, starts, _ = s._grid_pieces
    lookup = {t: idx for idx, t in enumerate(starts)}
    found: dict[tuple, Relation] = {}
    kept = 0  # itinerary steps held by the witnesses in found
    for i in range(s.n):
        for side in (Side.RIGHT, Side.LEFT):
            itinerary, lifts = s._one_sided(i, side, depth)
            counts = [0] * s.n
            for r, (k, lift) in enumerate(zip(itinerary, lifts[1:]), start=1):
                counts[k] += 1
                j = lookup.get(lift % q)
                if j is None:
                    continue
                key = (i, j, tuple(counts), lift // q)
                if key in found:
                    continue
                kept += r
                if kept > _WITNESS_STEPS:
                    raise BudgetExceeded(
                        f"relation witnesses at depth {depth} exceed the budget "
                        f"of {_WITNESS_STEPS} itinerary steps",
                        budget="witness_steps",
                        value=_WITNESS_STEPS,
                    )
                found[key] = Relation(*key, side, itinerary[:r])
    return RelationSystem(tuple(found.values()), depth)


@dataclass(frozen=True)
class Level:
    """One approximant: denominator bound, the map, and its distance to target.

    distance is the sup over free coordinates of the approximation error
    (None for hand-built levels).
    """

    bound: int
    map: Itm
    distance: Optional[Fraction] = None


@dataclass(frozen=True)
class ApproximantSchedule:
    """Rational approximants of a target map, all satisfying the relations.

    Every level satisfies every attached relation modulo 1 exactly (the
    residual is an integer), and the recorded free-coordinate distances
    to the target never increase.
    """

    target: Itm
    relations: RelationSystem
    levels: tuple[Level, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))
        for level in self.levels:
            if level.map.n != self.target.n:
                raise ValueError("level piece count differs from the target")
            for rel in self.relations:
                res = rel.residual(level.map.breakpoints, level.map.shifts)
                if res.denominator != 1:
                    raise ValueError(
                        f"level {level.bound} violates relation "
                        f"({rel.i},{rel.j},{rel.l},{rel.w})"
                    )
        distances = [lv.distance for lv in self.levels if lv.distance is not None]
        if any(b > a for a, b in zip(distances, distances[1:])):
            raise ValueError("level distances to the target must not increase")


def _solve_relation_system(
    relations: RelationSystem, n: int
) -> tuple[list[tuple[int, int, int, list[tuple[int, int]]]], list[int]]:
    """Reduce the relation equations over the 2n parameters (t's then c's).

    Returns each dependent column on integers, as (column, d, c, [(f, a),
    ...]) with the column's value (c + sum of a * x_f) / d over free
    columns f, plus the free column list.  Pivots prefer later
    breakpoints, then later shifts, and protect t_0, so anchored targets
    keep their first breakpoint free.
    """
    width = 2 * n
    rows: list[list[Fraction]] = []
    for rel in relations:
        row = [ZERO] * (width + 1)
        row[rel.j] += 1
        row[rel.i] -= 1
        for k, lk in enumerate(rel.l):
            row[n + k] -= lk
        row[width] = Fraction(-rel.w)
        rows.append(row)

    preference = list(range(n - 1, 0, -1)) + list(range(width - 1, n - 1, -1)) + [0]
    pivot_of: dict[int, int] = {}
    used: set[int] = set()
    for col in preference:
        pivot = next(
            (r for r in range(len(rows)) if r not in used and rows[r][col] != 0),
            None,
        )
        if pivot is None:
            continue
        used.add(pivot)
        pivot_of[col] = pivot
        coef = rows[pivot][col]
        rows[pivot] = [v / coef for v in rows[pivot]]
        for r in range(len(rows)):
            if r != pivot and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot])]
    for r in range(len(rows)):
        if r not in used and rows[r][width] != 0:
            raise InconsistentRelations("relation system has no solution")

    free = [col for col in range(width) if col not in pivot_of]
    solved = []
    for col, r in pivot_of.items():
        c, terms = rows[r][width], [(f, -rows[r][f]) for f in free if rows[r][f] != 0]
        d = lcm(c.denominator, *(a.denominator for _, a in terms))
        solved.append((col, d, _units(c, d), [(f, _units(a, d)) for f, a in terms]))
    return solved, free


def _best_approximations(x: Fraction, bounds: Sequence[int]) -> list[tuple[int, int]]:
    """x.limit_denominator(b) for each of the increasing bounds b, as its
    numerator and denominator, read from one continued fraction expansion of
    x.

    Under a bound b the best approximation is the last convergent p1/q1 with
    q1 <= b or the semiconvergent (p0 + k p1)/(q0 + k q1) with the largest k
    keeping its denominator within b, whichever is closer to x; a tie goes
    to the convergent.  The expansion advances only while the next
    convergent's denominator fits, so a larger bound resumes it where the
    previous one stopped.
    """
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = x.numerator, x.denominator
    out = []
    for bound in bounds:
        if x.denominator <= bound:
            out.append((x.numerator, x.denominator))
            continue
        while True:
            a = n // d
            q2 = q0 + a * q1
            if q2 > bound:
                break
            p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
            n, d = d, n - a * d
        k = (bound - q0) // q1
        # the two candidates lie 1/(q1 (q0 + k q1)) apart and p1/q1 lies
        # d/(q1 den x) from x, so p1/q1 is at least as close iff
        # 2 d (q0 + k q1) <= den x
        if 2 * d * (q0 + k * q1) <= x.denominator:
            out.append((p1, q1))
        else:
            out.append((p0 + k * p1, q0 + k * q1))
    return out


def generate_approximants(
    target: Itm,
    relations: Optional[RelationSystem] = None,
    denominators: Optional[Sequence[int]] = None,
    precision: Rational = 0,
) -> ApproximantSchedule:
    """Best rational approximants of the target that keep every relation.

    Dependent coordinates are solved exactly from the free ones.  Each free
    coordinate takes its best approximation under each denominator bound,
    ``Fraction.limit_denominator(bound)``, read for all bounds from one
    continued fraction expansion (``_best_approximations``).  precision
    bounds the allowed relation residual at the target itself (0 demands
    exactness, as for harvested relations); a negative or NaN precision is
    refused with a ValueError.

    Each level is computed on its own integer grid G: the lcm of the free
    coordinates' denominators times that of the solved rows'.  Every
    coordinate is an integer numerator over G, the breakpoint order is
    checked on the numerators, and the map is built from them
    (``Itm._on_grid``).  The distance to the target is the largest error
    |p/q - x| of a free coordinate, compared by cross-multiplication and
    built as one Fraction.
    """
    relations = relations if relations is not None else RelationSystem.empty()
    if denominators is None:
        denominators = fibonacci_up_to(DEFAULT_DENOMINATOR_LIMIT)
    denominators = [_integer(q, "denominators") for q in denominators]
    if not denominators:
        raise ValueError("at least one denominator bound is required")
    if any(q < 1 for q in denominators):
        raise ValueError("denominator bounds must be positive")
    if any(b <= a for a, b in zip(denominators, denominators[1:])):
        raise ValueError("denominator bounds must be strictly increasing")

    n = target.n
    target_vec = [t.value for t in target.breakpoints] + list(target.shifts)
    tol = _tolerance(precision, "precision")
    for rel in relations:
        if len(rel.l) != n:
            raise ValueError("relation visit counts do not match the piece count")
        res = rel.residual(target_vec[:n], target_vec[n:])
        if abs(res) > tol:
            raise InconsistentRelations(
                f"target violates relation ({rel.i},{rel.j},{rel.l},{rel.w}) "
                f"by {res}"
            )

    solved, free = _solve_relation_system(relations, n)
    rows_grid = lcm(*(d for _, d, _, _ in solved))
    best = {col: _best_approximations(target_vec[col], denominators) for col in free}
    levels = []
    for m, bound in enumerate(denominators):
        # the grid holds every free q and every solved row's d
        grid = lcm(*(best[col][m][1] for col in free)) * rows_grid
        values = [0] * (2 * n)  # numerators over grid
        err_num, err_den = 0, 1
        for col in free:
            (p, q), x = best[col][m], target_vec[col]
            values[col] = p * (grid // q)
            num, den = abs(p * x.denominator - x.numerator * q), q * x.denominator
            if num * err_den > err_num * den:
                err_num, err_den = num, den
        for col, d, c, terms in solved:
            values[col] = (c * grid + sum(a * values[f] for f, a in terms)) // d
        breakpoints = [v % grid for v in values[:n]]
        if any(b <= a for a, b in zip(breakpoints, breakpoints[1:])):
            raise OrderViolation(bound, "approximant breakpoints lose their order")
        s = Itm._on_grid(grid, breakpoints, [v % grid for v in values[n:]])
        levels.append(Level(bound=bound, map=s, distance=Fraction(err_num, err_den)))
    return ApproximantSchedule(target=target, relations=relations, levels=levels)


@dataclass(frozen=True)
class CollisionFailure:
    """One replayed witness that broke at a schedule level."""

    level: int
    relation: Relation
    reason: str


@dataclass(frozen=True)
class CollisionReport:
    """Replayed endpoint collisions per level; levels count from 1."""

    depth: int
    checked: int
    failures: tuple[CollisionFailure, ...]
    uniform_from: Optional[int]

    @property
    def all_pass(self) -> bool:
        return not self.failures


def orbit_collision_preservation(
    schedule: ApproximantSchedule,
    relations: Optional[RelationSystem] = None,
    depth: Optional[int] = None,
) -> CollisionReport:
    """Replay every witnessed collision of depth <= depth at every level.

    A replay passes when the approximant's one-sided orbit repeats the
    witness itinerary and lands exactly on the expected breakpoint.
    uniform_from is the first level from which every replay passes.
    """
    relations = relations if relations is not None else schedule.relations
    if depth is None:
        depth = relations.source_depth
    witnessed = relations.witnessed_up_to(depth)
    failures = []
    passing: list[bool] = []
    for m, level in enumerate(schedule.levels, start=1):
        ok = True
        for rel in witnessed:
            orbit = level.map.evaluate_one_sided(rel.i, rel.side, rel.depth)
            if orbit.itinerary != rel.itinerary:
                ok = False
                failures.append(
                    CollisionFailure(m, rel, "orbit itinerary deviates")
                )
                continue
            if orbit.points[-1] != level.map.breakpoints[rel.j]:
                ok = False
                failures.append(
                    CollisionFailure(m, rel, "orbit misses the breakpoint")
                )
        passing.append(ok)
    uniform_from: Optional[int] = None
    for m in range(len(passing), 0, -1):
        if not passing[m - 1]:
            break
        uniform_from = m
    return CollisionReport(
        depth=depth,
        checked=len(witnessed) * len(schedule.levels),
        failures=tuple(failures),
        uniform_from=uniform_from,
    )


@dataclass(frozen=True)
class LevelMeasure:
    """Attractor measure of one level, or the error that prevented it."""

    bound: int
    map: Itm
    attractor: Optional[AttractorResult] = None
    measure: Optional[Measure] = None
    error: Optional[Exception] = None


def measure_sequence(
    schedule: ApproximantSchedule,
    max_iter: int = DEFAULT_MAX_ITER,
    max_arcs: int = DEFAULT_MAX_ARCS,
) -> tuple[LevelMeasure, ...]:
    """Attractor and invariant measure per level; failures do not abort."""
    out = []
    for level in schedule.levels:
        try:
            att = level.map.attractor(max_iter=max_iter, max_arcs=max_arcs)
            mu = attractor_measure(level.map, att)
            out.append(
                LevelMeasure(
                    bound=level.bound, map=level.map, attractor=att, measure=mu
                )
            )
        except (NotFiniteType, BudgetExceeded) as exc:
            out.append(LevelMeasure(bound=level.bound, map=level.map, error=exc))
    return tuple(out)


@dataclass(frozen=True)
class ConvergenceReport:
    """Successive distribution distances and the Cauchy-tail verdict.

    cauchy_from is the first index with every later successive distance
    within tol; the candidate is just the last measure, never a proven
    limit.
    """

    distances: tuple[Fraction, ...]
    tol: Fraction
    cauchy_from: Optional[int]
    limit_candidate: Measure

    @property
    def is_cauchy(self) -> bool:
        return self.cauchy_from is not None


def detect_convergence(
    mus: Sequence[Measure], tol: Rational
) -> ConvergenceReport:
    """Check successive cdf distances of the sequence for a tail within tol.

    tol must be a finite nonnegative number; ValueError otherwise.
    """
    if len(mus) < 2:
        raise ValueError("need at least two measures")
    tol = _tolerance(tol, "tol")
    distances = tuple(
        cdf_distance(a, b) for a, b in zip(mus, mus[1:])
    )
    cauchy_from: Optional[int] = None
    for idx in range(len(distances), 0, -1):
        if distances[idx - 1] > tol:
            break
        cauchy_from = idx - 1
    return ConvergenceReport(
        distances=distances,
        tol=tol,
        cauchy_from=cauchy_from,
        limit_candidate=mus[-1],
    )


@dataclass(frozen=True)
class LimitReport:
    """Invariance hypotheses for a candidate limit measure.

    Hypothesis (a): mass near the discontinuity points drops below
    tol_mass for small delta.  Hypothesis (b): the functional invariance
    residual stays within tol_res.
    """

    deltas: tuple[Fraction, ...]
    masses: tuple[Fraction, ...]
    mass_ok: bool
    residual: float
    residual_ok: bool
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_limit_measure(
    s_target,
    mu_star: Measure,
    points: Optional[Sequence[Rational]] = None,
    tol_mass: Rational = Fraction(1, 100),
    tol_res: float = 1e-6,
    deltas: Optional[Sequence[Rational]] = None,
    family=None,
) -> LimitReport:
    """Test the two hypotheses making a weak-* limit invariant.

    The neighbourhood mass of the discontinuity set must fall below
    tol_mass along the shrinking deltas, and the functional residual of
    the candidate must be within tol_res.  An atom sitting on a
    discontinuity keeps the mass bounded away from zero and fails (a).
    Masses are summed over the points, an upper bound for the union
    when neighbourhoods overlap.

    The candidate must be a probability measure, since tol_mass is an
    absolute bound, the tolerances nonnegative numbers, the deltas a
    nonempty, strictly decreasing sequence, and the residual needs the
    density weights of mu_star and its image within the float range;
    ValueError otherwise.

    Per delta, the points' masses are integer numerators over one
    denominator, read from the cumulative table of mu_star at integer ends
    (``measure._masses_near``); they are summed as integers and the sum is
    built as one Fraction.
    """
    if not mu_star.is_probability:
        raise ValueError("the candidate limit measure must be a probability measure")
    tol_mass = _tolerance(tol_mass, "tol_mass")
    tol_res = _tolerance(tol_res, "tol_res")
    if points is None:
        points = s_target.discontinuity_points()
    wrap = getattr(s_target, "domain", Domain.CIRCLE) == Domain.CIRCLE
    if deltas is None:
        deltas = tuple(Fraction(1, 2**k) for k in range(2, 13))
    deltas = tuple(frac(d) for d in deltas)
    if not deltas:
        raise ValueError("deltas must not be empty")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be strictly decreasing")
    near = [_masses_near(mu_star, points, d, wrap) for d in deltas]
    masses = tuple(Fraction(sum(nums), den) for den, nums in near)
    mass_ok = masses[-1] <= tol_mass
    residual = invariance_residual_functional(s_target, mu_star, family)
    residual_ok = residual <= tol_res
    failures = []
    if not mass_ok:
        failures.append("mass near the discontinuity set stays above tolerance")
    if not residual_ok:
        failures.append("functional invariance residual exceeds tolerance")
    return LimitReport(
        deltas=deltas,
        masses=masses,
        mass_ok=mass_ok,
        residual=float(residual),
        residual_ok=residual_ok,
        failures=tuple(failures),
    )


def mass_profile(
    measures: Sequence[LevelMeasure], deltas: Sequence[Rational]
) -> tuple[tuple[Fraction, Fraction], ...]:
    """Per delta, the worst mass near the breakpoints across all levels.

    Each level's masses are integer numerators over one denominator
    (``measure._masses_near``), and its largest is built as one Fraction.
    """
    out = []
    for d in deltas:
        worst = ZERO
        for lm in measures:
            if lm.measure is not None:
                den, near = _masses_near(lm.measure, lm.map.breakpoints, d, wrap=True)
                worst = max(worst, Fraction(max(near), den))
        out.append((frac(d), worst))
    return tuple(out)
