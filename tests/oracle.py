"""A deliberately naive model of itmlib on Fractions, for differential tests.

Everything here follows the definitions with the standard library alone: no
chart table, no integer grid, no cached state.  Maps are read through their
public fields (an Itm's ``breakpoints`` and ``shifts``, a PiecewiseMap's
``domain``, ``pieces``, ``boundary_values`` and ``discontinuities``) and
measures through ``density`` and ``atoms``, so a library object goes
wherever a model one does.

A set is a sorted tuple of disjoint, non-adjacent half-open segments
[lo, hi) of [0, 1]: the circle cut open at 0.  A measure is a canonical step
list, merged (lo, hi, weight) pieces, with sorted (position, mass) atoms.
Points of the circle are Fractions in [0, 1).
"""

import bisect
from fractions import Fraction
from math import floor, lcm
from operator import itemgetter

ZERO, ONE = Fraction(0), Fraction(1)
MAX_ITER, MAX_ARCS, MAX_POINTS = 4096, 2**16, 2**16  # the library's default budgets


# -- sets --------------------------------------------------------------------


def merge(raw) -> tuple:
    """Sort segments, drop empty ones and merge overlapping or adjacent ones."""
    out = []
    for lo, hi in sorted([(lo, hi) for lo, hi in raw if hi > lo], key=itemgetter(0)):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(hi, out[-1][1]))
        else:
            out.append((lo, hi))
    return tuple(out)


def intersect(a, b) -> tuple:
    return merge((max(lo, c), min(hi, d)) for lo, hi in a for c, d in b)


def union(a, b) -> tuple:
    return merge((*a, *b))


def complement(a) -> tuple:
    ends = [ZERO, *[v for seg in a for v in seg], ONE]
    return merge(zip(ends[::2], ends[1::2]))


def difference(a, b) -> tuple:
    return intersect(a, complement(b))


def translate(a, c) -> tuple:
    """A moved by c around the circle."""
    c = Fraction(c) % 1
    return merge(part for lo, hi in a for part in _moved(lo, hi, c))


def _moved(lo, hi, c) -> list:
    """[lo, hi) moved by c in [0, 1) around the circle: its parts below and above 1."""
    lo, hi = lo + c, hi + c
    if hi <= 1:
        return [(lo, hi)]
    if lo >= 1:
        return [(lo - 1, hi - 1)]
    return [(lo, ONE), (ZERO, hi - 1)]


def contains(a, x) -> bool:
    return any(lo <= x < hi for lo, hi in a)


def is_subset(a, b) -> bool:
    return union(a, b) == b


def length(a) -> Fraction:
    return sum((hi - lo for lo, hi in a), ZERO)


def arcs(a) -> list:
    """The (start, length) arcs of a set: a segment from 0 joins one ending at 1."""
    out = [(lo, hi - lo) for lo, hi in a]
    if len(a) > 1 and a[0][0] == 0 and a[-1][1] == 1:
        _, head = out.pop(0)
        out[-1] = (out[-1][0], out[-1][1] + head)
    return out


def circle_distance(x, y) -> Fraction:
    d = (x - y) % 1
    return min(d, 1 - d)


# -- maps --------------------------------------------------------------------


class Map:
    """A map as affine pieces x -> a*x + b on [lo, hi) that tile [0, 1).

    An Itm is the circle map with the slope-1 pieces [t_j, t_{j+1}) and
    shifts c_j, its last piece running through 0 and split there.  A
    PiecewiseMap gives its domain, pieces and boundary values.  On the circle
    x is read mod 1 and so is every value.
    """

    def __init__(self, t):
        if hasattr(t, "shifts"):
            starts = [p.value for p in t.breakpoints]
            shifts = list(t.shifts)
            ends = [*starts[1:], ONE]
            self.pieces = [(lo, hi, ONE, c) for lo, hi, c in zip(starts, ends, shifts)]
            if starts[0] > 0:
                self.pieces.insert(0, (ZERO, starts[0], ONE, shifts[-1]))
            self.circle, self.overrides = True, {}
        else:
            self.pieces = [(p.lo, p.hi, p.a, p.b) for p in t.pieces]
            self.circle = t.domain.value == "circle"
            self.overrides = dict(t.boundary_values)
        self.starts = [lo for lo, _, _, _ in self.pieces]

    def __call__(self, x) -> Fraction:
        x = self.reduce(x)
        if self.overrides and x in self.overrides:
            return self.overrides[x]
        # the last piece holds x = 1 on the segment
        lo, hi, a, b = self.pieces[bisect.bisect_right(self.starts, x) - 1]
        return self.reduce(x + b if a == 1 else a * x + b)

    def reduce(self, x) -> Fraction:
        """x, read mod 1 on the circle."""
        return x % 1 if self.circle and not 0 <= x.numerator < x.denominator else x

    def distance(self, x, y) -> Fraction:
        return circle_distance(x, y) if self.circle else abs(x - y)

    def charts(self) -> list:
        """Charts (lo, hi, a, b), sorted, on which x -> a*x + b stays in [0, 1]:
        on the circle each piece is cut where a*x + b crosses an integer and
        each part is moved back by it."""
        out = []
        for lo, hi, a, b in self.pieces:
            if not self.circle:
                out.append((lo, hi, a, b))
                continue
            cuts = {lo, hi}
            if a != 0:
                first, last = sorted((a * lo + b, a * hi + b))
                cuts.update((k - b) / a for k in range(floor(first) + 1, -floor(-last)))
            cuts = sorted(cuts)
            out += [(u, v, a, b - floor(a * (u + v) / 2 + b)) for u, v in zip(cuts, cuts[1:])]
        return sorted(out)

    def image(self, a) -> tuple:
        """S(A) of a slope-1 map: A cut at the pieces, each part translated."""
        return merge(part for u, v, b in self._cut(a) for part in _moved(u, v, b))

    def preimage(self, a) -> tuple:
        """S^-1(A) of a slope-1 map: A translated back and cut to each piece."""
        back = [(lo, hi, -b % 1) for lo, hi, _, b in self.pieces]
        return merge(
            (max(u, lo), min(v, hi))
            for lo, hi, c in back
            for seg in a
            for u, v in _moved(*seg, c)
        )

    def _cut(self, a) -> list:
        """The nonempty parts (u, v, b) of A inside the pieces, with their shifts."""
        parts = [(max(u, lo), min(v, hi), b) for lo, hi, _, b in self.pieces for u, v in a]
        return [(u, v, b) for u, v, b in parts if u < v]


def rotated(s, r):
    """The conjugate x -> S(x - r) + r of an Itm: breakpoints move by r, shifts stay."""
    moved = sorted(((p.value + r) % 1, c) for p, c in zip(s.breakpoints, s.shifts))
    return type(s)(tuple(p for p, _ in moved), tuple(c for _, c in moved))


def common_denominator(s) -> int:
    dens = [p.value.denominator for p in s.breakpoints] + [c.denominator for c in s.shifts]
    return lcm(*dens)


def attractor(s, max_iter=MAX_ITER, max_arcs=MAX_ARCS) -> tuple:
    """The forward images A_{k+1} = S(A_k) of the circle: (iterates,
    stabilized_at, None), stabilized_at None when max_iter steps find no
    A_{k+1} = A_k, or (iterates, None, (k, arcs)) when A_k needs more than
    max_arcs arcs."""
    f = Map(s)
    iterates = [((ZERO, ONE),)]
    for k in range(max_iter):
        nxt = f.image(iterates[-1])
        count = len(arcs(nxt))
        if count > max_arcs:
            return iterates, None, (k + 1, count)
        if nxt == iterates[-1]:
            return iterates, k, None
        iterates.append(nxt)
    return iterates, None, None


def piece_index(values, x, side="right") -> int:
    """The piece [t_j, t_{j+1}) of the breakpoint values t holding x, the last
    one through 0, or for the left limit at x the one holding the points just
    below x."""
    find = bisect.bisect_right if side == "right" else bisect.bisect_left
    return (find(values, x) - 1) % len(values)


def one_sided(s, j, side, steps) -> tuple:
    """(points, itinerary, visit counts, winding) of S^r(t_j -/+ 0), r <= steps:
    the left limit goes on through the piece ending at a breakpoint it meets,
    and the winding is the shifts summed minus the net displacement."""
    side = getattr(side, "value", side)
    values = [p.value for p in s.breakpoints]
    x = values[j]
    points, itinerary, counts = [x], [], [0] * len(s.shifts)
    for _ in range(steps):
        k = piece_index(values, x, side)
        itinerary.append(k)
        counts[k] += 1
        x = (x + s.shifts[k]) % 1
        points.append(x)
    winding = sum((c * shift for c, shift in zip(counts, s.shifts)), ZERO) - (x - points[0])
    assert winding.denominator == 1
    return tuple(points), tuple(itinerary), tuple(counts), int(winding)


def relations(s, depth) -> list:
    """Every collision S^r(t_i -/+ 0) = t_j, r <= depth, as (i, j, counts,
    winding, side, itinerary), the right orbit of each t_i before its left;
    of equal (i, j, counts, winding) the first found is kept."""
    values = [p.value for p in s.breakpoints]
    found = {}
    for i in range(len(values)):
        for side in ("right", "left"):
            points, itinerary, _, _ = one_sided(s, i, side, depth)
            counts, shifted = [0] * len(values), ZERO
            for r in range(1, depth + 1):
                k = itinerary[r - 1]
                counts[k] += 1
                shifted += s.shifts[k]
                if points[r] in values:
                    winding = values[i] + shifted - points[r]
                    assert winding.denominator == 1
                    j = values.index(points[r])
                    rel = (i, j, tuple(counts), int(winding), side, itinerary[:r])
                    found.setdefault(rel[:4], rel)
    return list(found.values())


def omega(s, depth, max_points=MAX_POINTS):
    """The backward orbit of the breakpoints, the union of S^-k(H) for k <= depth,
    sorted; None once a step leaves it with more than max_points points."""
    f = Map(s)
    seen = [p.value for p in s.breakpoints]
    frontier = seen
    for _ in range(depth):
        # the preimages of y: the points y - c that S moves by c
        fresh = {(y - c) % 1 for y in frontier for c in s.shifts}
        fresh = sorted(x for x in fresh if f(x) in frontier and x not in seen)
        seen = seen + fresh
        if len(seen) > max_points:
            return None
        if not fresh:
            break
        frontier = fresh
    return sorted(seen)


def homtervals(s, depth, budget) -> tuple:
    """omega to depth, and (start, length, preperiod, period) of the open gap
    after each of its points, moved whole until it repeats, or (start,
    length, None, None) once it would straddle a breakpoint or the budget
    runs out."""
    points = omega(s, depth)
    values = [p.value for p in s.breakpoints]
    n = len(values)
    gaps = []
    for i, p in enumerate(points):
        size = (points[(i + 1) % len(points)] - p) % 1 or ONE
        start, seen, found = p, {p: 0}, (None, None)
        for step in range(1, budget + 1):
            j = piece_index(values, start)
            if n > 1 and size > (values[(j + 1) % n] - start) % 1:
                break
            start = (start + s.shifts[j]) % 1
            if start in seen:
                found = (seen[start], step - seen[start])
                break
            seen[start] = step
        gaps.append((p, size, *found))
    return points, gaps


def orbit(t, x0, m) -> tuple:
    """("ok", (x_0, ..., x_{m-1})) stepped one evaluation at a time, or
    ("hit", step, point) at the first point in t.discontinuities."""
    f = Map(t)
    x = f.reduce(Fraction(x0))
    points = []
    for step in range(m):
        if x in t.discontinuities:
            return "hit", step, x
        points.append(x)
        if step + 1 < m:
            x = f(x)
    return "ok", tuple(points)


def first_return(t, point, radius, horizon, samples):
    """The wandering check's return time for one point and radius: starts at
    point +/- radius k/(samples + 1), k = 1..samples, in that order, those off
    the segment or whose orbit meets the discontinuity set skipped, each
    stepped horizon times; the first step within radius of the point."""
    f = Map(t)
    for k in range(1, samples + 1):
        offset = radius * k / (samples + 1)
        for start in (point + offset, point - offset):
            start = f.reduce(start)
            if not 0 <= start <= 1:
                continue
            run = orbit(t, start, horizon + 1)
            if run[0] == "hit":
                continue
            for step, x in enumerate(run[1][1:], start=1):
                if f.distance(x, point) < radius:
                    return step
    return None


# -- measures ----------------------------------------------------------------


def sweep(events) -> tuple:
    """Sum (x, change) events along the line into runs (lo, hi, level) of
    constant nonzero level, adjacent runs of equal level merged."""
    steps = {}
    for x, w in events:
        steps[x] = steps.get(x, 0) + w
    out = []
    level = prev = 0
    for x in sorted(steps):
        if level != 0:
            if out and out[-1][1] == prev and out[-1][2] == level:
                out[-1] = (out[-1][0], x, level)
            else:
                out.append((prev, x, level))
        level += steps[x]
        prev = x
    return tuple(out)


class Measure:
    """A step density plus atoms, both canonical: density pieces may overlap
    and sum, atoms at one position add up, and zero levels and masses go.
    Equal to any measure with the same ``density`` and ``atoms``."""

    def __init__(self, density=(), atoms=()):
        self.density = sweep(e for lo, hi, w in density for e in ((lo, w), (hi, -w)))
        masses = {}
        for p, m in atoms:
            masses[p] = masses.get(p, 0) + m
        self.atoms = tuple((p, masses[p]) for p in sorted(masses) if masses[p] != 0)

    def __eq__(self, other):
        return (self.density, self.atoms) == (other.density, other.atoms)

    def __repr__(self):
        return f"oracle.Measure({self.density}, {self.atoms})"


def _piece_at(mu, x, closed=True):
    """The last density piece starting at or before x (before x when not
    closed), or None; the pieces are sorted and disjoint."""
    find = bisect.bisect_right if closed else bisect.bisect_left
    i = find(mu.density, x, key=itemgetter(0)) - 1
    return mu.density[i] if i >= 0 else None


def density_at(mu, x) -> Fraction:
    """The weight of the density piece holding x."""
    piece = _piece_at(mu, x)
    return piece[2] if piece and x < piece[1] else ZERO


def total_mass(mu) -> Fraction:
    return sum((w * (hi - lo) for lo, hi, w in mu.density), ZERO) + sum(
        (m for _, m in mu.atoms), ZERO
    )


def support(mu) -> tuple:
    return merge((lo, hi) for lo, hi, w in mu.density if w > 0)


def exceptional(mu, x) -> bool:
    """x lies outside the open interior of supp mu: in no density piece's interior."""
    piece = _piece_at(mu, x, closed=False)
    return not (piece and x < piece[1])


def mass(mu, lo, hi, include_lo=True, include_hi=False) -> Fraction:
    """The mass of the interval from lo to hi, each end included or not."""
    if hi < lo:
        raise ValueError("need lo <= hi")
    if hi == lo and not (include_lo and include_hi):
        return ZERO
    clipped = [(max(a, lo), min(b, hi), w) for a, b, w in mu.density]
    inside = [
        m for p, m in mu.atoms
        if lo < p < hi or (p == lo and include_lo) or (p == hi and include_hi)
    ]
    return sum((w * (b - a) for a, b, w in clipped if b > a), ZERO) + sum(inside, ZERO)


class Cdf:
    """F(x) = mu([0, x]): its values at the cuts (0, 1, every density end and
    atom), found in one pass, and linear in between with the density there."""

    def __init__(self, mu):
        self.measure = mu
        ends = {e for lo, hi, _ in mu.density for e in (lo, hi)}
        self.cuts = tuple(sorted({ZERO, ONE, *ends, *(p for p, _ in mu.atoms)}))
        slopes, j, pieces = [], 0, mu.density
        for x in self.cuts:
            while j < len(pieces) and pieces[j][1] <= x:
                j += 1
            slopes.append(pieces[j][2] if j < len(pieces) and pieces[j][0] <= x else ZERO)
        self.slopes = tuple(slopes)
        masses = dict(mu.atoms)
        left, at, running, prev = [], [], ZERO, ZERO
        for x, slope in zip(self.cuts, (ZERO, *self.slopes)):
            running += slope * (x - prev)
            left.append(running)
            running += masses.get(x, ZERO)
            at.append(running)
            prev = x
        self.value_left, self.value_at = tuple(left), tuple(at)

    def rows(self) -> list:
        """[x, F(x-), F(x), slope on [x, next cut)] at each cut."""
        return [list(row) for row in zip(self.cuts, self.value_left, self.value_at, self.slopes)]

    def at(self, x) -> Fraction:
        if x < 0:
            return ZERO
        i = bisect.bisect_right(self.cuts, x) - 1
        return self.value_at[i] + self.slopes[i] * (x - self.cuts[i])

    def left_limit(self, x) -> Fraction:
        if x <= 0:
            return ZERO
        i = bisect.bisect_left(self.cuts, x)
        if i < len(self.cuts) and self.cuts[i] == x:
            return self.value_left[i]
        return self.value_at[i - 1] + self.slopes[i - 1] * (x - self.cuts[i - 1])

    def quantile(self, y) -> Fraction:
        """The smallest x with F(x) >= y, or 1 when F stays below y."""
        if y <= 0:
            return ZERO
        i = bisect.bisect_left(self.value_at, y)
        if i == len(self.cuts):
            return ONE
        if i > 0 and self.value_left[i] >= y:
            # F rises linearly from value_at[i - 1] < y to value_left[i] >= y
            return self.cuts[i - 1] + (y - self.value_at[i - 1]) / self.slopes[i - 1]
        return self.cuts[i]

    def rightmost_preimage(self, y) -> Fraction:
        """The largest x with F(x) = y, for an atom-free F."""
        i = bisect.bisect_right(self.value_at, y) - 1
        if self.value_at[i] == y:
            return self.cuts[i]
        return self.cuts[i] + (y - self.value_at[i]) / self.slopes[i]


def walk(pieces, charts) -> list:
    """Each piece (lo, hi, *weights) clipped to each chart (lo, hi, a, b) it
    meets and moved by x -> a*x + b: a weight per unit length becomes
    weight/|a|, and a flat chart gathers the clipped mass into (b, b, mass)."""
    out = []
    for lo, hi, *weights in pieces:
        for c_lo, c_hi, a, b in charts:
            u, v = max(lo, c_lo), min(hi, c_hi)
            if u >= v:
                continue
            if a == 0:
                out.append((b, b, *(w * (v - u) for w in weights)))
            else:
                out.append((*sorted((a * u + b, a * v + b)), *(w / abs(a) for w in weights)))
    return out


def pushforward(t, mu) -> Measure:
    """T#mu: the density walked through T's charts, the atoms moved by T."""
    f = Map(t)
    moved = walk(mu.density, f.charts())
    return Measure(
        [(lo, hi, w) for lo, hi, w in moved if lo < hi],
        [(lo, w) for lo, hi, w in moved if lo == hi] + [(f(p), m) for p, m in mu.atoms],
    )


def tv_distance(mu, nu) -> Fraction:
    """|mu - nu|: the signed measure mu - nu summed from both measures'
    pieces and atoms, its density integrated in absolute value."""
    signed = Measure(
        [*mu.density, *((lo, hi, -w) for lo, hi, w in nu.density)],
        [*mu.atoms, *((p, -m) for p, m in nu.atoms)],
    )
    return sum((abs(w) * (hi - lo) for lo, hi, w in signed.density), ZERO) + sum(
        (abs(m) for _, m in signed.atoms), ZERO
    )


def cdf_distance(mu, nu) -> Fraction:
    """sup |F_mu - F_nu|, read at every cut of either and just below it."""
    f, g = Cdf(mu), Cdf(nu)
    return max(
        max(abs(f.at(x) - g.at(x)), abs(f.left_limit(x) - g.left_limit(x)))
        for x in sorted({*f.cuts, *g.cuts})
    )


def mass_near_points(mu, points, delta, wrap=True) -> list:
    """mu((t - delta, t + delta)) per point t, on the circle or clipped to [0, 1]."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    out = []
    for t in points:
        t = getattr(t, "value", t)  # a CirclePoint's value
        lo, hi = t - delta, t + delta
        if not wrap:
            out.append(mass(mu, max(lo, ZERO), min(hi, ONE), lo < 0, hi > 1))
        elif delta > Fraction(1, 2):
            out.append(total_mass(mu))
        elif lo % 1 < hi % 1:
            out.append(mass(mu, lo % 1, hi % 1, include_lo=False))
        else:
            out.append(mass(mu, lo % 1, ONE, False, True) + mass(mu, ZERO, hi % 1))
    return out


def recurrence(s, mu, eps, horizon, samples, rng=None) -> list:
    """(point, time, distance) per sample of find_recurrent_points, by stepping
    the point's orbit: the first m <= horizon with S^m(x) within eps of x, the
    walk stopping on a repeated point; (point, None, None) without a return.

    The samples are F's quantiles of the levels total (2i + 1)/(2 samples),
    or of total times 40 random bits.  A level reached at a cell end of the
    map's grid from the left moves into the cell before, no further back than
    the last end of the density or atom below it.
    """
    cdf, f, q = Cdf(mu), Map(s), common_denominator(s)
    total = cdf.value_at[-1]
    levels = [
        total * Fraction(rng.getrandbits(40), 1 << 40)
        if rng is not None
        else total * Fraction(2 * i + 1, 2 * samples)
        for i in range(samples)
    ]
    out = []
    for y in levels:
        x = cdf.quantile(y)
        if x > 0 and (x * q).denominator == 1 and cdf.left_limit(x) == y:
            ends = [e for lo, hi, _ in mu.density for e in (lo, hi)] + [p for p, _ in mu.atoms]
            x = max(x - Fraction(1, q), max(e for e in ends if e < x))
        x %= 1
        found, cur, visited = (x, None, None), x, {x}
        for m in range(1, horizon + 1):
            cur = f(cur)
            if circle_distance(cur, x) < eps:
                found = (x, m, circle_distance(cur, x))
                break
            if cur in visited:
                break
            visited.add(cur)
        out.append(found)
    return out


# -- the exchange read through h ---------------------------------------------


def verify_iem(t) -> tuple:
    """(lebesgue_ok, injective, overlap, failures) for an Itm read as an
    exchange: the overlap summed over pairs of piece images, and the preimage
    length of each cell of the refinement cut by 0 and the images' ends."""
    f = Map(t)
    values = [p.value for p in t.breakpoints]
    images, cuts, sizes = [], {ZERO}, []
    for j, c in enumerate(t.shifts):
        size = (values[(j + 1) % len(values)] - values[j]) % 1 or ONE
        sizes.append(size)
        start = (values[j] + c) % 1
        end = start + size
        raw = [(start, end)] if end <= 1 else [(start, ONE), (ZERO, end - 1)]
        cuts.update(e for seg in raw for e in seg if e < 1)
        images.append(merge(raw))
    assert sum(sizes) == 1, "piece lengths do not sum to 1"
    overlap = sum(
        (length(intersect(a, b)) for i, a in enumerate(images) for b in images[i + 1:]), ZERO
    )
    cuts = sorted(cuts)
    changed = [
        f"Lebesgue mass of [{lo},{hi}) changes under preimage"
        for lo, hi in zip(cuts, [*cuts[1:], ONE])
        if length(f.preimage(((lo, hi),))) != hi - lo
    ]
    failures = [f"piece images overlap in total length {overlap}"] if overlap else []
    return not changed, overlap == 0, overlap, tuple(failures + changed)


def induced(s, mu) -> tuple:
    """The breakpoints and shifts of the exchange T = h S h^-1, h(x) = mu([0, x]):
    one piece per component of supp mu inside a piece of S cut at 0, starting
    at h of its left end, shifted by h(S(x)) - h(x) at its midpoint."""
    h, f = Cdf(mu), Map(s)
    starts, shifts = [], []
    for lo, hi, _, _ in f.pieces:
        for u, v in intersect(support(mu), ((lo, hi),)):
            mid = (u + v) / 2
            starts.append(h.at(u))
            shifts.append((h.at(f(mid)) - h.at(mid)) % 1)
    return tuple(starts), tuple(shifts)


def between(points, lo, hi) -> list:
    """The sorted points strictly between lo and hi."""
    return points[bisect.bisect_right(points, lo):bisect.bisect_left(points, hi)]


def semiconjugacy_cells(s, mu, t) -> list:
    """Cells (u, v, b) tiling [0, 1) on which h(S(x)) and T(h(x)) are both
    affine: each chart (lo, hi, 1, b) of S cut at h's cuts, at their
    S-preimages and at the rightmost h-preimages of T's chart ends."""
    h = Cdf(mu)
    ends = [y for lo, hi, _, _ in Map(t).charts() for y in (lo, hi)]
    pulled = sorted(h.rightmost_preimage(y) for y in ends)
    cells = []
    for lo, hi, _, b in Map(s).charts():
        edges = {lo, hi, *between(h.cuts, lo, hi), *between(pulled, lo, hi)}
        edges.update(y - b for y in between(h.cuts, lo + b, hi + b))
        edges = sorted(edges)
        cells += [(u, v, b) for u, v in zip(edges, edges[1:])]
    return cells


def semiconjugacy_failure(s, mu, t):
    """The first cell where h has positive slope and h(S(x)) and T(h(x))
    differ in slope or at the midpoint, or None."""
    h, g = Cdf(mu), Map(t)
    for u, v, b in semiconjugacy_cells(s, mu, t):
        x = (u + v) / 2
        slope = density_at(mu, x)
        if slope == 0:
            continue
        if density_at(mu, x + b) != slope or h.at(x + b) != g(h.at(x)):
            return u, v
    return None


def sampled_semiconjugacy(s, mu, t, n) -> bool:
    """Whether h(S(x)) = T(h(x)) at the points x = (2i + 1)/2n, i < n, off the
    exceptional set."""
    h, f, g = Cdf(mu), Map(s), Map(t)
    points = [Fraction(2 * i + 1, 2 * n) for i in range(n)]
    return all(h.at(f(x)) == g(h.at(x)) for x in points if not exceptional(mu, x))
