"""One-sided breakpoint orbits and the relations they harvest, stepped on the
cells of the map's grid, against the CirclePoint walk they replaced."""

import bisect
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itmlib.approx import (
    Relation,
    RelationSystem,
    detect_relations,
    generate_approximants,
    orbit_collision_preservation,
)
from itmlib.catalog import half_collapse, rotation, two_shift_example
from itmlib.circle import CirclePoint
from itmlib.itm import EndpointOrbit, Itm, Side, itm

F = Fraction


def fraction_evaluate_one_sided(s: Itm, j: int, side: Side, steps: int) -> EndpointOrbit:
    """S^r(t_j +/- 0) stepped on CirclePoints with a bisect of the breakpoint
    values per step, the winding summed on Fractions."""
    values = [p.value for p in s.breakpoints]
    cur = s.breakpoints[j]
    points, itinerary, counts = [cur], [], [0] * s.n
    for _ in range(steps):
        # a left limit sitting exactly on a breakpoint belongs to the piece before it
        i = bisect.bisect_left(values, cur.value)
        if side is Side.LEFT and i < s.n and values[i] == cur.value:
            k = (i - 1) % s.n
        else:
            k = s.piece_index(cur)
        itinerary.append(k)
        counts[k] += 1
        cur = cur + s.shifts[k]
        points.append(cur)
    total = sum((counts[k] * s.shifts[k] for k in range(s.n)), F(0))
    winding = total - (points[-1].value - points[0].value)
    assert winding.denominator == 1
    return EndpointOrbit(j, side, tuple(points), tuple(itinerary), tuple(counts), int(winding))


def fraction_detect_relations(s: Itm, depth: int) -> RelationSystem:
    """Every collision S^r(t_i +/- 0) = t_j, r <= depth, on the Fraction
    orbits: landing points looked up among the breakpoints, the winding
    t_i + (shifts so far) - S^r(t_i +/- 0) summed on Fractions."""
    lookup = {t: idx for idx, t in enumerate(s.breakpoints)}
    found = {}
    for i in range(s.n):
        for side in (Side.RIGHT, Side.LEFT):
            orbit = fraction_evaluate_one_sided(s, i, side, depth)
            counts = [0] * s.n
            shifted = F(0)
            for r in range(1, depth + 1):
                k = orbit.itinerary[r - 1]
                counts[k] += 1
                shifted += s.shifts[k]
                j = lookup.get(orbit.points[r])
                if j is None:
                    continue
                winding = s.breakpoints[i].value + shifted - orbit.points[r].value
                assert winding.denominator == 1
                rel = Relation(i, j, tuple(counts), int(winding), side, orbit.itinerary[:r])
                found.setdefault((rel.i, rel.j, rel.l, rel.w), rel)
    return RelationSystem(tuple(found.values()), depth)


def assert_matches_fraction_walk(s: Itm, steps: int, depth: int) -> None:
    for j in range(s.n):
        for side in Side:
            orbit = s.evaluate_one_sided(j, side, steps)
            assert orbit == fraction_evaluate_one_sided(s, j, side, steps)
    assert detect_relations(s, depth) == fraction_detect_relations(s, depth)


@st.composite
def itms(draw, max_pieces=4, max_denominator=32):
    n = draw(st.integers(1, max_pieces))
    q = st.fractions(min_value=0, max_value=1, max_denominator=max_denominator)
    bps = draw(st.lists(q.filter(lambda v: v < 1), min_size=n, max_size=n, unique=True))
    shifts = draw(st.lists(q, min_size=n, max_size=n))
    return Itm(tuple(sorted(bps)), tuple(shifts))


@st.composite
def raw_maps(draw, max_pieces=5, max_q=64):
    """Maps drawn as raw integers on a grid, so breakpoints at 0, shifts of
    0 and orbits landing on breakpoints all come up."""
    q = draw(st.integers(1, max_q))
    starts = sorted(draw(st.sets(st.integers(0, q - 1), min_size=1, max_size=max_pieces)))
    shifts = [draw(st.integers(0, q - 1)) for _ in starts]
    return Itm(tuple(F(b, q) for b in starts), tuple(F(c, q) for c in shifts))


SPECIAL_MAPS = [
    rotation(0),
    half_collapse(),
    two_shift_example(),
    itm(["0", "1/2"], ["1/2", "0"]),  # the left limit at 0 stays at 0
    itm(["1/4", "3/4"], ["0", "1/4"]),  # a shift of 0 on a wrapping piece
    itm(["0", "1/8", "5/8"], ["7/8", "0", "3/8"]),
    itm(["9/10"], ["1/10"]),  # the one piece starts where its image ends
]


def rotated(s: Itm, r: Fraction) -> Itm:
    """The conjugate x -> S(x - r) + r: the breakpoints move by r, the shifts stay."""
    moved = sorted(((p.value + r) % 1, c) for p, c in zip(s.breakpoints, s.shifts))
    return Itm(tuple(p for p, _ in moved), tuple(c for _, c in moved))


class TestOrbitsAgainstFractionWalk:
    """Points, itinerary, visit counts and winding on both sides, and the
    relation systems, equal the CirclePoint walk's."""

    def test_acceptance_sweep(self, acceptance_sweep_maps):
        sides_differ = harvested = 0
        for s in acceptance_sweep_maps:
            assert_matches_fraction_walk(s, 40, 16)
            harvested += len(detect_relations(s, 16))
            for j in range(s.n):
                left, right = (s.evaluate_one_sided(j, side, 40) for side in Side)
                sides_differ += left.itinerary[1:] != right.itinerary[1:]
        # many orbits land on a breakpoint later on, where the sides part
        assert sides_differ > 50 and harvested > 500

    def test_levels_above_2_40(self, approximant_level_maps):
        levels = [s for s in approximant_level_maps if s.common_denominator() > 2**40]
        assert len(levels) >= 5
        for s in levels:
            assert_matches_fraction_walk(s, 32, 16)

    def test_approx_targets(self, approx_targets):
        # 30-digit parameters: common denominators of about 200 bits
        harvested = 0
        for s in approx_targets:
            assert_matches_fraction_walk(s, 20, 16)
            harvested += len(detect_relations(s, 16))
        assert harvested >= 4

    @given(itms(), st.integers(0, 30))
    def test_hypothesis_maps(self, s, steps):
        assert_matches_fraction_walk(s, steps, max(steps, 1))

    @settings(max_examples=200)
    @given(raw_maps(), st.integers(0, 30))
    def test_maps_on_a_raw_grid(self, s, steps):
        assert_matches_fraction_walk(s, steps, max(steps, 1))

    @pytest.mark.parametrize("shift", ["0", "1/2", "5/8", "3/7", "377/610"])
    @pytest.mark.parametrize("base", ["0", "1/3"])
    def test_one_piece_rotations(self, base, shift):
        assert_matches_fraction_walk(itm([base], [shift]), 700, 700)

    @pytest.mark.parametrize("s", SPECIAL_MAPS, ids=repr)
    def test_breakpoints_at_0_and_shifts_of_0(self, s):
        assert_matches_fraction_walk(s, 24, 24)


class TestOrbitsOnCells:
    def test_rotating_the_grid_moves_the_orbits(self, acceptance_sweep_maps):
        # x -> S(x - r) + r has the orbits of S moved by r, with the pieces
        # renumbered as the moved breakpoints sort
        rng = random.Random(31)
        for s in acceptance_sweep_maps[:40]:
            q = s.common_denominator()
            r = F(rng.randrange(1, q), q)
            t = rotated(s, r)
            perm = [t.breakpoints.index(p + r) for p in s.breakpoints]
            for j in range(s.n):
                for side in Side:
                    orbit = s.evaluate_one_sided(j, side, 48)
                    moved = t.evaluate_one_sided(perm[j], side, 48)
                    assert moved.points == tuple(p + r for p in orbit.points)
                    assert moved.itinerary == tuple(perm[k] for k in orbit.itinerary)
                    assert all(
                        moved.visit_counts[perm[k]] == c for k, c in enumerate(orbit.visit_counts)
                    )

    @pytest.mark.parametrize("j", [-1, 2])
    def test_breakpoint_index_outside_the_pieces(self, j):
        with pytest.raises(ValueError, match="outside range"):
            half_collapse().evaluate_one_sided(j, Side.RIGHT, 3)

    def test_harvest_builds_no_circle_point(self, acceptance_sweep_maps, approx_targets, monkeypatch):
        # the harvest reads the integer walk alone: no EndpointOrbit, no point
        maps = acceptance_sweep_maps[:40] + approx_targets
        want = [fraction_detect_relations(s, 16) for s in maps]

        def refuse(*_):
            raise AssertionError("the harvest built a CirclePoint or an EndpointOrbit")

        monkeypatch.setattr(CirclePoint, "__post_init__", refuse)
        monkeypatch.setattr(Itm, "evaluate_one_sided", refuse)
        assert [detect_relations(s, 16) for s in maps] == want

    def test_relations_and_replays_add_no_circle_point(self, acceptance_sweep_maps, monkeypatch):
        def refuse(*_):
            raise AssertionError("a CirclePoint was stepped")

        monkeypatch.setattr(CirclePoint, "__add__", refuse)
        monkeypatch.setattr(CirclePoint, "__radd__", refuse)
        replayed = 0
        for s in acceptance_sweep_maps[:40]:
            relations = detect_relations(s, 16)
            # at its own denominator the one level is the map itself
            schedule = generate_approximants(s, relations, [s.common_denominator()])
            report = orbit_collision_preservation(schedule)
            assert report.all_pass
            replayed += report.checked
        assert replayed > 100
