"""One-sided breakpoint orbits and the relations they harvest, stepped on the
cells of the map's grid, against the oracle's Fraction walk."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import itms, raw_maps
from itmlib.approx import _WITNESS_STEPS
from itmlib.approx import (
    ApproximantSchedule,
    Level,
    Relation,
    RelationSystem,
    detect_relations,
    generate_approximants,
    orbit_collision_preservation,
)
from itmlib.catalog import half_collapse, rotation, two_shift_example
from itmlib.circle import CirclePoint
from itmlib.itm import BudgetExceeded, Itm, Side, itm

F = Fraction


def relation_rows(system: RelationSystem) -> list:
    return [(r.i, r.j, r.l, r.w, r.side.value, r.itinerary) for r in system]


def assert_orbits_match_oracle(s: Itm, steps: int, depth: int) -> None:
    for j in range(s.n):
        for side in Side:
            orbit = s.evaluate_one_sided(j, side, steps)
            assert (orbit.base, orbit.side) == (j, side)
            got = (tuple(p.value for p in orbit.points), orbit.itinerary, orbit.visit_counts)
            assert got + (orbit.winding,) == oracle.one_sided(s, j, side, steps)
    system = detect_relations(s, depth)
    assert system.source_depth == depth
    assert relation_rows(system) == oracle.relations(s, depth)


SPECIAL_MAPS = [
    rotation(0),
    half_collapse(),
    two_shift_example(),
    itm(["0", "1/2"], ["1/2", "0"]),  # the left limit at 0 stays at 0
    itm(["1/4", "3/4"], ["0", "1/4"]),  # a shift of 0 on a wrapping piece
    itm(["0", "1/8", "5/8"], ["7/8", "0", "3/8"]),
    itm(["9/10"], ["1/10"]),  # the one piece starts where its image ends
]


class TestOrbitsAgainstFractionWalk:
    """Points, itinerary, visit counts and winding on both sides, and the
    relation systems, equal the oracle's."""

    def test_acceptance_sweep(self, acceptance_sweep_maps):
        sides_differ = harvested = 0
        for s in acceptance_sweep_maps:
            assert_orbits_match_oracle(s, 40, 16)
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
            assert_orbits_match_oracle(s, 32, 16)

    def test_approx_targets(self, approx_targets):
        # 30-digit parameters: common denominators of about 200 bits
        harvested = 0
        for s in approx_targets:
            assert_orbits_match_oracle(s, 20, 16)
            harvested += len(detect_relations(s, 16))
        assert harvested >= 4

    @given(itms(), st.integers(0, 30))
    def test_hypothesis_maps(self, s, steps):
        assert_orbits_match_oracle(s, steps, max(steps, 1))

    @settings(max_examples=200)
    @given(raw_maps(), st.integers(0, 30))
    def test_maps_on_a_raw_grid(self, s, steps):
        assert_orbits_match_oracle(s, steps, max(steps, 1))

    @pytest.mark.parametrize("shift", ["0", "1/2", "5/8", "3/7", "377/610"])
    @pytest.mark.parametrize("base", ["0", "1/3"])
    def test_one_piece_rotations(self, base, shift):
        assert_orbits_match_oracle(itm([base], [shift]), 700, 700)

    @pytest.mark.parametrize("s", SPECIAL_MAPS, ids=repr)
    def test_breakpoints_at_0_and_shifts_of_0(self, s):
        assert_orbits_match_oracle(s, 24, 24)


class TestOrbitsOnCells:
    def test_rotating_the_grid_moves_the_orbits(self, acceptance_sweep_maps):
        # x -> S(x - r) + r has the orbits of S moved by r, with the pieces
        # renumbered as the moved breakpoints sort
        rng = random.Random(31)
        for s in acceptance_sweep_maps[:40]:
            q = s.common_denominator()
            r = F(rng.randrange(1, q), q)
            t = oracle.rotated(s, r)
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

    def test_harvest_builds_no_circle_point(
        self, acceptance_sweep_maps, approx_targets, monkeypatch
    ):
        # the harvest reads the integer walk alone: no EndpointOrbit, no point
        maps = acceptance_sweep_maps[:40] + approx_targets
        want = [oracle.relations(s, 16) for s in maps]

        def refuse(*_):
            raise AssertionError("the harvest built a CirclePoint or an EndpointOrbit")

        monkeypatch.setattr(CirclePoint, "__post_init__", refuse)
        monkeypatch.setattr(Itm, "evaluate_one_sided", refuse)
        assert [relation_rows(detect_relations(s, 16)) for s in maps] == want

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

    def test_replays_build_no_endpoint_orbit(self, acceptance_sweep_maps, monkeypatch):
        # a replay compares the last lift's cell with the breakpoint's cell:
        # no EndpointOrbit and no CirclePoint, and the same reports
        schedules = []
        for s in acceptance_sweep_maps[:40]:
            q = s.common_denominator()
            relations = detect_relations(s, 16)
            schedules.append(generate_approximants(s, relations, [q // 2 or 1, q]))
        # a level whose witness orbit passes through piece 0 twice
        rel = Relation(i=0, j=0, l=(1, 1), w=1, side=Side.RIGHT, itinerary=(0, 1))
        schedules.append(ApproximantSchedule(
            target=itm(["0", "1/2"], ["5/8", "3/8"]),
            relations=RelationSystem.declared([rel]),
            levels=(
                Level(bound=4, map=itm(["0", "1/2"], ["1/4", "3/4"])),
                Level(bound=8, map=itm(["0", "1/2"], ["5/8", "3/8"])),
            ),
        ))
        expected = [orbit_collision_preservation(schedule) for schedule in schedules]
        assert not expected[-1].all_pass

        def refuse(*_):
            raise AssertionError("a replay built a CirclePoint or an EndpointOrbit")

        monkeypatch.setattr(CirclePoint, "__post_init__", refuse)
        monkeypatch.setattr(Itm, "evaluate_one_sided", refuse)
        assert [orbit_collision_preservation(schedule) for schedule in schedules] == expected
        assert sum(report.checked for report in expected) > 100


class TestHarvestBudget:
    """Every return of this map's endpoint orbits is a new relation with a
    witness as long as the return, so the kept witnesses grow with the
    square of the depth; by the oracle's count they pass the budget between
    depth 1712 and 1713."""

    s = two_shift_example()

    def test_the_deepest_harvest_within_the_budget_is_whole(self):
        rows = oracle.relations(self.s, 1712)
        assert sum(len(row[5]) for row in rows) <= _WITNESS_STEPS
        assert relation_rows(detect_relations(self.s, 1712)) == rows

    def test_one_step_deeper_raises(self):
        assert sum(len(row[5]) for row in oracle.relations(self.s, 1713)) > _WITNESS_STEPS
        with pytest.raises(BudgetExceeded, match="itinerary steps"):
            detect_relations(self.s, 1713)
