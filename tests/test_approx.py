"""Relation harvesting, approximant schedules, and convergence checks."""

import hashlib
import math
import random
import sys
import time
from fractions import Fraction

import pytest

import oracle
from itmlib.approx import (
    ApproximantSchedule,
    CollisionReport,
    InconsistentRelations,
    Level,
    OrderViolation,
    Relation,
    RelationSystem,
    detect_convergence,
    detect_relations,
    generate_approximants,
    mass_profile,
    measure_sequence,
    orbit_collision_preservation,
    verify_limit_measure,
)
from itmlib.approx import _WITNESS_STEPS, _best_approximations
from itmlib.catalog import (
    double_rotation,
    fibonacci_up_to,
    golden_mean,
    half_collapse,
    halving_map,
    root2_minus_one,
    rotation,
    two_shift_example,
)
from itmlib.families import (
    PolynomialBasis,
    PolynomialFamily,
    TrigBasis,
    TrigFamily,
    invariance_residual_functional,
)
from itmlib.itm import BudgetExceeded, Itm, Side, itm
from itmlib.measure import Measure, pushforward
from itmlib.piecewise import from_itm

F = Fraction


class TestRelationType:
    def test_residual_zero_for_harvested_identity(self):
        rel = Relation(i=1, j=0, l=(0, 1), w=1)
        assert rel.residual([F(0), F(1, 2)], [F(0), F(1, 2)]) == 0

    def test_depth_is_step_count(self):
        assert Relation(i=0, j=0, l=(3,), w=1).depth == 3

    def test_witness_validation(self):
        with pytest.raises(ValueError):
            Relation(i=0, j=0, l=(2,), w=1, side=Side.RIGHT, itinerary=(0,))
        with pytest.raises(ValueError):
            Relation(i=0, j=0, l=(1, 1), w=1, itinerary=(0, 1))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            Relation(i=0, j=0, l=(-1,), w=0)

    @pytest.mark.parametrize(
        "fields, key",
        [
            ({"l": (1.5, 0)}, "'l' must be an integer: 1.5"),
            ({"i": 0.0}, "'i' must be an integer: 0.0"),
            ({"j": True}, "'j' must be an integer: True"),
            ({"w": 2.5}, "'w' must be an integer: 2.5"),
            ({"l": (1, 0), "side": "left", "itinerary": (0.0,)}, "'itinerary' must be an integer"),
        ],
    )
    def test_counts_are_integers_not_truncated(self, fields, key):
        with pytest.raises(ValueError, match=key):
            Relation(**{"i": 0, "j": 1, "l": (0, 0), "w": 0, **fields})

    @pytest.mark.parametrize("i, j", [(-1, 1), (0, -2), (2, 0), (1, 2)])
    def test_indices_outside_the_pieces_rejected(self, i, j):
        # a negative index would otherwise read a breakpoint from the end
        with pytest.raises(ValueError, match="piece range"):
            Relation(i=i, j=j, l=(0, 0), w=0)


class TestDetectRelations:
    def test_rational_rotation(self):
        system = detect_relations(rotation("1/3"), 3)
        assert len(system) == 1
        rel = system.relations[0]
        assert (rel.i, rel.j, rel.l, rel.w) == (0, 0, (3,), 1)
        assert rel.itinerary == (0, 0, 0)

    def test_rotation_below_return_depth_is_empty(self):
        assert len(detect_relations(rotation("1/3"), 2)) == 0

    def test_golden_convergent_needs_full_period(self):
        # 13/21 first returns to 0 after 21 steps
        assert len(detect_relations(rotation("13/21"), 20)) == 0
        system = detect_relations(rotation("13/21"), 21)
        assert (system.relations[0].l, system.relations[0].w) == ((21,), 13)

    def test_half_collapse_depth_one(self):
        system = detect_relations(half_collapse(), 1)
        got = {(r.i, r.j, r.l, r.w) for r in system.relations}
        assert got == {
            (0, 0, (1, 0), 0),
            (0, 1, (0, 1), 0),
            (1, 0, (0, 1), 1),
            (1, 1, (1, 0), 0),
        }

    def test_every_harvested_relation_has_zero_residual(self):
        s = itm(["0", "1/2", "5/6"], ["1/2", "2/3", "1/6"])
        for rel in detect_relations(s, 8):
            res = rel.residual(
                [t.value for t in s.breakpoints], s.shifts
            )
            assert res == 0
            assert rel.witnessed

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            detect_relations(rotation("1/3"), 0)

    def test_witnesses_past_the_budget_raise(self):
        # every return of this map's endpoint orbits is a new relation whose
        # witness is as long as the return, so the kept itinerary steps grow
        # with the square of the depth: 5.7M steps at depth 4000
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded) as exc:
            detect_relations(two_shift_example(), 100_000)
        assert time.perf_counter() - start < 5
        assert (exc.value.budget, exc.value.value) == ("witness_steps", _WITNESS_STEPS)
        assert str(_WITNESS_STEPS) in str(exc.value)


class TestGenerateApproximants:
    def test_golden_rotation_convergents(self):
        schedule = generate_approximants(
            rotation(golden_mean()),
            denominators=(2, 3, 5, 8),
        )
        shifts = [level.map.shifts[0] for level in schedule.levels]
        assert shifts == [F(1, 2), F(2, 3), F(3, 5), F(5, 8)]

    def test_distances_non_increasing(self):
        schedule = generate_approximants(
            rotation(golden_mean()),
            denominators=(2, 3, 5, 8, 13, 21),
        )
        distances = [level.distance for level in schedule.levels]
        assert all(b <= a for a, b in zip(distances, distances[1:]))

    def test_rational_target_with_full_system_is_constant(self):
        s = half_collapse()
        schedule = generate_approximants(
            s, detect_relations(s, 1), denominators=(2, 4, 8)
        )
        for level in schedule.levels:
            assert level.map == s
            assert level.distance == 0

    def test_declared_relation_substitution(self):
        # t_1 = t_0 + c_0 is kept exactly at every level
        a = root2_minus_one()
        target = Itm((F(0), a), (a, F(1, 3)))
        system = RelationSystem.declared([Relation(i=0, j=1, l=(1, 0), w=0)])
        schedule = generate_approximants(target, system, denominators=(10, 100))
        for level in schedule.levels:
            t0, t1 = (t.value for t in level.map.breakpoints)
            c0 = level.map.shifts[0]
            assert t1 == t0 + c0
            assert t1.denominator <= 100

    def test_pinned_shift_is_solved_not_approximated(self):
        # 3 c_0 = 1 forces c_0 = 1/3 at every level, even at bound 2
        system = RelationSystem.declared([Relation(i=0, j=0, l=(3,), w=1)])
        schedule = generate_approximants(rotation("1/3"), system, denominators=(2,))
        assert schedule.levels[0].map.shifts[0] == F(1, 3)

    def test_inconsistent_target_rejected(self):
        system = RelationSystem.declared([Relation(i=0, j=0, l=(3,), w=1)])
        with pytest.raises(InconsistentRelations):
            generate_approximants(rotation("1/2"), system, denominators=(8,))

    def test_distance_is_the_largest_free_error(self, approx_targets):
        # with no relations every coordinate is free
        checked = 0
        for target in approx_targets:
            coords = [p.value for p in target.breakpoints] + list(target.shifts)
            try:
                schedule = generate_approximants(target, denominators=BENCH_BOUNDS)
            except OrderViolation:
                continue
            for level in schedule.levels:
                want = max(abs(x.limit_denominator(level.bound) - x) for x in coords)
                assert level.distance == want and type(level.distance) is Fraction
                checked += 1
        assert checked > 40

    @pytest.mark.parametrize("precision", [-1, F(-1, 10**9), math.nan, math.inf])
    def test_bad_precision_is_refused(self, precision):
        # a residual of 0 is within any tolerance; a negative one is refused,
        # not reported as a violated relation
        s = half_collapse()
        with pytest.raises(ValueError, match="'precision'"):
            generate_approximants(s, detect_relations(s, 4), [5, 8], precision=precision)

    def test_contradictory_system_rejected(self):
        system = RelationSystem.declared(
            [
                Relation(i=0, j=0, l=(3,), w=1),
                Relation(i=0, j=0, l=(2,), w=1),
            ]
        )
        with pytest.raises(InconsistentRelations):
            generate_approximants(
                rotation("1/3"), system, denominators=(8,), precision=F(1, 2)
            )

    def test_order_violation_at_coarse_bound(self):
        a = F(19, 20) + root2_minus_one() / 100
        target = Itm((F(0), a), (a, F(1, 3)))
        system = RelationSystem.declared([Relation(i=0, j=1, l=(1, 0), w=0)])
        with pytest.raises(OrderViolation):
            generate_approximants(target, system, denominators=(1,))

    def test_denominators_validated(self):
        with pytest.raises(ValueError):
            generate_approximants(rotation("1/3"), denominators=(8, 4))
        with pytest.raises(ValueError):
            generate_approximants(rotation("1/3"), denominators=())

    @pytest.mark.parametrize("bounds", [[True, 2.9, 5.5], [2, 3.0], [F(5)]])
    def test_denominators_are_integers_not_truncated(self, bounds):
        with pytest.raises(ValueError, match="'denominators' must be an integer"):
            generate_approximants(rotation("0.381966"), denominators=bounds)

    def test_default_denominators_are_fibonacci(self):
        schedule = generate_approximants(rotation(golden_mean()))
        bounds = [level.bound for level in schedule.levels]
        assert bounds[:5] == [2, 3, 5, 8, 13]
        assert bounds[-1] <= 10**6
        assert all(b < a + b for a, b in zip(bounds, bounds[1:]))

    def test_schedule_rejects_relation_breaking_level(self):
        system = RelationSystem.declared([Relation(i=0, j=0, l=(3,), w=1)])
        with pytest.raises(ValueError):
            ApproximantSchedule(
                target=rotation("1/3"),
                relations=system,
                levels=(Level(bound=2, map=rotation("1/2")),),
            )


class TestOrbitCollisionPreservation:
    def test_constant_schedule_uniform_from_first_level(self):
        s = half_collapse()
        schedule = generate_approximants(
            s, detect_relations(s, 1), denominators=(2, 4, 8)
        )
        report = orbit_collision_preservation(schedule)
        assert report.all_pass
        assert report.uniform_from == 1
        assert report.checked == 12

    def test_empty_relations_vacuously_pass(self):
        schedule = generate_approximants(
            rotation(golden_mean()), denominators=(2, 3, 5)
        )
        report = orbit_collision_preservation(schedule)
        assert report.all_pass
        assert report.uniform_from == 1
        assert report.checked == 0

    def test_itinerary_deviation_is_caught(self):
        # both levels satisfy c_0 + c_1 = 1, but at the coarse level the
        # witness orbit 0 -> c_0 -> 0 passes through piece 0 twice
        rel = Relation(
            i=0, j=0, l=(1, 1), w=1, side=Side.RIGHT, itinerary=(0, 1)
        )
        schedule = ApproximantSchedule(
            target=itm(["0", "1/2"], ["5/8", "3/8"]),
            relations=RelationSystem.declared([rel]),
            levels=(
                Level(bound=4, map=itm(["0", "1/2"], ["1/4", "3/4"])),
                Level(bound=8, map=itm(["0", "1/2"], ["5/8", "3/8"])),
            ),
        )
        report = orbit_collision_preservation(schedule)
        assert not report.all_pass
        assert [f.level for f in report.failures] == [1]
        assert report.failures[0].reason == "orbit itinerary deviates"
        assert report.uniform_from == 2

    def test_failing_last_level_gives_no_uniform_level(self):
        rel = Relation(
            i=0, j=0, l=(1, 1), w=1, side=Side.RIGHT, itinerary=(0, 1)
        )
        schedule = ApproximantSchedule(
            target=itm(["0", "1/2"], ["1/4", "3/4"]),
            relations=RelationSystem.declared([rel]),
            levels=(Level(bound=4, map=itm(["0", "1/2"], ["1/4", "3/4"])),),
        )
        report = orbit_collision_preservation(schedule)
        assert report.uniform_from is None


class TestMeasureSequence:
    def test_rotation_convergents_all_lebesgue(self):
        schedule = generate_approximants(
            rotation(golden_mean()), denominators=(2, 3, 5, 8)
        )
        for lm in measure_sequence(schedule):
            assert lm.error is None
            assert lm.measure == Measure.lebesgue()

    def test_half_collapse_constant_sequence(self):
        s = half_collapse()
        schedule = generate_approximants(
            s, detect_relations(s, 1), denominators=(2, 4)
        )
        expected = Measure(((F(0), F(1, 2), F(2)),))
        for lm in measure_sequence(schedule):
            assert lm.measure == expected

    def test_budget_errors_are_captured_per_level(self):
        s = half_collapse()
        schedule = generate_approximants(
            s, detect_relations(s, 1), denominators=(2, 4, 8)
        )
        out = measure_sequence(schedule, max_iter=1)
        assert all(lm.error is not None for lm in out)
        assert all(lm.measure is None for lm in out)
        assert len(out) == 3


class TestDetectConvergence:
    def test_constant_sequence_cauchy_at_zero(self):
        mus = [Measure.lebesgue()] * 3
        report = detect_convergence(mus, 0)
        assert report.is_cauchy
        assert report.cauchy_from == 0
        assert report.distances == (F(0), F(0))
        assert report.limit_candidate == Measure.lebesgue()

    def test_alternating_sequence_not_cauchy(self):
        half = Measure(((F(0), F(1, 2), F(2)),))
        mus = [Measure.lebesgue(), half, Measure.lebesgue(), half]
        report = detect_convergence(mus, F(1, 4))
        assert not report.is_cauchy
        assert report.cauchy_from is None
        assert report.distances == (F(1, 2), F(1, 2), F(1, 2))

    def test_settling_tail_located(self):
        half = Measure(((F(0), F(1, 2), F(2)),))
        mus = [Measure.lebesgue(), half, half, half]
        report = detect_convergence(mus, 0)
        assert report.cauchy_from == 1

    def test_needs_two_measures(self):
        with pytest.raises(ValueError):
            detect_convergence([Measure.lebesgue()], 0)

    @pytest.mark.parametrize("tol", [-1, F(-1, 10**9), math.nan, math.inf])
    def test_bad_tolerance_is_refused(self, tol):
        # a negative tolerance never found a Cauchy tail, and NaN died in
        # the Fraction conversion without naming the parameter
        with pytest.raises(ValueError, match="'tol'"):
            detect_convergence([Measure.lebesgue()] * 2, tol)


class TestVerifyLimitMeasure:
    def test_lebesgue_for_rotation_passes(self):
        report = verify_limit_measure(rotation("1/3"), Measure.lebesgue())
        assert report.passed
        assert report.mass_ok and report.residual_ok
        # single breakpoint: neighbourhood mass is exactly 2 delta
        assert report.masses[0] == 2 * report.deltas[0]

    def test_half_collapse_limit_passes(self):
        report = verify_limit_measure(
            half_collapse(), Measure(((F(0), F(1, 2), F(2)),))
        )
        assert report.passed

    def test_atom_on_discontinuity_fails_mass_only(self):
        report = verify_limit_measure(half_collapse(), Measure.point_mass(0))
        assert not report.mass_ok
        assert report.residual_ok
        assert report.failures == (
            "mass near the discontinuity set stays above tolerance",
        )

    def test_masses_monotone_in_delta(self):
        report = verify_limit_measure(half_collapse(), Measure.lebesgue())
        assert all(b <= a for a, b in zip(report.masses, report.masses[1:]))

    def test_deltas_must_decrease(self):
        with pytest.raises(ValueError):
            verify_limit_measure(
                rotation("1/3"), Measure.lebesgue(), deltas=(F(1, 8), F(1, 4))
            )

    def test_deltas_must_not_be_empty(self):
        # no delta tested is no evidence that the mass vanishes
        with pytest.raises(ValueError, match="deltas must not be empty"):
            verify_limit_measure(rotation("1/3"), Measure.lebesgue(), deltas=())

    def test_non_probability_candidate_is_refused(self):
        with pytest.raises(ValueError, match="probability measure"):
            verify_limit_measure(rotation("1/4"), Measure(((F(0), F(1, 2), F(1)),)))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("tol_mass", -1),
            ("tol_mass", math.nan),
            ("tol_res", -1),
            ("tol_res", -1e-300),
            ("tol_res", math.nan),
        ],
    )
    def test_bad_tolerances_are_refused(self, key, value):
        # each returned a failed report instead of refusing the value
        with pytest.raises(ValueError, match=f"'{key}'"):
            verify_limit_measure(rotation("1/3"), Measure.lebesgue(), **{key: value})

    def test_weight_above_the_float_range_is_refused(self):
        # a probability measure, but the trig family integrates in floats
        tiny = F(1, 10**400)
        mu = Measure(((F(0), tiny, 1 / tiny),))
        assert mu.is_probability
        with pytest.raises(ValueError, match="float range"):
            verify_limit_measure(rotation("1/4"), mu)

    @pytest.mark.parametrize(
        "target, wraps",
        [
            (rotation("1/4"), True),
            (from_itm(rotation("1/4"), discontinuities=(F(0),)), True),
            (halving_map(), False),
        ],
    )
    def test_the_neighbourhood_wraps_on_the_circle_only(self, target, wraps):
        # (-1/4, 1/4) around the discontinuity 0 holds the atom at 7/8 only
        # when it wraps through 0
        mu = Measure((), ((F(1, 2), F(1, 2)), (F(7, 8), F(1, 2))))
        report = verify_limit_measure(target, mu, deltas=(F(1, 4),))
        assert report.masses == ((F(1, 2) if wraps else F(0)),)

    def test_image_weight_above_the_float_range_is_refused(self):
        # x -> x/2 doubles the weight, which then leaves the float range
        w = F(int(sys.float_info.max))
        mu = Measure(((F(0), 1 / w, w),))
        assert mu.is_probability
        with pytest.raises(ValueError, match="float range"):
            verify_limit_measure(halving_map(), mu)


class TestLimitMassesAgainstOracle:
    """Per delta, the limit masses are the sums over the points of the
    oracle's masses, and the profile is the largest of them over the levels."""

    DELTAS = tuple(F(1, 2**k) for k in range(2, 13))

    def test_approx_pool(self, approx_paths):
        checked = 0
        for target, _, _, levels, _, limit in approx_paths:
            if limit is None:
                continue
            mus = [lm for lm in levels if lm.measure is not None]
            points = target.discontinuity_points()
            assert limit.masses == tuple(
                sum(oracle.mass_near_points(mus[-1].measure, points, d), F(0))
                for d in self.DELTAS
            )
            assert mass_profile(levels, self.DELTAS) == tuple(
                (d, max(max(oracle.mass_near_points(lm.measure, lm.map.breakpoints, d))
                        for lm in mus))
                for d in self.DELTAS
            )
            checked += 1
        assert checked >= 4

    def test_segment_map_with_atoms_at_the_ends(self):
        # atoms at 0 and 1 and points on them; the neighbourhoods of 1/16
        # pass through 0, and those of delta >= 1/2 hold the whole segment
        mu = Measure(((F(1, 8), F(5, 8), F(1)),), ((F(0), F(1, 4)), (F(1), F(1, 4))))
        points = [F(0), F(1), F(1, 16)]
        deltas = (F(3, 4), F(1, 2), F(1, 4), F(1, 16), F(1, 32))
        for target, wrap in ((halving_map(), False), (rotation("1/3"), True)):
            report = verify_limit_measure(target, mu, points=points, deltas=deltas)
            assert report.masses == tuple(
                sum(oracle.mass_near_points(mu, points, d, wrap=wrap), F(0)) for d in deltas
            )
            assert not report.mass_ok


class TestFamilies:
    @pytest.mark.parametrize(
        "family, degree, members",
        [
            (TrigFamily(), 8, [TrigBasis(k, c) for k in range(1, 9) for c in ("cos", "sin")]),
            (TrigFamily(2), 2, [TrigBasis(k, c) for k in (1, 2) for c in ("cos", "sin")]),
            (PolynomialFamily(), 1, [PolynomialBasis(1)]),
            (PolynomialFamily(3), 3, [PolynomialBasis(d) for d in (1, 2, 3)]),
        ],
    )
    def test_members_in_order(self, family, degree, members):
        assert family.degree == degree
        assert family.members == tuple(members)
        assert list(family) == members

    @pytest.mark.parametrize("kind", [TrigFamily, PolynomialFamily])
    @pytest.mark.parametrize("degree", [0, -1])
    def test_degree_below_one_is_refused(self, kind, degree):
        with pytest.raises(ValueError, match="degree must be at least 1"):
            kind(degree)


class TestMassProfile:
    def test_rotation_profile_shrinks_with_delta(self):
        schedule = generate_approximants(
            rotation(golden_mean()), denominators=(2, 3, 5, 8)
        )
        measures = measure_sequence(schedule)
        deltas = (F(1, 4), F(1, 8), F(1, 16))
        profile = mass_profile(measures, deltas)
        assert [m for _, m in profile] == [F(1, 2), F(1, 4), F(1, 8)]


BENCH_BOUNDS = (21, 34, 55, 89, 144, 233, 377)


class TestBestApproximations:
    """One continued fraction expansion per coordinate gives
    Fraction.limit_denominator under every bound, as its lowest terms."""

    @staticmethod
    def assert_limit_denominator(x, bounds):
        want = [x.limit_denominator(b) for b in bounds]
        assert _best_approximations(x, bounds) == [(r.numerator, r.denominator) for r in want]

    def test_random_rationals(self):
        rng = random.Random(7)
        for _ in range(3000):
            den = rng.choice([rng.randrange(1, 64), rng.randrange(1, 10**6), 10**30])
            x = F(rng.randrange(-3 * den, 3 * den), den)
            bounds = sorted(rng.sample(range(1, 3000), rng.randrange(1, 9)))
            self.assert_limit_denominator(x, bounds)

    def test_exact_ties_go_to_the_convergent(self):
        # a tie: the best approximation r and its mirror 2x - r both fit the bound
        ties = 0
        for q in range(2, 30):
            for p in range(-q, 2 * q):
                x = F(p, q)
                for b in range(1, x.denominator):
                    r = x.limit_denominator(b)
                    ties += (2 * x - r).denominator <= b
                    self.assert_limit_denominator(x, [b])
                self.assert_limit_denominator(x, range(1, q + 2))
        assert ties > 100

    def test_denominators_already_within_the_bound(self):
        x = F(3, 7)
        assert _best_approximations(x, [2, 6, 7, 8, 10**6]) == [(1, 2), (2, 5), *[(3, 7)] * 3]
        self.assert_limit_denominator(F(-5), [1, 2])
        self.assert_limit_denominator(F(0), [1])

    def test_negative_values(self):
        for x in (-golden_mean(), -root2_minus_one(), F(-1, 2), F(-355, 113), F(-7, 2)):
            self.assert_limit_denominator(x, [1, 2, 3, 5, 8, 13, 100, 10**4])

    def test_bench_targets(self, approx_targets):
        for target in approx_targets:
            for x in [p.value for p in target.breakpoints] + list(target.shifts):
                self.assert_limit_denominator(x, BENCH_BOUNDS)
                self.assert_limit_denominator(x, fibonacci_up_to(10**6))


@pytest.fixture(scope="module")
def approx_paths(approx_targets):
    """Each target through the approx bench's path: relations at depth 16,
    levels on the bounds 21..377 with budgets 48/24, the Cauchy check at
    1/100 and the limit check with TrigFamily(8)."""
    out = []
    for target in approx_targets:
        relations = detect_relations(target, 16)
        try:
            schedule = generate_approximants(target, relations, BENCH_BOUNDS)
        except OrderViolation as exc:
            out.append((target, relations, exc, (), None, None))
            continue
        levels = measure_sequence(schedule, max_iter=48, max_arcs=24)
        mus = [lm.measure for lm in levels if lm.measure is not None]
        convergence = detect_convergence(mus, F(1, 100)) if len(mus) >= 2 else None
        limit = verify_limit_measure(target, mus[-1], family=TrigFamily(8)) if mus else None
        out.append((target, relations, schedule, levels, convergence, limit))
    return out


class TestApproximantPathDigest:
    def test_outputs_match_the_pinned_digest(self, approx_paths):
        # relations, each level's map and measure or error, the successive
        # distances, and the limit masses and residual, as the per-step
        # Fraction harvest, limit_denominator, the Fraction mass reading and
        # the per-member trig integral gave them
        digest = hashlib.sha256()
        harvested = violations = 0
        for target, relations, schedule, levels, convergence, limit in approx_paths:
            parts = [repr([(r.i, r.j, r.l, r.w, r.side.value, r.itinerary) for r in relations])]
            harvested += len(relations)
            if isinstance(schedule, OrderViolation):
                parts.append(f"order violation: {schedule}")
                violations += 1
            else:
                for lm in levels:
                    body = (
                        repr(lm.measure) if lm.measure is not None
                        else f"{type(lm.error).__name__}: {lm.error}"
                    )
                    parts.append(f"{lm.bound} {lm.map!r} {body}")
                if convergence is not None:
                    parts.append(repr(convergence.distances))
                if limit is not None:
                    parts.append(repr((limit.masses, limit.residual)))
            digest.update(repr(parts).encode())
        assert harvested >= 4 and violations < len(approx_paths) // 2
        assert digest.hexdigest() == (
            "bd90a1e23be0f7d68ecefc711617c6e3da9319f8558d609da5527a7e8934af1b"
        )


def per_member_integral(phi, mu: Measure):
    """Integral of phi against mu, member by member: each run's weight times
    phi's closed form at the run's Fraction ends, each atom's mass times phi
    at it, each term converted to float where it meets one."""
    total = F(0)
    if isinstance(phi, TrigBasis):
        w = 2 * math.pi * phi.k

        def over(lo, hi):
            u0, u1 = w * float(lo), w * float(hi)
            if phi.kind == "cos":
                return (math.sin(u1) - math.sin(u0)) / w
            return (math.cos(u0) - math.cos(u1)) / w

        def at(x):
            t = 2 * math.pi * phi.k * float(x)
            return math.cos(t) if phi.kind == "cos" else math.sin(t)
    else:
        over, at = phi.integral_over, phi.value
    for lo, hi, weight in mu.density:
        total = total + weight * over(lo, hi)
    for p, mass in mu.atoms:
        total = total + mass * at(p)
    return total


def per_member_residual(t, mu: Measure, family):
    pushed = pushforward(t, mu)
    best = F(0)
    for phi in family:
        defect = abs(per_member_integral(phi, mu) - per_member_integral(phi, pushed))
        if defect > best:
            best = defect
    return best


class TestResidualAgainstPerMemberIntegral:
    """The residual reads each measure as floats once and keeps every bit of
    the per-member integral."""

    @staticmethod
    def assert_same(t, mu, family):
        got = invariance_residual_functional(t, mu, family)
        assert repr(got) == repr(per_member_residual(t, mu, family))
        return got

    def test_approx_pool(self, approx_paths):
        checked = 0
        for target, _, _, levels, _, _ in approx_paths:
            for lm in levels:
                if lm.measure is None:
                    continue
                for degree in (1, 8):
                    self.assert_same(target, lm.measure, TrigFamily(degree))
                    self.assert_same(lm.map, lm.measure, TrigFamily(degree))
                exact = self.assert_same(target, lm.measure, PolynomialFamily(3))
                assert isinstance(exact, Fraction)
                checked += 1
        assert checked > 30

    def test_criterion_6_schedule(self):
        g = golden_mean()
        target = double_rotation(F(1, 2), g / 2, (g + 1) / 2)
        levels = measure_sequence(
            generate_approximants(target, denominators=fibonacci_up_to(10**4)),
            max_iter=2 * 10**4,
        )
        for lm in levels:
            residual = self.assert_same(target, lm.measure, TrigFamily(8))
            assert self.assert_same(lm.map, lm.measure, TrigFamily(8)) == 0.0
            assert isinstance(self.assert_same(target, lm.measure, PolynomialFamily(2)), Fraction)
        assert 0 < residual <= 1e-3

    def test_measures_with_atoms_and_the_zero_measure(self):
        mus = [
            Measure(((F(0), F(1, 3), F(3, 2)),), ((F(1, 2), F(1, 4)), (F(1), F(1, 4)))),
            Measure.point_mass(F(2, 7)),
            Measure(),
        ]
        for mu in mus:
            for s in (half_collapse(), rotation("2/5")):
                self.assert_same(s, mu, TrigFamily(5))
                assert isinstance(self.assert_same(s, mu, PolynomialFamily(2)), Fraction)

    def test_the_float_range_bound_is_exact(self):
        biggest = F(int(sys.float_info.max))
        self.assert_same(rotation("1/4"), Measure(((F(0), F(1, 4), biggest),)), TrigFamily(2))
        with pytest.raises(ValueError, match="float range"):
            invariance_residual_functional(
                rotation("1/4"), Measure(((F(0), F(1, 4), biggest + F(1, 3)),)), TrigFamily(2)
            )
