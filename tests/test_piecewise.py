"""Piecewise maps, orbits, empirical measures, and discontinuity probes."""

import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from conftest import outcome, rationals
from itmlib.catalog import half_collapse, halving_map, random_itm, rotation
from itmlib.circle import CirclePoint
from itmlib.families import (
    PolynomialBasis,
    TrigFamily,
    integral,
    invariance_residual_functional,
)
from itmlib.measure import Measure, invariance_residual_exact, pushforward, tv_distance
from itmlib.piecewise import (
    AffinePiece,
    Domain,
    HitDiscontinuity,
    PiecewiseMap,
    Verdict,
    empirical_measure,
    from_itm,
    orbit,
    visit_frequency,
    wandering_discontinuity_check,
)

F = Fraction


def trapping_map() -> PiecewiseMap:
    """Jump at 1/2, every orbit drifts to the fixed point 1 and stays."""
    return PiecewiseMap(
        domain=Domain.SEGMENT,
        pieces=(
            AffinePiece(F(0), F(1, 2), F(1, 2), F(1, 2)),
            AffinePiece(F(1, 2), F(1), F(1, 4), F(3, 4)),
        ),
    )


class TestPiecewiseMapType:
    def test_halving_map_evaluates_with_reset(self):
        t = halving_map()
        assert t.evaluate(F(0)) == 1
        assert t.evaluate(F(1, 3)) == F(1, 6)
        assert t.evaluate(F(1)) == F(1, 2)

    def test_halving_map_discontinuity_is_the_reset_point(self):
        assert halving_map().discontinuities == (F(0),)

    def test_rotation_cast_is_continuous(self):
        t = from_itm(rotation("1/4"))
        assert len(t.pieces) == 2
        assert t.discontinuities == ()

    def test_half_collapse_cast_jumps_at_both_breakpoints(self):
        t = from_itm(half_collapse())
        assert t.discontinuities == (F(0), F(1, 2))

    def test_cast_agrees_with_the_original_map(self):
        s = half_collapse()
        t = from_itm(s)
        for k in range(8):
            x = F(k, 8)
            assert t.evaluate(x) == s.evaluate(CirclePoint(x)).value

    @pytest.mark.parametrize(
        "pieces, jumps",
        [
            # x -> x/2 reaches 1/2 at 1, the left limit at 0, and is 0 at 0
            ([(0, 1, F(1, 2), 0)], (F(0),)),
            # 3x/2 - 1/2 reaches 1 = 0 mod 1 at 1, so only 1/2 is a jump,
            # though the last piece's formula at 0 gives 1/2
            ([(0, F(1, 2), 2, 0), (F(1, 2), 1, F(3, 2), F(-1, 2))], (F(1, 2),)),
        ],
    )
    def test_the_left_limit_at_0_on_the_circle_is_the_last_piece_at_1(self, pieces, jumps):
        t = PiecewiseMap(domain=Domain.CIRCLE, pieces=tuple(AffinePiece(*p) for p in pieces))
        assert t.discontinuities == jumps

    def test_explicit_discontinuities_override_the_default(self):
        t = from_itm(rotation("2/5"), discontinuities=(F(0),))
        assert t.discontinuities == (F(0),)

    def test_explicit_discontinuities_are_sorted_and_read_as_rationals(self):
        s = half_collapse()
        t = from_itm(s, [F(1, 2), "1/4", CirclePoint(F(0))])
        assert t == from_itm(s, [F(0), F(1, 4), F(1, 2)])
        assert t.discontinuities == (F(0), F(1, 4), F(1, 2))
        assert all(type(p) is F for p in t.discontinuities)

    def test_circle_values_reduce_mod_one(self):
        t = from_itm(rotation("3/4"))
        assert t.evaluate(F(1, 2)) == F(1, 4)

    def test_segment_affine_must_stay_inside(self):
        with pytest.raises(ValueError):
            PiecewiseMap(
                domain=Domain.SEGMENT,
                pieces=(AffinePiece(F(0), F(1), F(2), F(0)),),
            )

    def test_pieces_must_be_contiguous(self):
        with pytest.raises(ValueError):
            PiecewiseMap(
                domain=Domain.SEGMENT,
                pieces=(
                    AffinePiece(F(0), F(1, 3), F(1), F(0)),
                    AffinePiece(F(1, 2), F(1), F(0), F(0)),
                ),
            )

    def test_duplicate_boundary_points_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseMap(
                domain=Domain.SEGMENT,
                pieces=(AffinePiece(F(0), F(1), F(1, 2), F(0)),),
                boundary_values=((F(0), F(1)), (F(0), F(1, 2))),
            )

    def test_boundary_point_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseMap(
                domain=Domain.CIRCLE,
                pieces=(AffinePiece(F(0), F(1), F(1), F(0)),),
                boundary_values=((F(1), F(0)),),
            )

    def test_doubling_map_charts_split_at_the_wrap(self):
        t = PiecewiseMap(
            domain=Domain.CIRCLE,
            pieces=(AffinePiece(F(0), F(1), F(2), F(0)),),
        )
        assert t.affine_segments() == [
            (F(0), F(1, 2), F(2), F(0)),
            (F(1, 2), F(1), F(2), F(-1)),
        ]
        assert t.evaluate(F(3, 4)) == F(1, 2)

    def test_non_affine_piece_is_refused(self):
        with pytest.raises(TypeError):
            PiecewiseMap(domain=Domain.SEGMENT, pieces=((F(0), F(1), F(1), F(0)),))


def random_circle_map(rng: random.Random) -> PiecewiseMap:
    """Affine circle pieces with slopes 2, -3, 1/2, 0 or 7 and offsets in [-4, 4]."""
    edges = sorted({F(0), F(1)} | {F(rng.randrange(1, 24), 24) for _ in range(3)})
    pieces = tuple(
        AffinePiece(
            lo,
            hi,
            rng.choice([F(2), F(-3), F(1, 2), F(0), F(7)]),
            F(rng.randint(-96, 96), rng.choice([1, 3, 8, 24])) / 3,
        )
        for lo, hi in zip(edges, edges[1:])
    )
    return PiecewiseMap(domain=Domain.CIRCLE, pieces=pieces)


class TestAffineCharts:
    """Circle charts come from circle._affine_charts, Itm charts too."""

    def test_charts_equal_the_piece_by_piece_builder(self):
        rng = random.Random(16)
        crossings = 0
        for _ in range(200):
            t = random_circle_map(rng)
            charts = t.affine_segments()
            assert charts == oracle.Map(t).charts()
            crossings += len(charts) - len(t.pieces)
        assert crossings > 400

    def test_every_chart_maps_into_the_unit_interval(self):
        rng = random.Random(17)
        for _ in range(200):
            t = random_circle_map(rng)
            charts = t.affine_segments()
            assert charts[0][0] == 0 and charts[-1][1] == 1
            for lo, hi, a, b in charts:
                assert lo < hi
                assert 0 <= a * lo + b <= 1 and 0 <= a * hi + b <= 1
                mid = (lo + hi) / 2
                assert a * mid + b == t.evaluate(mid)

    def test_a_cast_itm_keeps_its_charts(self):
        rng = random.Random(18)
        for _ in range(100):
            n = rng.randint(1, 5)
            s = random_itm(rng, n, rng.randint(n, 64))
            assert from_itm(s).affine_segments() == s.affine_segments()

    def test_segment_pieces_are_their_own_charts(self):
        t = trapping_map()
        assert t.affine_segments() == oracle.Map(t).charts() == [
            (p.lo, p.hi, p.a, p.b) for p in t.pieces
        ]


def reference_integral_composed(d: int, t: PiecewiseMap, mu: Measure) -> Fraction:
    """Integral of T(x)^d d(mu): each density piece meets each of the
    oracle's charts and (a*x + b)^d is integrated there in closed form; atoms
    are evaluated by the oracle's map."""
    f = oracle.Map(t)
    total = F(0)
    e = d + 1
    for lo, hi, w in mu.density:
        for c_lo, c_hi, a, b in f.charts():
            left, right = max(lo, c_lo), min(hi, c_hi)
            if right <= left:
                continue
            if a == 0:
                total += w * b**d * (right - left)
            else:
                total += w * ((a * right + b) ** e - (a * left + b) ** e) / (a * e)
    for p, mass in mu.atoms:
        total += mass * f(p) ** d
    return total


def mixed_measure(rng: random.Random) -> Measure:
    """Density pieces and atoms (0 and 1 included) on the grid of 1/48."""
    density = []
    for _ in range(rng.randint(1, 4)):
        lo, hi = sorted(rng.sample(range(49), 2))
        density.append((F(lo, 48), F(hi, 48), F(rng.randint(1, 9), 4)))
    atoms = [(F(rng.randint(0, 48), 48), F(1, rng.randint(1, 5))) for _ in range(3)]
    return Measure(tuple(density), tuple(atoms))


def segment_map(*pieces, boundary_values=()) -> PiecewiseMap:
    return PiecewiseMap(
        domain=Domain.SEGMENT,
        pieces=tuple(AffinePiece(*p) for p in pieces),
        boundary_values=boundary_values,
    )


def tent_map() -> PiecewiseMap:
    return segment_map((F(0), F(1, 2), F(2), F(0)), (F(1, 2), F(1), F(-2), F(2)))


def doubling_map() -> PiecewiseMap:
    return PiecewiseMap(
        domain=Domain.CIRCLE, pieces=(AffinePiece(F(0), F(1), F(2), F(0)),)
    )


class TestPushforwardThroughCharts:
    """pushforward walks any map's charts, whatever their slopes."""

    def test_polynomial_integrals_equal_the_chart_by_chart_reference(self):
        rng = random.Random(20)
        maps = [random_circle_map(rng) for _ in range(200)]
        maps += [trapping_map(), halving_map()]
        slopes = Counter()
        for t in maps:
            slopes.update(a for _, _, a, _ in t.affine_segments())
            mu = mixed_measure(rng)
            pushed = pushforward(t, mu)
            for d in range(4):
                assert integral(PolynomialBasis(d), pushed) == reference_integral_composed(
                    d, t, mu
                )
        assert all(slopes[a] > 50 for a in (F(2), F(-3), F(1, 2), F(0), F(7)))

    def test_doubling_and_tent_maps_keep_lebesgue(self):
        for t in (doubling_map(), tent_map()):
            assert invariance_residual_exact(t, Measure.lebesgue()) == 0
            trig = invariance_residual_functional(t, Measure.lebesgue(), TrigFamily(8))
            assert trig == 0.0

    def test_reflection_keeps_lebesgue_and_reflects_atoms(self):
        t = segment_map((F(0), F(1), F(-1), F(1)))
        assert invariance_residual_exact(t, Measure.lebesgue()) == 0
        assert pushforward(t, Measure.point_mass(F(1, 4))) == Measure.point_mass(F(3, 4))

    def test_halving_map_doubles_the_density_on_the_lower_half(self):
        pushed = pushforward(halving_map(), Measure.lebesgue())
        assert pushed == Measure(((F(0), F(1, 2), F(2)),))

    def test_boundary_values_move_atoms(self):
        pushed = pushforward(halving_map(), Measure.point_mass(F(0)))
        assert pushed == Measure.point_mass(F(1))

    def test_a_flat_piece_gathers_its_mass_into_one_atom(self):
        t = segment_map((F(0), F(1, 2), F(0), F(1, 3)), (F(1, 2), F(1), F(1), F(0)))
        assert pushforward(t, Measure.lebesgue()) == Measure(
            ((F(1, 2), F(1), F(1)),), ((F(1, 3), F(1, 2)),)
        )
        circle = PiecewiseMap(
            domain=Domain.CIRCLE,
            pieces=(
                AffinePiece(F(0), F(1, 4), F(0), F(7, 3)),
                AffinePiece(F(1, 4), F(1), F(1), F(0)),
            ),
        )
        assert pushforward(circle, Measure.lebesgue()) == Measure(
            ((F(1, 4), F(1), F(1)),), ((F(1, 3), F(1, 4)),)
        )


class TestOrbit:
    def test_halving_orbit_from_one(self):
        assert orbit(halving_map(), F(1), 4) == (F(1), F(1, 2), F(1, 4), F(1, 8))

    def test_orbit_through_the_reset_point_raises(self):
        with pytest.raises(HitDiscontinuity) as err:
            orbit(halving_map(), F(0), 2)
        assert err.value.step == 0

    def test_orbit_landing_on_a_declared_point_raises(self):
        t = from_itm(rotation("1/4"), discontinuities=(F(1, 2),))
        with pytest.raises(HitDiscontinuity) as err:
            orbit(t, F(0), 4)
        assert err.value.step == 2
        assert err.value.point == F(1, 2)

    def test_continuous_rotation_orbit_passes_formal_breakpoints(self):
        pts = orbit(from_itm(rotation("1/4")), F(0), 5)
        assert pts == (F(0), F(1, 4), F(1, 2), F(3, 4), F(0))

    def test_length_must_be_positive(self):
        with pytest.raises(ValueError):
            orbit(halving_map(), F(1), 0)


class TestEmpiricalMeasure:
    def test_single_point_is_a_dirac_mass(self):
        emp = empirical_measure(halving_map(), F(1), 1)
        assert emp.measure == Measure((), ((F(1), F(1)),))

    def test_four_points_have_weight_one_quarter(self):
        emp = empirical_measure(halving_map(), F(1), 4)
        assert emp.measure.atoms == tuple(
            (F(1, 2**k), F(1, 4)) for k in (3, 2, 1, 0)
        )

    def test_periodic_rotation_orbit_closes_with_zero_defect(self):
        emp = empirical_measure(from_itm(rotation("3/5")), F(0), 5)
        assert emp.next_point == emp.base_point
        assert emp.defect == 0
        assert emp.verify_defect()
        assert emp.measure.atoms == tuple((F(k, 5), F(1, 5)) for k in range(5))

    def test_longer_periodic_orbit_merges_repeated_atoms(self):
        emp = empirical_measure(from_itm(rotation("3/5")), F(0), 10)
        assert emp.measure.atoms == tuple((F(k, 5), F(1, 5)) for k in range(5))

    def test_open_orbit_defect_is_two_over_m(self):
        emp = empirical_measure(halving_map(), F(1), 4)
        assert emp.next_point == F(1, 16)
        assert emp.defect == F(1, 2)
        assert emp.verify_defect()
        assert tv_distance(pushforward(emp.map, emp.measure), emp.measure) == F(1, 2)

    def test_total_mass_is_one(self):
        emp = empirical_measure(trapping_map(), F(1, 8), 7)
        assert emp.measure.total_mass == 1


class TestVisitFrequency:
    def test_halving_orbit_concentrates_at_the_reset_point(self):
        table = visit_frequency(
            halving_map(), F(1), (20, 200), epsilons=(F(1, 4), F(1, 16), F(1, 64))
        )
        assert table.frequency(F(1, 4), 200) == F(198, 200)
        assert table.frequency(F(1, 64), 200) == F(194, 200)
        assert table.verdict is Verdict.VIOLATED

    def test_orbit_away_from_the_jump_is_plausible(self):
        table = visit_frequency(
            trapping_map(), F(7, 8), (16, 64), epsilons=(F(1, 4), F(1, 32))
        )
        assert table.frequency(F(1, 4), 64) == 0
        assert table.verdict is Verdict.PLAUSIBLE

    def test_frequency_is_monotone_in_epsilon(self):
        table = visit_frequency(
            halving_map(), F(1), 50, epsilons=(F(1, 2), F(1, 8), F(1, 32), F(1, 128))
        )
        row = sorted(
            (e for e in table.entries if e.m == 50), key=lambda e: e.eps
        )
        freqs = [e.frequency for e in row]
        assert all(a <= b for a, b in zip(freqs, freqs[1:]))

    def test_rotation_visits_use_the_open_neighbourhood(self):
        # Orbit points sit at circle distance 3/10, 3/10, 1/10, 1/2, 1/10
        # from 0; the strict inequality excludes the two at exactly 3/10.
        t = from_itm(rotation("3/5"), discontinuities=(F(0),))
        table = visit_frequency(t, F(1, 10), 5, epsilons=(F(3, 10),))
        assert table.frequency(F(3, 10), 5) == F(2, 5)

    def test_requires_a_discontinuity_point(self):
        with pytest.raises(ValueError):
            visit_frequency(from_itm(rotation("1/4")), F(0), 10, epsilons=(F(1, 8),))

    def test_epsilons_must_be_positive(self):
        with pytest.raises(ValueError):
            visit_frequency(halving_map(), F(1), 10, epsilons=(F(0),))

    @pytest.mark.parametrize("ms", [[2.9, 10], True, [F(4)], 3.0, F(3)])
    def test_orbit_lengths_are_integers_not_truncated(self, ms):
        with pytest.raises(ValueError, match="'ms' must be an integer"):
            visit_frequency(halving_map(), F(1, 3), ms, epsilons=(F(1, 8),))


class TestWanderingCheck:
    def test_halving_map_returns_immediately(self):
        (probe,) = wandering_discontinuity_check(
            halving_map(), radii=(F(1, 8),), horizon=3
        )
        assert probe.point == 0
        assert probe.found
        assert probe.return_time == 1
        assert probe.verdict == "return found"

    def test_rational_rotation_returns_at_the_period(self):
        t = from_itm(rotation("2/5"), discontinuities=(F(0),))
        (probe,) = wandering_discontinuity_check(t, radii=(F(1, 10),), horizon=5)
        assert probe.found
        assert probe.return_time == 5

    def test_horizon_below_the_period_finds_nothing(self):
        t = from_itm(rotation("2/5"), discontinuities=(F(0),))
        (probe,) = wandering_discontinuity_check(t, radii=(F(1, 10),), horizon=4)
        assert not probe.found
        assert probe.verdict == "no return within budget"

    def test_trapping_jump_point_never_returns(self):
        (probe,) = wandering_discontinuity_check(
            trapping_map(), radii=(F(1, 20),), horizon=50
        )
        assert not probe.found

    def test_one_probe_per_point_and_radius(self):
        t = from_itm(half_collapse())
        probes = wandering_discontinuity_check(
            t, radii=(F(1, 8), F(1, 32)), horizon=6
        )
        assert [(p.point, p.radius) for p in probes] == [
            (F(0), F(1, 8)),
            (F(0), F(1, 32)),
            (F(1, 2), F(1, 8)),
            (F(1, 2), F(1, 32)),
        ]


def assert_matches_oracle(t: PiecewiseMap, x0, m: int, run=None) -> None:
    """orbit, the empirical measure and its pushforward against the oracle's
    stepped orbit, or against a given run of it."""
    if run is None:
        run = oracle.orbit(t, x0, m)
    assert outcome(orbit, t, x0, m) == run
    got = outcome(empirical_measure, t, x0, m)
    if run[0] == "hit":
        assert got == run
        return
    points, emp = run[1], got[1]
    # the visits are tallied first, as summing m atoms of 1/m one by one costs far more
    mu = oracle.Measure((), [(p, F(c, m)) for p, c in Counter(points).items()])
    assert emp.points == points
    assert emp.base_point == points[0]
    assert emp.measure == mu
    assert emp.next_point == oracle.Map(t)(points[-1])
    assert pushforward(emp.map, emp.measure) == oracle.pushforward(t, mu)
    assert emp.verify_defect()


@st.composite
def piecewise_maps(draw) -> PiecewiseMap:
    """Circle or segment maps on a 1/d grid with overrides and declared jumps.

    Circle slopes include 1 (orbits close on the grid), 2 and -1 (they
    close later) and 1/2 (denominators grow, so orbits never close).
    """
    domain = draw(st.sampled_from(Domain))
    d = draw(st.sampled_from([2, 3, 4, 6, 12]))
    top = d if domain is Domain.SEGMENT else d - 1
    cuts = draw(st.sets(st.integers(1, d - 1), max_size=3))
    edges = [F(0)] + [F(c, d) for c in sorted(cuts)] + [F(1)]
    pieces = []
    for lo, hi in zip(edges, edges[1:]):
        if domain is Domain.CIRCLE:
            a = draw(st.sampled_from([F(1), F(1), F(2), F(-1), F(1, 2), F(0)]))
            b = F(draw(st.integers(-2 * d, 2 * d)), d)
        else:
            v_lo, v_hi = (F(draw(st.integers(0, d)), d) for _ in range(2))
            a = (v_hi - v_lo) / (hi - lo)
            b = v_lo - a * lo
        pieces.append(AffinePiece(lo, hi, a, b))
    override_points = draw(st.sets(st.integers(0, top), max_size=2))
    overrides = tuple(
        (F(p, d), F(draw(st.integers(0, top)), d)) for p in sorted(override_points)
    )
    declared = draw(
        st.none()
        | st.sets(st.integers(0, top), max_size=2).map(
            lambda ps: tuple(F(p, d) for p in ps)
        )
    )
    return PiecewiseMap(
        domain=domain, pieces=tuple(pieces), boundary_values=overrides,
        discontinuities=declared,
    )


starts = rationals(min_value=0, max_value=1, max_denominator=24)


class TestClosedOrbitAgainstReference:
    """The closing walk gives the oracle's stepped orbit, atoms and pushforward."""

    def test_criterion_8_maps(self, criterion_8_orbits):
        # One stepped orbit per map; the shorter lengths are its prefixes.
        longest = 10000
        for t, x0 in criterion_8_orbits:
            status, points = oracle.orbit(t, x0, longest)
            assert status == "ok"
            for m in (10, 100, 1000, longest):
                assert_matches_oracle(t, x0, m, ("ok", points[:m]))

    @given(piecewise_maps(), starts, st.integers(1, 60))
    def test_hypothesis_maps(self, t, x0, m):
        assert_matches_oracle(t, x0, m)

    def test_halving_orbit_never_closes(self):
        points = orbit(halving_map(), F(1), 300)
        assert len(set(points)) == 300
        assert_matches_oracle(halving_map(), F(1), 300)
        assert_matches_oracle(halving_map(), F(3, 7), 300)

    def test_a_closed_orbit_costs_at_most_three_steps_per_point(
        self, criterion_8_orbits, monkeypatch
    ):
        calls = []
        evaluate = PiecewiseMap.evaluate

        def counted(self, x):
            calls.append(x)
            return evaluate(self, x)

        monkeypatch.setattr(PiecewiseMap, "evaluate", counted)
        for t, x0 in criterion_8_orbits:
            calls.clear()
            orbit(t, x0, 10**5)
            steps = len(calls)
            distinct = len(set(orbit(t, x0, 1000)))  # q <= 64 points
            assert distinct <= steps <= 3 * distinct

    @given(piecewise_maps(), starts, st.integers(1, 40), st.integers(1, 40))
    def test_an_orbit_is_a_prefix_of_a_longer_one(self, t, x0, m, k):
        short = outcome(orbit, t, x0, m)
        longer = outcome(orbit, t, x0, m + k)
        if short[0] == "hit":
            assert longer == short
        elif longer[0] == "hit":
            assert longer[1] >= m
        else:
            assert longer[1][:m] == short[1]

    @given(piecewise_maps(), starts, st.integers(1, 40))
    def test_visit_counts_and_returns_follow_the_stepping_orbit(self, t, x0, m):
        h = t.discontinuities
        epsilons = (F(1, 3), F(1, 12), F(1, 48))
        if h:
            expected = oracle.orbit(t, x0, m + 1)
            got = outcome(visit_frequency, t, x0, (1, m), epsilons)
            if expected[0] == "hit":
                assert got == expected
            else:
                f = oracle.Map(t)
                dists = [min(f.distance(p, x) for x in h) for p in expected[1][1:]]
                for n in (1, m):
                    for eps in epsilons:
                        count = sum(1 for dist in dists[:n] if dist < eps)
                        assert got[1].frequency(eps, n) == F(count, n)
        for probe in wandering_discontinuity_check(
            t, radii=(F(1, 5),), horizon=m, points=(x0 % 1,), samples=2
        ):
            assert probe.return_time == oracle.first_return(t, probe.point, probe.radius, m, 2)


class TestVerifyDefectAppliesTheMap:
    """A tampered EmpiricalMeasure fails: the check is not the orbit restated."""

    cases = [
        (from_itm(rotation("3/5")), F(0), 10),  # closed, defect 0
        (halving_map(), F(1), 4),  # open, defect 1/2
        (from_itm(half_collapse()), F(3, 4), 10),  # one step to a fixed point
        (from_itm(random_itm(random.Random(8), 3, 40)), F(1, 999983), 100),
    ]

    @pytest.mark.parametrize("t, x0, m", cases)
    def test_untampered_measure_verifies(self, t, x0, m):
        assert empirical_measure(t, x0, m).verify_defect()

    @pytest.mark.parametrize("t, x0, m", cases)
    def test_wrong_next_point_fails(self, t, x0, m):
        emp = empirical_measure(t, x0, m)
        wrong = (emp.next_point + F(1, 10)) % 1
        assert not dataclasses.replace(emp, next_point=wrong).verify_defect()

    @pytest.mark.parametrize("t, x0, m", cases)
    def test_moved_atom_fails(self, t, x0, m):
        emp = empirical_measure(t, x0, m)
        (p, w), *rest = emp.measure.atoms
        moved = Measure((), [((p + F(1, 10)) % 1, w)] + rest)
        assert moved.atoms != emp.measure.atoms
        assert not dataclasses.replace(emp, measure=moved).verify_defect()

    @pytest.mark.parametrize("t, x0, m", cases)
    def test_another_map_fails(self, t, x0, m):
        emp = empirical_measure(t, x0, m)
        other = from_itm(rotation("1/7"))
        assert not dataclasses.replace(emp, map=other).verify_defect()

    @pytest.mark.parametrize("t, x0, m", cases)
    def test_doubled_first_atom_fails(self, t, x0, m):
        emp = empirical_measure(t, x0, m)
        (p, w), *rest = emp.measure.atoms
        doubled = Measure((), [(p, 2 * w)] + rest)
        assert not dataclasses.replace(emp, measure=doubled).verify_defect()

    @pytest.mark.parametrize("t, x0, m", cases)
    def test_a_density_part_fails(self, t, x0, m):
        # half the mass moved into Lebesgue measure, which every rotation
        # keeps: on a closed orbit the atoms still meet the identity, but the
        # measure is no orbit's empirical measure
        emp = empirical_measure(t, x0, m)
        halved = Measure(((F(0), F(1), F(1, 2)),), [(p, w / 2) for p, w in emp.measure.atoms])
        assert halved.is_probability
        assert not dataclasses.replace(emp, measure=halved).verify_defect()

    @pytest.mark.parametrize(
        "t, x0, m",
        [
            (from_itm(rotation(0)), F(1, 3), 5),
            (trapping_map(), F(1), 5),
            (from_itm(half_collapse()), F(3, 4), 10),
        ],
    )
    def test_rescaled_fixed_point_atom_fails(self, t, x0, m):
        # T#(c delta(p)) = c delta(p) at a fixed point p: the identity alone
        # accepts every c, total mass 1 does not.
        emp = empirical_measure(t, x0, m)
        p = next(p for p, _ in emp.measure.atoms if t.evaluate(p) == p)
        for c in (2, F(1, 2)):
            scaled = Measure((), [(q, c * w if q == p else w) for q, w in emp.measure.atoms])
            assert not dataclasses.replace(emp, measure=scaled).verify_defect()

    @pytest.mark.parametrize(
        "t, x0, m, elsewhere",
        [
            (from_itm(rotation(0)), F(1, 3), 5, [(F(2, 3), F(1))]),
            (from_itm(rotation("1/2")), F(0), 6, [(F(1, 4), F(1, 2)), (F(3, 4), F(1, 2))]),
        ],
    )
    def test_invariant_measure_off_the_orbit_fails(self, t, x0, m, elsewhere):
        # The identity holds for the orbit's measure plus any T-invariant
        # signed measure of mass 0; only the walk from x0 tells them apart.
        emp = empirical_measure(t, x0, m)
        assert emp.defect == 0
        moved = dataclasses.replace(emp, measure=Measure((), elsewhere))
        assert moved.measure.is_probability
        assert pushforward(moved.map, moved.measure) == moved.measure
        assert not moved.verify_defect()

    def test_the_measure_carries_its_map(self):
        t = from_itm(rotation("3/5"))
        assert empirical_measure(t, F(0), 10).map is t
