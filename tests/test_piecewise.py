"""Piecewise maps, orbits, empirical measures, and discontinuity probes."""

import random
from fractions import Fraction

import pytest

from itmlib.catalog import half_collapse, halving_map, random_itm, rotation
from itmlib.circle import CirclePoint
from itmlib.measure import Measure, tv_distance
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

    def test_explicit_discontinuities_override_the_default(self):
        t = from_itm(rotation("2/5"), discontinuities=(F(0),))
        assert t.discontinuities == (F(0),)

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


def reference_affine_segments(t: PiecewiseMap) -> list:
    """Charts cut piece by piece at the integers a*x + b crosses."""
    out = []
    for piece in t.pieces:
        lo, hi, a, b = piece.lo, piece.hi, piece.a, piece.b
        if t.domain is Domain.SEGMENT or a == 0:
            out.append((lo, hi, a, t._reduce(a * lo + b) - a * lo))
            continue
        v_lo, v_hi = a * lo + b, a * hi + b
        cuts = [lo]
        first = min(v_lo, v_hi)
        last = max(v_lo, v_hi)
        k = first.__floor__() + 1
        while k < last:
            cuts.append((Fraction(k) - b) / a)
            k += 1
        cuts.append(hi)
        cuts = sorted(set(cuts))
        for seg_lo, seg_hi in zip(cuts, cuts[1:]):
            mid = (seg_lo + seg_hi) / 2
            window = (a * mid + b).__floor__()
            out.append((seg_lo, seg_hi, a, b - window))
    return out


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
            assert charts == reference_affine_segments(t)
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
        assert t.affine_segments() == reference_affine_segments(t) == [
            (p.lo, p.hi, p.a, p.b) for p in t.pieces
        ]


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
        assert tv_distance(emp.pushforward_measure(), emp.measure) == F(1, 2)

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
