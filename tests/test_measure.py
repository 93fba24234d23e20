"""Measures: canonical form, pushforward, residuals, CDFs, recurrence."""

import hashlib
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import rationals
from itmlib.catalog import half_collapse, halving_map, random_itm, rotation, two_shift_example
from itmlib.circle import Arc, ArcSet, CirclePoint, _chart_table, _walk, arc, arcset
from itmlib.conjugacy import induce_iem
from itmlib.families import (
    PolynomialFamily,
    TrigFamily,
    invariance_residual_functional,
)
import itmlib.measure as measure_module
from itmlib.itm import AttractorResult, BudgetExceeded, FiniteType, Itm
from itmlib.piecewise import AffinePiece, Domain, PiecewiseMap, empirical_measure
from itmlib.measure import (
    AtomicMeasure,
    Cdf,
    Measure,
    NotFiniteType,
    attractor_measure,
    cdf_distance,
    find_recurrent_points,
    invariance_residual_exact,
    mass_near_points,
    pushforward,
    tv_distance,
)

F = Fraction


def half_density() -> Measure:
    return Measure(((F(0), F(1, 2), F(2)),))


@st.composite
def measures(draw, probability=False):
    q = rationals(min_value=0, max_value=1, max_denominator=16)
    segs = draw(
        st.lists(
            st.tuples(q, q, rationals(min_value=0, max_value=4, max_denominator=8)),
            max_size=4,
        )
    )
    density = tuple((min(a, b), max(a, b), w) for a, b, w in segs)
    atoms = draw(
        st.lists(
            st.tuples(q, rationals(min_value=0, max_value=2, max_denominator=8)),
            max_size=3,
        )
    )
    mu = Measure(density, tuple(atoms))
    if probability:
        total = mu.total_mass
        if total == 0:
            return Measure.point_mass(draw(q))
        return mu.scale(1 / total)
    return mu


class TestCanonicalForm:
    def test_overlaps_sum(self):
        mu = Measure(((F(0), F(1, 2), F(1)), (F(1, 4), F(3, 4), F(1))))
        assert mu.density == (
            (F(0), F(1, 4), F(1)),
            (F(1, 4), F(1, 2), F(2)),
            (F(1, 2), F(3, 4), F(1)),
        )

    def test_adjacent_equal_weights_merge(self):
        mu = Measure(((F(0), F(1, 2), F(3)), (F(1, 2), F(1), F(3))))
        assert mu.density == ((F(0), F(1), F(3)),)

    def test_zero_weight_dropped(self):
        assert Measure(((F(0), F(1), F(0)),)) == Measure()

    def test_the_same_cells_on_other_grids_are_other_measures(self):
        # both store the run of cells [0, 1) with weight 1, on grids 2 and 3
        assert Measure(((F(0), F(1, 2), F(1)),)) != Measure(((F(0), F(1, 3), F(1)),))

    def test_atoms_combine(self):
        mu = Measure((), ((F(1, 2), F(1, 4)), (F(1, 2), F(1, 4)), (F(0), F(0))))
        assert mu.atoms == ((F(1, 2), F(1, 2)),)

    def test_atom_at_one_allowed(self):
        assert Measure.point_mass(1).atoms == ((F(1), F(1)),)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Measure(((F(0), F(1), F(-1)),))
        with pytest.raises(ValueError):
            Measure.point_mass(F(1, 2), -1)

    @pytest.mark.parametrize(
        "lo, hi",
        [(F(-1, 4), F(1, 2)), (F(1, 2), F(5, 4)), (F(0), F(10**999 + 1)), (F(2), F(3))],
    )
    def test_density_outside_the_unit_interval_rejected(self, lo, hi):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            Measure(((lo, hi, F(1)),))

    def test_from_arcs_splits_wrap(self):
        mu = Measure.from_arcs([(arc("3/4", "1/2"), F(1))])
        assert mu.density == ((F(0), F(1, 4), F(1)), (F(3, 4), F(1), F(1)))

    def test_total_mass(self):
        mu = Measure(((F(0), F(1, 2), F(2)),), ((F(3, 4), F(1, 3)),))
        assert mu.total_mass == F(4, 3)
        assert not mu.non_atomic
        assert half_density().is_probability

    @given(measures(), measures())
    def test_add_is_mass_additive(self, mu, nu):
        assert (mu + nu).total_mass == mu.total_mass + nu.total_mass

    @given(measures())
    def test_canonical_idempotent(self, mu):
        assert Measure(mu.density, mu.atoms) == mu


class TestMass:
    def test_mass_between_density(self):
        mu = half_density()
        assert mu.cdf().mass_between(F(1, 4), F(3, 4)) == F(1, 2)

    def test_mass_between_atom_endpoints(self):
        mu = Measure.point_mass(F(1, 2))
        assert mu.cdf().mass_between(F(1, 2), F(3, 4)) == 1
        assert mu.cdf().mass_between(F(1, 2), F(3, 4), include_lo=False) == 0
        assert mu.cdf().mass_between(F(1, 4), F(1, 2)) == 0
        assert mu.cdf().mass_between(F(1, 4), F(1, 2), include_hi=True) == 1

    def test_mass_of_wrapping_arcset(self):
        mu = Measure.lebesgue()
        assert mu.mass_of(arcset(("7/8", "1/4"))) == F(1, 4)

    def test_support(self):
        mu = Measure.from_arcs([(arc("3/4", "1/2"), F(2))])
        assert mu.support() == arcset(("3/4", "1/2"))

    def test_uniform_on(self):
        mu = Measure.uniform_on(arcset((0, "1/4"), ("1/2", "1/4")))
        assert mu.total_mass == 1
        assert mu.density == ((F(0), F(1, 4), F(2)), (F(1, 2), F(3, 4), F(2)))


class TestPushforward:
    def test_half_collapse_preserves_its_measure(self):
        mu = half_density()
        assert pushforward(half_collapse(), mu) == mu

    def test_rotation_preserves_lebesgue(self):
        assert pushforward(rotation("2/7"), Measure.lebesgue()) == Measure.lebesgue()

    def test_atom_moves_with_map(self):
        mu = Measure.point_mass(F(1, 4))
        assert pushforward(rotation("1/3"), mu) == Measure.point_mass(F(7, 12))

    @given(measures())
    def test_mass_preserved(self, mu):
        s = two_shift_example()
        assert pushforward(s, mu).total_mass == mu.total_mass

    @given(measures())
    def test_non_atomic_preserved(self, mu):
        if mu.non_atomic:
            assert pushforward(two_shift_example(), mu).non_atomic


def random_measure(rng: random.Random, q: int) -> Measure:
    """Weighted arcs and atoms on the grid of multiples of 1/q."""
    weighted = [
        (
            Arc(CirclePoint(F(rng.randrange(q), q)), F(rng.randint(1, q), q)),
            F(rng.randint(1, 5), 3),
        )
        for _ in range(rng.randint(0, 4))
    ]
    atoms = [
        (F(rng.randint(0, q), q), F(1, rng.randint(1, 4)))
        for _ in range(rng.randint(0, 2))
    ]
    return Measure.from_arcs(weighted, atoms)


class TestPushforwardAgainstReference:
    """pushforward walks the map's charts; the oracle clips per chart."""

    def test_acceptance_sweep(self, acceptance_sweep_maps):
        for s in acceptance_sweep_maps:
            att = s.attractor()
            mu = attractor_measure(s, att)
            for nu in (mu, Measure.uniform_on(att.attractor), Measure.lebesgue()):
                assert pushforward(s, nu) == oracle.pushforward(s, nu)

    def test_random_maps(self):
        rng = random.Random(15)
        for _ in range(300):
            n = rng.randint(1, 5)
            s = random_itm(rng, n, rng.randint(n, 96))
            q = rng.choice([s.common_denominator(), rng.randint(2, 97)])
            mu = random_measure(rng, q)
            assert pushforward(s, mu) == oracle.pushforward(s, mu)

    @given(measures(), st.integers(0, 2**32))
    def test_hypothesis_measures(self, mu, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        s = random_itm(rng, n, rng.randint(n, 48))
        assert pushforward(s, mu) == oracle.pushforward(s, mu)


class TestTvDistance:
    def test_density_example(self):
        assert tv_distance(Measure.lebesgue(), half_density()) == 1

    def test_distinct_atoms(self):
        assert tv_distance(Measure.point_mass(0), Measure.point_mass(1)) == 2

    def test_mixed(self):
        mu = Measure.lebesgue()
        nu = Measure.point_mass(F(1, 2))
        assert tv_distance(mu, nu) == 2

    @given(measures(), measures())
    def test_symmetric(self, mu, nu):
        assert tv_distance(mu, nu) == tv_distance(nu, mu)

    @given(measures(), measures(), measures())
    def test_triangle(self, mu, nu, rho):
        assert tv_distance(mu, rho) <= tv_distance(mu, nu) + tv_distance(nu, rho)

    @given(measures())
    def test_zero_iff_equal(self, mu):
        assert tv_distance(mu, mu) == 0


class TestTvDistanceAgainstReference:
    """tv_distance reads both cumulative tables at their merged cuts; the
    oracle sums the signed measure's pieces and atoms."""

    def test_acceptance_sweep_pushforwards(self, acceptance_sweep_maps):
        for s in acceptance_sweep_maps:
            att = s.attractor()
            for nu in (Measure.uniform_on(att.attractor), Measure.lebesgue()):
                pushed = pushforward(s, nu)
                assert tv_distance(pushed, nu) == oracle.tv_distance(pushed, nu)

    def test_random_measures_with_atoms(self):
        rng = random.Random(29)
        for _ in range(300):
            q = rng.randint(2, 97)
            mu, nu = random_measure(rng, q), random_measure(rng, rng.choice([q, 60]))
            assert tv_distance(mu, nu) == oracle.tv_distance(mu, nu)

    @given(measures(), measures())
    def test_hypothesis_measures(self, mu, nu):
        assert tv_distance(mu, nu) == oracle.tv_distance(mu, nu)


class TestInvarianceResidual:
    def test_half_collapse_invariant(self):
        assert invariance_residual_exact(half_collapse(), half_density()) == 0

    def test_lebesgue_not_invariant_under_two_shift(self):
        # image overlaps on [3/4, 5/6) and misses [1/4, 1/3)
        assert invariance_residual_exact(
            two_shift_example(), Measure.lebesgue()
        ) == F(1, 6)

    def test_lebesgue_invariant_under_rotation(self):
        assert invariance_residual_exact(rotation("3/8"), Measure.lebesgue()) == 0


class TestAttractorMeasure:
    def test_half_collapse(self):
        mu = attractor_measure(half_collapse())
        assert mu == half_density()
        assert mu.non_atomic

    def test_rotation(self):
        assert attractor_measure(rotation("1/3")) == Measure.lebesgue()

    def test_requires_finite_type(self):
        attr = half_collapse().attractor(max_iter=1)
        assert attr.finite_type is FiniteType.NO_WITHIN_BUDGET
        with pytest.raises(NotFiniteType):
            attractor_measure(half_collapse(), attr)

    def test_uniform_on_the_acceptance_sweep(self, acceptance_sweep_maps):
        for s in acceptance_sweep_maps:
            att = s.attractor()
            assert attractor_measure(s, att) == Measure.uniform_on(att.attractor)

    def test_uniform_on_approximant_levels(self, approximant_level_maps):
        measured = 0
        for s in approximant_level_maps:
            try:
                att = s.attractor(48, 24)
            except BudgetExceeded:
                continue
            if att.finite_type is FiniteType.YES:
                assert attractor_measure(s, att) == Measure.uniform_on(att.attractor)
                measured += 1
        assert measured

    @given(st.integers(0, 2**32))
    def test_uniform_on_random_maps(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        s = random_itm(rng, n, rng.randint(n, 600))
        att = s.attractor()
        assert attractor_measure(s, att) == Measure.uniform_on(att.attractor)

    def test_another_maps_attractor_is_refused(self):
        with pytest.raises(ValueError, match="not the attractor"):
            attractor_measure(half_collapse(), rotation("1/3").attractor())

    def test_set_identity_decides_as_the_residual(self, acceptance_sweep_maps):
        # S(A) = A holds exactly when uniform measure on A has residual 0: for
        # the attractor, for the iterate before it (refused) and for one
        # cycle of cells inside it (an invariant proper subset, accepted)
        def verdict(s, attr):
            try:
                mu = attractor_measure(s, attr)
            except ValueError:
                return False
            assert mu == Measure.uniform_on(attr.attractor)
            return True

        def residual_zero(s, a):
            return invariance_residual_exact(s, Measure.uniform_on(a)) == 0

        forged_early = proper = 0
        for s in acceptance_sweep_maps:
            att = s.attractor()
            a = att.attractor
            assert verdict(s, att) is residual_zero(s, a) is True
            if att.stabilized_at >= 1:
                early = AttractorResult(
                    att.iterates[:-1], att.stabilized_at - 1, att.iterates[-2], FiniteType.YES
                )
                assert verdict(s, early) is residual_zero(s, early.attractor) is False
                forged_early += 1
            q = s.common_denominator()
            cycle, cell = [], int(a.segments()[0][0] * q)
            while cell not in cycle:
                cycle.append(cell)
                cell = int(s.evaluate(F(cell, q)).value * q)
            cycle = cycle[cycle.index(cell):]
            sub = ArcSet.from_segments([(F(c, q), F(c + 1, q)) for c in cycle])
            forged = AttractorResult(att.iterates, att.stabilized_at, sub, FiniteType.YES)
            assert verdict(s, forged) is residual_zero(s, sub) is True
            proper += sub != a
        assert forged_early > 50 and proper > 30

    def test_runs_without_pushforward(self, acceptance_sweep_maps, monkeypatch):
        def refuse(*_):
            raise AssertionError("attractor_measure pushed a measure forward")

        monkeypatch.setattr(measure_module, "pushforward", refuse)
        for s in acceptance_sweep_maps[:20]:
            att = s.attractor()
            assert attractor_measure(s, att) == Measure.uniform_on(att.attractor)

    def test_sweep_outputs_match_the_pinned_digest(self, acceptance_sweep_maps):
        # stabilization index, every iterate and the measure's density over
        # the sweep, as the run-major walk and the residual check gave them
        digest = hashlib.sha256()
        for s in acceptance_sweep_maps:
            att = s.attractor()
            mu = attractor_measure(s, att)
            runs = [a.segments() for a in att.iterates]
            digest.update(repr((att.stabilized_at, runs, mu.density)).encode())
        assert digest.hexdigest() == (
            "4452a556e2594c557d5fb9a60a35b6bf7d156ed81f1d0ff90d2b2262a4cb0ac8"
        )

    def test_random_rational_sweep(self):
        # scaled version of the acceptance sweep: exact invariance, no atoms
        rng = random.Random(17)
        for _ in range(20):
            s = random_itm(rng, rng.randint(2, 5), rng.randint(8, 512))
            mu = attractor_measure(s)
            assert invariance_residual_exact(s, mu) == 0
            assert mu.non_atomic
            assert mu.is_probability

    def test_segment_image_identity_on_carried_arcs(self):
        # arcs carried by the measure and inside one continuity piece keep
        # their mass under the map
        s = half_collapse()
        mu = attractor_measure(s)
        for a in [arc("1/8", "1/4"), arc("1/16", "1/32"), arc("1/3", "1/8")]:
            img = s.image(ArcSet([a]))
            assert mu.mass_of(img) == mu.mass_of(ArcSet([a]))

    def test_off_support_arcs_can_gain_mass(self):
        # the image identity genuinely needs the arc to be carried by the
        # measure: this massless arc maps onto half the support
        s = half_collapse()
        mu = attractor_measure(s)
        a = ArcSet([arc("5/8", "1/4")])
        assert mu.mass_of(a) == 0
        assert mu.mass_of(s.image(a)) == F(1, 2)

    def test_segment_image_identity_random_sweep(self):
        rng = random.Random(23)
        for _ in range(10):
            s = random_itm(rng, rng.randint(2, 4), rng.randint(8, 128))
            mu = attractor_measure(s)
            support = mu.support()
            checked = 0
            for j in range(s.n):
                part = support.intersect(ArcSet([s.piece(j)]))
                for lo, hi in part.segments():
                    width = hi - lo
                    off = width * F(rng.randrange(0, 4), 8)
                    length = width * F(rng.randrange(1, 5), 8)
                    sub = ArcSet.from_segments([(lo + off, min(hi, lo + off + length))])
                    if sub:
                        assert mu.mass_of(s.image(sub)) == mu.mass_of(sub)
                        checked += 1
            assert checked


class TestCdf:
    def test_lebesgue_is_identity(self):
        f = Measure.lebesgue().cdf()
        for x in [F(0), F(1, 3), F(2, 3), F(1)]:
            assert f.at(x) == x

    def test_half_density(self):
        f = half_density().cdf()
        assert f.at(F(1, 4)) == F(1, 2)
        assert f.at(F(1, 2)) == 1
        assert f.at(F(3, 4)) == 1

    def test_quarter_window(self):
        f = Measure(((F(1, 4), F(1, 2), F(4)),)).cdf()
        assert f.at(F(1, 4)) == 0
        assert f.at(F(3, 8)) == F(1, 2)
        assert f.at(F(1, 2)) == 1

    def test_atom_jump(self):
        f = Measure.point_mass(F(1, 2)).cdf()
        assert f.left_limit(F(1, 2)) == 0
        assert f.at(F(1, 2)) == 1

    def test_quantile_lebesgue(self):
        f = Measure.lebesgue().cdf()
        assert f.quantile(F(1, 3)) == F(1, 3)

    def test_quantile_jumps_to_atom(self):
        f = Measure.point_mass(F(1, 2)).cdf()
        assert f.quantile(F(1, 4)) == F(1, 2)
        assert f.quantile(F(1)) == F(1, 2)

    def test_rightmost_preimage_identity(self):
        f = Measure.lebesgue().cdf()
        assert f.rightmost_preimage(F(2, 5)) == F(2, 5)

    def test_rightmost_preimage_plateau(self):
        f = half_density().cdf()
        assert f.rightmost_preimage(F(1, 2)) == F(1, 4)
        assert f.rightmost_preimage(F(1)) == F(1)
        assert f.rightmost_preimage(F(0)) == F(0)

    def test_rightmost_preimage_mid_plateau(self):
        f = Measure(((F(1, 4), F(1, 2), F(4)),)).cdf()
        assert f.rightmost_preimage(F(0)) == F(1, 4)

    def test_rightmost_preimage_rejects_atoms(self):
        with pytest.raises(AtomicMeasure):
            Measure.point_mass(F(1, 2)).cdf().rightmost_preimage(F(1, 2))

    def test_each_measure_keeps_one_table(self, acceptance_sweep_maps, monkeypatch):
        # attractor_measure -> induce_iem -> find_recurrent_points builds
        # the cumulative table of the measure once
        built = []
        cumulative = measure_module._cumulative

        def counted(*args):
            built.append(args)
            return cumulative(*args)

        monkeypatch.setattr(measure_module, "_cumulative", counted)
        for s in acceptance_sweep_maps[:20]:
            q = s.common_denominator()
            built.clear()
            mu = attractor_measure(s)
            assert mu.cdf() is mu.cdf()
            data = induce_iem(s, mu, samples=16)
            assert data.h is mu.cdf()
            find_recurrent_points(s, mu, F(1, q), q * q, 8, rng=random.Random(q))
            assert len(built) == 1

    @given(measures(probability=True), rationals(min_value=0, max_value=1, max_denominator=64))
    def test_monotone(self, mu, x):
        f = mu.cdf()
        assert f.left_limit(x) <= f.at(x)
        assert f.at(F(1)) == 1


class TestCdfDistance:
    def test_lebesgue_vs_half(self):
        assert cdf_distance(Measure.lebesgue(), half_density()) == F(1, 2)

    def test_self_distance_zero(self):
        assert cdf_distance(half_density(), half_density()) == 0

    def test_atom_against_lebesgue(self):
        assert cdf_distance(Measure.point_mass(0), Measure.lebesgue()) == 1

    def test_requires_probability(self):
        with pytest.raises(ValueError):
            cdf_distance(Measure.lebesgue().scale(2), Measure.lebesgue())

    @given(measures(probability=True), measures(probability=True))
    def test_symmetry(self, mu, nu):
        assert cdf_distance(mu, nu) == cdf_distance(nu, mu)

    @given(measures(probability=True), measures(probability=True), measures(probability=True))
    def test_triangle(self, mu, nu, rho):
        assert cdf_distance(mu, rho) <= cdf_distance(mu, nu) + cdf_distance(nu, rho)


def probability(mu: Measure) -> Measure:
    total = mu.total_mass
    return mu.scale(1 / total) if total else Measure.lebesgue()


def assert_cdf_matches_reference(mu: Measure, rng: random.Random) -> None:
    fast, ref = mu.cdf(), oracle.Cdf(mu)
    assert fast.cuts == ref.cuts
    assert (fast.value_left, fast.value_at) == (ref.value_left, ref.value_at)
    mids = [(a + b) / 2 for a, b in zip(ref.cuts, ref.cuts[1:])]
    xs = [F(-1), F(2), F(rng.randrange(193), 192), *ref.cuts, *mids]
    for x in xs:
        assert fast.at(x) == ref.at(x)
        assert fast.left_limit(x) == ref.left_limit(x)
    total = ref.value_at[-1]
    levels = [F(-1), F(0), total, total + 1, *ref.value_at, *ref.value_left]
    levels += [total * F(rng.randrange(1, 64), 64) for _ in range(4)]
    for y in levels:
        assert fast.quantile(y) == ref.quantile(y)
        if mu.non_atomic and 0 <= y <= total:
            assert fast.rightmost_preimage(y) == ref.rightmost_preimage(y)
    for _ in range(8):
        lo, hi = sorted(rng.sample(xs, 2) if rng.random() < 0.8 else [rng.choice(xs)] * 2)
        for include_lo in (False, True):
            for include_hi in (False, True):
                args = (lo, hi, include_lo, include_hi)
                assert fast.mass_between(*args) == oracle.mass(mu, *args)


class TestCumulativeTableAgainstReference:
    """Cdf, mass_between and cdf_distance read one cumulative table; the
    oracle sums each piece and atom and interpolates on its own cuts."""

    def test_random_measures(self):
        rng = random.Random(31)
        for _ in range(300):
            q = rng.randint(2, 97)
            mu, nu = random_measure(rng, q), random_measure(rng, rng.choice([q, 60]))
            assert_cdf_matches_reference(mu, rng)
            mu, nu = probability(mu), probability(nu)
            assert cdf_distance(mu, nu) == oracle.cdf_distance(mu, nu)

    @given(measures(), measures(probability=True), st.integers(0, 2**32))
    def test_hypothesis_measures(self, mu, nu, seed):
        assert_cdf_matches_reference(mu, random.Random(seed))
        mu = probability(mu)
        assert cdf_distance(mu, nu) == oracle.cdf_distance(mu, nu)

    def test_acceptance_sweep_against_lebesgue(self, acceptance_sweep_maps):
        rng = random.Random(37)
        lebesgue = Measure.lebesgue()
        for s in acceptance_sweep_maps:
            mu = attractor_measure(s)
            assert_cdf_matches_reference(mu, rng)
            assert cdf_distance(mu, lebesgue) == oracle.cdf_distance(mu, lebesgue)


def test_no_position_is_hashed(monkeypatch):
    # Fraction's hash repeats with period 61 along x -> x/2 + 1/3, so a dict
    # of these orbit points fills quadratically; no measure path may hash
    x, points = F(1, 7), []
    for _ in range(1000):
        points.append(x)
        x = x / 2 + F(1, 3)
    atoms = tuple((p, F(1, 1000)) for p in points)
    lebesgue = Measure.lebesgue()
    expected = oracle.cdf_distance(Measure((), atoms), lebesgue)

    def refuse(self):
        raise AssertionError("a Fraction was hashed")

    monkeypatch.setattr(Fraction, "__hash__", refuse)
    mu = Measure((), atoms)
    assert len(mu.atoms) == 1000
    assert Cdf(mu).at(F(1)) == 1
    assert tv_distance(mu, lebesgue) == 2
    assert cdf_distance(mu, lebesgue) == expected


@st.composite
def end_atom_measures(draw):
    """Probability measures from measures(), often with atoms at 0 and at 1."""
    mu = draw(measures())
    mass = rationals(min_value=0, max_value=2, max_denominator=8)
    ends = [(F(p), draw(mass)) for p in (0, 1) if draw(st.booleans())]
    return probability(Measure(mu.density, mu.atoms + tuple(ends)))


class TestCdfDistanceAgainstParent:
    """cdf_distance merges the cuts of both measures' own tables; the oracle
    reads both distribution functions at every cut and just below it."""

    @given(end_atom_measures(), end_atom_measures())
    def test_hypothesis_measures_with_atoms_at_the_ends(self, mu, nu):
        assert cdf_distance(mu, nu) == oracle.cdf_distance(mu, nu)
        assert cdf_distance(nu, mu) == oracle.cdf_distance(nu, mu)

    def test_equal_measures_and_grids_that_divide(self):
        rng = random.Random(47)
        for _ in range(200):
            q = rng.randint(1, 60)
            mu = probability(random_measure(rng, q))
            nu = probability(random_measure(rng, q * rng.choice([1, 2, 3, 7])))
            assert cdf_distance(mu, nu) == oracle.cdf_distance(mu, nu)
            assert cdf_distance(nu, mu) == oracle.cdf_distance(nu, mu)
            same = Measure(mu.density, mu.atoms)
            assert cdf_distance(mu, same) == oracle.cdf_distance(mu, same) == 0
        for mu, nu in [
            (Measure.point_mass(0), Measure.point_mass(1)),
            (Measure.point_mass(1), Measure.lebesgue()),
            (Measure.point_mass(0), Measure.lebesgue()),
        ]:
            assert cdf_distance(mu, nu) == oracle.cdf_distance(mu, nu) == 1

    def test_coprime_grids_with_atoms(self):
        # the merged walk meets cuts of one table between those of the other
        rng = random.Random(53)
        for p, q in [(7, 11), (2**5, 3**4), (1, 13), (2**61 - 1, 6)]:
            for _ in range(25):
                mu = probability(random_measure(rng, p))
                atoms = [(F(rng.randint(0, q), q), F(1, rng.randint(1, 4))) for _ in range(2)]
                nu = probability(random_measure(rng, q) + Measure((), atoms))
                assert cdf_distance(mu, nu) == oracle.cdf_distance(mu, nu)
                assert cdf_distance(nu, mu) == oracle.cdf_distance(nu, mu)

    def test_a_measure_of_another_mass_is_refused(self):
        lebesgue = Measure.lebesgue()
        for other in (
            Measure(),
            Measure.point_mass(F(1, 3), F(1, 2)),
            Measure(((F(0), F(1, 7), F(7)),), ((F(1), F(1, 10**30)),)),
        ):
            for mu, nu in ((other, lebesgue), (lebesgue, other)):
                with pytest.raises(ValueError, match="probability"):
                    cdf_distance(mu, nu)

    def test_successive_approximant_levels(self, approximant_level_maps):
        mus = []
        for s in approximant_level_maps:
            try:
                res = s.attractor(48, 24)
            except BudgetExceeded:
                continue
            if res.finite_type is FiniteType.YES:
                mus.append(attractor_measure(s, res))
        assert len(mus) > 20
        for mu, nu in zip(mus, mus[1:]):
            assert cdf_distance(mu, nu) == oracle.cdf_distance(mu, nu)

    def test_orbit_empirical_measures_against_lebesgue(self, criterion_8_orbits):
        lebesgue = Measure.lebesgue()
        for t, x0 in criterion_8_orbits[:25]:
            emp = empirical_measure(t, x0, 500).measure
            assert cdf_distance(emp, lebesgue) == oracle.cdf_distance(emp, lebesgue)
        for m in (1, 4, 60):
            emp = empirical_measure(halving_map(), F(1), m).measure
            for nu in (lebesgue, Measure.point_mass(0)):
                assert cdf_distance(emp, nu) == oracle.cdf_distance(emp, nu)


def raw_on_grid(rng: random.Random, q: int):
    """Overlapping weighted pieces and atoms with ends on the grid of 1/q."""
    density = []
    for _ in range(rng.randint(0, 4)):
        a, b = sorted(rng.sample(range(q + 1), 2))
        density.append((F(a, q), F(b, q), F(rng.randint(1, 9), rng.randint(1, 4))))
    atoms = [(F(rng.randint(0, q), q), F(1, rng.randint(1, 5))) for _ in range(rng.randint(0, 2))]
    return density, atoms


def assert_integer_rows_match(table, rows) -> None:
    """The integer rows (Q, M, rows) of _cumulative read as the Fraction rows."""
    grid, unit, ints = table
    assert all(type(v) is int for row in ints for v in row)
    assert [
        [F(x, grid), F(left, unit), F(at, unit), F(slope * grid, unit)]
        for x, left, at, slope in ints
    ] == rows


def assert_grid_layer_matches(mu: Measure, density, atoms, rng: random.Random) -> None:
    """mu, built from raw (density, atoms), against the oracle."""
    model = oracle.Measure(density, atoms)
    assert mu == model
    fast, ref = mu.cdf(), oracle.Cdf(model)
    assert_integer_rows_match(
        measure_module._cumulative(mu._grid, mu._cells, mu.atoms), ref.rows()
    )
    assert fast.cuts == ref.cuts
    assert (fast.value_left, fast.value_at, fast.slopes) == (
        ref.value_left, ref.value_at, ref.slopes
    )
    mids = [(a + b) / 2 for a, b in zip(ref.cuts, ref.cuts[1:])]
    off_grid = [F(rng.randrange(-5, 3 * 193), 3 * 191) for _ in range(4)]
    for x in [F(-1), F(2), *ref.cuts, *mids, *off_grid]:
        assert fast.at(x) == ref.at(x)
        assert fast.left_limit(x) == ref.left_limit(x)


class TestGridLayerAgainstFractionLayer:
    """Measures on integer grids give the oracle's answers exactly."""

    GRIDS = st.one_of(
        st.tuples(st.integers(2, 600), st.integers(2, 600)).filter(lambda p: gcd(*p) == 1),
        st.builds(lambda q, k: (q, k * q), st.integers(2, 600), st.integers(2, 64)),
        st.tuples(st.integers(2**16 + 1, 2**24), st.integers(2, 600)),
    )

    def check_pair(self, q1: int, q2: int, rng: random.Random) -> None:
        (d1, a1), (d2, a2) = raw_on_grid(rng, q1), raw_on_grid(rng, q2)
        mu, nu = Measure(d1, a1), Measure(d2, a2)
        assert_grid_layer_matches(mu, d1, a1, rng)
        assert_grid_layer_matches(nu, d2, a2, rng)
        assert tv_distance(mu, nu) == oracle.tv_distance(mu, nu)
        assert tv_distance(nu, mu) == oracle.tv_distance(nu, mu)
        mu, nu = probability(mu), probability(nu)
        assert cdf_distance(mu, nu) == oracle.cdf_distance(mu, nu)
        s = random_itm(rng, rng.randint(1, min(5, q2)), q2)
        assert pushforward(s, mu) == oracle.pushforward(s, mu)

    @given(GRIDS, st.integers(0, 2**32))
    def test_hypothesis_grid_pairs(self, grids, seed):
        self.check_pair(*grids, random.Random(seed))

    def test_approximant_level_grids(self, approximant_level_maps):
        rng = random.Random(41)
        levels = sorted({s.common_denominator() for s in approximant_level_maps})
        assert max(levels) > 2**40
        for _ in range(60):
            self.check_pair(rng.choice(levels), rng.choice(levels), rng)

    def test_acceptance_sweep_measures(self, acceptance_sweep_maps):
        rng = random.Random(43)
        lebesgue = Measure.lebesgue()
        for s in acceptance_sweep_maps:
            mu = attractor_measure(s)
            assert_grid_layer_matches(mu, mu.density, (), rng)
            for nu in (mu, lebesgue):
                pushed = pushforward(s, nu)
                assert pushed == oracle.pushforward(s, nu)
                assert tv_distance(pushed, nu) == oracle.tv_distance(pushed, nu)
            assert cdf_distance(mu, lebesgue) == oracle.cdf_distance(mu, lebesgue)

    @given(
        st.lists(st.tuples(st.integers(0, 40), st.integers(-6, 6), st.integers(1, 12)), max_size=12)
    )
    def test_integer_sweep(self, raw):
        # signed changes with mixed denominators
        events = [(x, F(n, d)) for x, n, d in raw]
        assert measure_module._sweep(list(events)) == oracle.sweep(events)

    def test_integer_sweep_drops_zero_levels_and_merges_equal_ones(self):
        events = [
            (0, F(1, 2)), (2, F(-1, 2)), (2, F(1, 3)), (2, F(1, 6)),  # 1/2 on [0, 4)
            (4, F(-1, 2)),  # 0 on [4, 6), dropped
            (6, F(1, 4)), (6, F(1, 4)), (8, F(-1, 2)),  # 1/2 on [6, 8), not joined
            (10, F(1, 3)), (10, F(-1, 3)), (12, F(-1, 5)), (13, F(1, 5)),
        ]
        expected = ((0, 4, F(1, 2)), (6, 8, F(1, 2)), (12, 13, F(-1, 5)))
        assert measure_module._sweep(list(events)) == oracle.sweep(events) == expected
        assert measure_module._sweep([]) == oracle.sweep([]) == ()

    @given(GRIDS, st.integers(0, 2**32))
    def test_measures_swept_on_integers_equal_and_hash_as_before(self, grids, seed):
        rng = random.Random(seed)
        q = grids[0]
        density, _ = raw_on_grid(rng, q)
        density += [(lo, hi, w * F(rng.randint(1, 7), rng.randint(1, 7))) for lo, hi, w in density]
        events = [e for lo, hi, w in density for e in ((lo * q, w), (hi * q, -w))]
        reference = Measure._on_cells(
            *measure_module._own_grid(q, oracle.sweep([(int(x), w) for x, w in events])), ()
        )
        mu = Measure(density)
        assert mu == reference and hash(mu) == hash(reference)

    @settings(max_examples=200)
    @given(GRIDS, st.integers(0, 2**32))
    def test_walk_through_overlapping_charts_with_gaps(self, grids, seed):
        # charts of every slope that overlap or leave gaps move a measure's
        # runs as the Fraction walk moves its density pieces
        rng = random.Random(seed)
        q, p = grids[0], rng.randint(1, 12)
        mu = Measure(raw_on_grid(rng, q)[0])
        charts = []
        for _ in range(rng.randint(1, 5)):
            lo = rng.randrange(p)
            a = rng.choice([F(1), F(2), F(1, 3), F(-1), F(-5, 2), F(0)])
            charts.append((F(lo, p), F(rng.randint(lo + 1, p), p), a, F(rng.randint(-p, p), p)))
        charts.sort()
        grid, moved = _walk(mu._grid, mu._cells, _chart_table(charts))
        read = [
            (F(a, grid), F(b, grid), w if a < b else w / grid) for a, b, w in moved
        ]
        assert sorted(read) == sorted(oracle.walk(mu.density, charts))

    @pytest.mark.parametrize("domain", list(Domain))
    def test_piecewise_charts_of_every_slope(self, domain):
        # slopes 1/2 and 2 move cells onto a finer or a coarser grid, -1
        # reverses them and 0 gathers them into an atom
        rng = random.Random(47)
        slopes = Counter()
        for _ in range(150):
            t = random_piecewise_map(rng, domain)
            slopes.update(a for _, _, a, _ in t.affine_segments())
            q = rng.choice([rng.randint(2, 97), 2**17 + rng.randint(1, 99), 24])
            density, atoms = raw_on_grid(rng, q)
            mu = Measure(density, atoms)
            pushed = pushforward(t, mu)
            assert pushed == oracle.pushforward(t, mu)
            assert tv_distance(pushed, mu) == oracle.tv_distance(pushed, mu)
        assert all(slopes[a] > 30 for a in (F(1, 2), F(2), F(-1), F(0)))

    @given(GRIDS, st.integers(0, 2**32))
    def test_equal_measures_on_different_grids(self, grids, seed):
        rng = random.Random(seed)
        q, q2 = grids
        density, atoms = raw_on_grid(rng, q)
        # rotations move an atom at 1 onto 0
        atoms = [(p % 1, m) for p, m in atoms]
        mu = Measure(density, atoms)
        # each piece cut at a point of the other grid, or rotated there and back
        c = F(rng.randrange(1, q2), q2)
        cut = [
            piece
            for lo, hi, w in density
            for piece in (
                [(lo, c, w), (c, hi, w)] if lo < c < hi else [(lo, hi, w)]
            )
        ]
        rotated = pushforward(rotation(-c), pushforward(rotation(c), mu))
        for other in (Measure(cut, atoms), Measure(mu.density, mu.atoms), rotated):
            assert other == mu and mu == other
            assert hash(other) == hash(mu)
            assert len({mu, other}) == 1
        if density:
            heavier = Measure(density + [(F(0), F(1, q2), F(1))], atoms)
            assert heavier != mu


def random_piecewise_map(rng: random.Random, domain: Domain) -> PiecewiseMap:
    """Affine pieces on the grid of 1/12 with slopes 1/2, 2, -1, 0 or 1."""
    edges = sorted({F(0), F(1)} | {F(rng.randrange(1, 12), 12) for _ in range(3)})
    pieces = []
    for lo, hi in zip(edges, edges[1:]):
        a = rng.choice([F(1, 2), F(2), F(-1), F(0), F(1)])
        if domain is Domain.CIRCLE:
            b = F(rng.randint(-24, 24), 12)
        else:
            if abs(a) * (hi - lo) > 1:
                a = F(1, 2)
            # the image [low, low + |a| (hi - lo)] lies inside [0, 1]
            low = F(rng.randint(0, 24), 24) * (1 - abs(a) * (hi - lo))
            b = low - a * (lo if a >= 0 else hi)
        pieces.append(AffinePiece(lo, hi, a, b))
    return PiecewiseMap(domain=domain, pieces=tuple(pieces))


class TestMassNearBreakpoints:
    def test_lebesgue_gives_two_delta(self):
        s = two_shift_example()
        out = mass_near_points(Measure.lebesgue(), s.breakpoints, F(1, 8), wrap=True)
        assert out == [F(1, 4), F(1, 4)]

    def test_half_density_at_half(self):
        s = half_collapse()
        out = mass_near_points(half_density(), s.breakpoints, F(1, 8), wrap=True)
        assert out == [F(1, 4), F(1, 4)]

    def test_supported_away(self):
        mu = Measure(((F(1, 4), F(1, 2), F(4)),))
        out = mass_near_points(mu, rotation("1/3").breakpoints, F(1, 8), wrap=True)
        assert out == [F(0)]

    def test_wrap_interval(self):
        mu = Measure(((F(7, 8), F(1), F(4)),))
        out = mass_near_points(mu, rotation("1/3").breakpoints, F(1, 16), wrap=True)
        assert out == [F(1, 4)]

    def test_open_interval_excludes_boundary_atoms(self):
        mu = Measure.point_mass(F(1, 8))
        out = mass_near_points(mu, rotation(0).breakpoints, F(1, 8), wrap=True)
        assert out == [F(0)]

    @given(measures(), rationals(min_value=0, max_value="1/4", max_denominator=32))
    def test_monotone_in_delta(self, mu, d):
        if d == 0:
            return
        s = two_shift_example()
        small = mass_near_points(mu, s.breakpoints, d, wrap=True)
        large = mass_near_points(mu, s.breakpoints, 2 * d, wrap=True)
        assert all(a <= b for a, b in zip(small, large))


def assert_masses_match(mu, points, delta):
    for wrap in (True, False):
        try:
            want = oracle.mass_near_points(mu, points, delta, wrap=wrap)
        except Exception as exc:
            with pytest.raises(type(exc)):
                mass_near_points(mu, points, delta, wrap=wrap)
            continue
        got = mass_near_points(mu, points, delta, wrap=wrap)
        assert got == want
        assert all(type(m) is Fraction for m in got)


class TestMassNearPointsAgainstFractionEnds:
    """The masses read on integer ends equal the oracle's on the circle and
    on the clipped interval, and fail alike."""

    ATOMIC = Measure(
        ((F(1, 8), F(5, 8), F(3, 2)),),
        ((F(0), F(1, 16)), (F(1, 4), F(1, 16)), (F(3, 8), F(1, 32)), (F(1), F(1, 32))),
    )

    @pytest.mark.parametrize(
        "delta", [F(1, 8), F(1, 4), F(3, 8), F(1, 2), F(5, 8), F(3, 4), F(1), F(5, 2), F(1, 10**30)]
    )
    def test_atoms_at_the_ends(self, delta):
        # atoms at 0, 1/4, 3/8 and 1 sit at t +/- delta for many of the points
        points = [F(0), F(1, 8), F(1, 4), F(3, 8), F(1, 2), F(5, 8), F(7, 8), F(1)]
        assert_masses_match(self.ATOMIC, points, delta)

    @pytest.mark.parametrize("q", [2, 7, 64, 2**61 - 1])
    def test_points_at_0_and_next_to_1(self, q):
        next_to_1 = Measure.point_mass(F(q - 1, q))
        for mu in (self.ATOMIC, Measure.lebesgue(), half_density(), next_to_1):
            for delta in (F(1, 2 * q), F(1, q), F(1, 3), F(1, 2)):
                assert_masses_match(mu, [F(0), F(q - 1, q), F(1, q), F(1)], delta)

    def test_points_outside_the_unit_interval(self):
        # clipped, a point farther than delta outside [0, 1] has no interval
        for points in ([F(-1, 2)], [F(3, 2)], [F(-1, 8)], [F(9, 8)], [F(-3)], [F(7, 5)]):
            for delta in (F(1, 8), F(1, 4), F(1, 3), F(2)):
                assert_masses_match(self.ATOMIC, points, delta)
        with pytest.raises(ValueError):
            mass_near_points(self.ATOMIC, [F(3, 2)], F(1, 4), wrap=False)

    def test_delta_must_be_positive(self):
        for delta in (F(0), F(-1, 4)):
            with pytest.raises(ValueError, match="positive"):
                mass_near_points(Measure.lebesgue(), [F(1, 2)], delta)

    def test_approximant_levels(self, approximant_level_maps):
        checked = 0
        for s in approximant_level_maps[::3]:
            try:
                mu = attractor_measure(s, s.attractor(max_iter=48, max_arcs=24))
            except (NotFiniteType, BudgetExceeded):
                continue
            for k in (2, 5, 12):
                assert_masses_match(mu, s.breakpoints, F(1, 2**k))
            checked += 1
        assert checked >= 10

    @given(
        measures(),
        st.lists(rationals(min_value=-2, max_value=3, max_denominator=24), max_size=4),
        rationals(min_value=0, max_value=2, max_denominator=24),
    )
    def test_hypothesis(self, mu, points, delta):
        assert_masses_match(mu, points, delta)


class TestTotalMass:
    """The total read from the cumulative table equals the oracle's sum,
    whether it is read before or after the table is built."""

    @staticmethod
    def assert_total(mu: Measure) -> None:
        want = oracle.total_mass(mu)
        before = Measure(mu.density, mu.atoms)
        assert before.total_mass == want
        before.cdf()
        assert before.total_mass == want
        after = Measure(mu.density, mu.atoms)
        after.cdf()
        assert after.total_mass == want
        assert type(after.total_mass) is Fraction

    def test_acceptance_sweep_measures(self, acceptance_sweep_maps):
        for s in acceptance_sweep_maps:
            mu = attractor_measure(s)
            assert mu.total_mass == 1 == oracle.total_mass(mu)
            self.assert_total(mu)
            self.assert_total(mu.scale(F(3, 7)))

    def test_measures_with_atoms(self):
        self.assert_total(TestMassNearPointsAgainstFractionEnds.ATOMIC)
        self.assert_total(Measure.point_mass(F(1), F(5, 3)))
        self.assert_total(Measure())

    @given(measures())
    def test_hypothesis(self, mu):
        self.assert_total(mu)


class TestRecurrence:
    def test_rotation_third(self):
        res = find_recurrent_points(
            rotation("1/3"), Measure.lebesgue(), F(1, 100), horizon=10, samples=7
        )
        assert all(r.found and r.time == 3 and r.distance == 0 for r in res)

    def test_half_collapse_fixed_points(self):
        mu = attractor_measure(half_collapse())
        res = find_recurrent_points(
            half_collapse(), mu, F(1, 100), horizon=4, samples=5
        )
        assert all(r.time == 1 and r.distance == 0 for r in res)

    def test_golden_convergent_period_eight(self):
        res = find_recurrent_points(
            rotation("5/8"), Measure.lebesgue(), F(1, 16), horizon=8, samples=9
        )
        assert all(r.found and r.time <= 8 for r in res)

    def test_cycle_abort_reports_miss(self):
        # orbit of points in [1/2, 1) falls onto the fixed ring and never
        # returns near the start
        res = find_recurrent_points(
            half_collapse(), Measure.lebesgue(), F(1, 64), horizon=50, samples=4
        )
        misses = [r for r in res if not r.found]
        hits = [r for r in res if r.found]
        assert hits and misses

    def test_seeded_rng_sampling(self):
        rng = random.Random(3)
        res = find_recurrent_points(
            rotation("1/3"), Measure.lebesgue(), F(1, 10), horizon=5, samples=6, rng=rng
        )
        assert len(res) == 6
        assert all(r.found for r in res)

    def test_grid_samples_lie_in_the_support_and_recur(self, acceptance_sweep_maps):
        # a grid level equal to the mass up to a run's right end b has the
        # quantile b, the first point of the gap after the run; the sample
        # takes the run's last cell instead, and as every support cell lies
        # on a cycle of the cell map, every sample recurs
        at_gaps = 0
        for s in acceptance_sweep_maps[:30]:
            q = s.common_denominator()
            mu = attractor_measure(s)
            support = mu.support()
            quantiles = [mu.cdf().quantile(F(2 * i + 1, 16)) for i in range(8)]
            at_gaps += sum(CirclePoint(x % 1) not in support for x in quantiles)
            recs = find_recurrent_points(s, mu, F(1, q), q * q, 8)
            assert all(r.point in support and r.found for r in recs)
        assert at_gaps >= 8


def assert_recurrence_matches(s, mu, eps, horizon, samples, seed=None) -> list:
    """find_recurrent_points gives the oracle's samples, times and distances,
    each drawing from its own rng in the same state when seeded."""
    rng = None if seed is None else random.Random(seed)
    fast = find_recurrent_points(s, mu, eps, horizon, samples, rng=rng)
    rng = None if seed is None else random.Random(seed)
    rows = [(r.point.value, r.time, r.distance) for r in fast]
    assert rows == oracle.recurrence(s, mu, eps, horizon, samples, rng=rng)
    return fast


class TestRecurrenceAgainstReference:
    """The walk mod Q gives the samples and returns of the oracle's orbit walk."""

    @pytest.mark.parametrize("seeded", [False, True], ids=["grid", "rng"])
    @pytest.mark.parametrize(
        "off_grid_eps", [False, True], ids=["eps-1/q", "eps-1/(3q+1)"]
    )
    def test_acceptance_sweep(self, acceptance_sweep_maps, seeded, off_grid_eps):
        for i, s in enumerate(acceptance_sweep_maps[:30]):
            q = s.common_denominator()
            eps = F(1, 3 * q + 1) if off_grid_eps else F(1, q)
            mu = attractor_measure(s)
            assert_recurrence_matches(s, mu, eps, q * q, 8, seed=i if seeded else None)

    def test_visited_early_exit(self, acceptance_sweep_maps):
        # Lebesgue quantiles (2i+1)/16 keep Q = lcm(q, den x) <= 16q below the
        # horizon, so a sample that never comes eps-close stops on a revisit
        misses = 0
        for s in acceptance_sweep_maps[:30]:
            q = s.common_denominator()
            fast = assert_recurrence_matches(s, Measure.lebesgue(), F(1, 10**6), 16 * q + 1, 8)
            misses += sum(not r.found for r in fast)
        assert misses > 20

    def test_return_across_zero(self):
        # 1/200 steps back to 199/200, at circle distance 1/100
        s = rotation(F(-1, 100))
        fast = assert_recurrence_matches(s, Measure.lebesgue(), F(1, 50), 200, 100)
        assert fast[0].point == CirclePoint(F(1, 200))
        assert (fast[0].time, fast[0].distance) == (1, F(1, 100))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_returns_before_the_period(self, acceptance_sweep_maps, k):
        # eps = k/q lets a cycle come back to a neighbouring cell first
        early = 0
        for s in acceptance_sweep_maps[:30]:
            q = s.common_denominator()
            fast = assert_recurrence_matches(s, attractor_measure(s), F(k, q), q * q, 8)
            early += sum(r.distance != 0 for r in fast if r.found)
        assert early

    def test_horizon_shorter_than_the_cycle(self, acceptance_sweep_maps):
        cut = 0
        for s in acceptance_sweep_maps[:30]:
            q = s.common_denominator()
            mu = attractor_measure(s)
            fast = assert_recurrence_matches(s, mu, F(1, q), 3, 8)
            full = find_recurrent_points(s, mu, F(1, q), q * q, 8)
            cut += sum(not r.found and f.found and f.time > 3 for r, f in zip(fast, full))
        assert cut

    def test_samples_sharing_cycles_read_the_record(self, acceptance_sweep_maps, piece_lookups):
        # each cycle of cells is walked once: later samples on it read the
        # record, so the piece lookups of Itm._cell_orbit, the one walk, fall
        # far below the return times
        lookups = piece_lookups
        returns = steps = 0
        for i, s in enumerate(acceptance_sweep_maps[:30]):
            q = s.common_denominator()
            mu = attractor_measure(s)
            for eps in (F(16, q), F(1, q)):
                lookups.clear()
                fast = assert_recurrence_matches(s, mu, eps, q * q, 20, seed=i)
            # with eps = 1/q only a full turn returns
            returns += sum(r.time for r in fast if r.found)
            steps += len(lookups)
        assert returns > 1000
        assert 0 < steps < returns / 2

    def test_a_walk_ends_at_its_first_return(self, piece_lookups):
        # one cycle of q cells, far longer than a return within eps = 1/10:
        # each sample's walk ends after its first step, and records nothing
        q = 10**6 + 3
        recs = find_recurrent_points(rotation(F(1, q)), Measure.lebesgue(), F(1, 10), q * q, 20)
        assert [(r.time, r.distance) for r in recs] == [(1, F(1, q))] * 20
        assert len(piece_lookups) == 20

    def test_lebesgue_starts_on_transient_cells(self, acceptance_sweep_maps):
        transient = 0
        for s in acceptance_sweep_maps[:30]:
            q = s.common_denominator()
            attractor = s.attractor().attractor
            for eps in (F(1, q), F(5, q), F(1, 4)):
                fast = assert_recurrence_matches(s, Measure.lebesgue(), eps, q * q, 20)
            transient += sum(r.point not in attractor for r in fast)
        assert transient > 50

    def test_grid_above_2_40_keeps_memory_to_the_cells_walked(self):
        # a rotation by 1/3 whose first piece, of length 2^-41, moves 2^-41
        # further: q = 3 * 2^41, and every cycle of cells has three cells
        tiny = F(1, 2**41)
        s = Itm((F(0), tiny), (F(1, 3) + tiny, F(1, 3)))
        assert s.common_denominator() > 2**42
        args = (s, Measure.lebesgue(), tiny, 10**5, 20)
        tracemalloc.start()
        try:
            fast = find_recurrent_points(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fast == assert_recurrence_matches(*args)
        assert all(r.time == 3 for r in fast)
        # a table of one 8-byte entry per cell would take 2^47 bytes
        assert peak < 2**20


class TestRecurrenceRefusesWhatItCannotSample:
    def test_zero_mass_measure(self):
        with pytest.raises(ValueError, match="zero mass"):
            find_recurrent_points(rotation("1/3"), Measure(), F(1, 10), 10, 4)

    def test_horizon_zero(self):
        with pytest.raises(ValueError, match="horizon"):
            find_recurrent_points(rotation("1/3"), Measure.lebesgue(), F(1, 10), 0, 4)

    def test_negative_samples(self):
        with pytest.raises(ValueError, match="samples"):
            find_recurrent_points(rotation("1/3"), Measure.lebesgue(), F(1, 10), 10, -2)

    def test_no_samples_is_an_empty_search(self):
        assert find_recurrent_points(rotation("1/3"), Measure.lebesgue(), F(1, 10), 10, 0) == []


class TestFunctionalResidual:
    def test_invariant_measures_have_tiny_trig_residual(self):
        s = half_collapse()
        mu = attractor_measure(s)
        assert invariance_residual_functional(s, mu, TrigFamily(8)) == 0.0

    def test_lebesgue_under_rotation(self):
        r = invariance_residual_functional(
            rotation("3/7"), Measure.lebesgue(), TrigFamily(8)
        )
        assert r == 0.0

    def test_non_invariant_is_visible(self):
        r = invariance_residual_functional(
            two_shift_example(), Measure.lebesgue(), TrigFamily(4)
        )
        assert r > 1e-3

    def test_polynomial_family_exact_zero_for_rotation(self):
        r = invariance_residual_functional(
            rotation("2/7"), Measure.lebesgue(), PolynomialFamily(3)
        )
        assert r == 0
        assert isinstance(r, Fraction)

    def test_polynomial_family_positive_exact(self):
        r = invariance_residual_functional(
            two_shift_example(), Measure.lebesgue(), PolynomialFamily(1)
        )
        assert isinstance(r, Fraction)
        assert r > 0

    def test_affine_segments_agree_with_evaluate(self):
        rng = random.Random(5)
        for _ in range(10):
            s = random_itm(rng, rng.randint(1, 4), rng.randint(8, 64))
            charts = s.affine_segments()
            assert charts[0][0] == 0 and charts[-1][1] == 1
            for (lo, hi, a, b), (lo2, _, _, _) in zip(charts, charts[1:]):
                assert hi == lo2
            for _ in range(20):
                x = F(rng.randrange(1, 256), 256)
                val = s.evaluate(CirclePoint(x)).value
                chart = next(c for c in charts if c[0] <= x < c[1])
                assert chart[2] * x + chart[3] == val
