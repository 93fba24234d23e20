"""Ten end-to-end checks, one test per criterion, sizes and tolerances pinned.

The shared sweep is 100 random maps with 2 to 5 pieces on a common
denominator grid q <= 512; attractors and invariant measures for it are
computed once at module scope.  Each test prints a one-line summary
with the sizes, tolerances, and elapsed times it verified.
"""

import random
import time
from fractions import Fraction

import pytest

from itmlib.approx import (
    detect_convergence,
    detect_relations,
    generate_approximants,
    measure_sequence,
    orbit_collision_preservation,
    verify_limit_measure,
)
from itmlib.catalog import (
    double_rotation,
    fibonacci_up_to,
    golden_mean,
    half_collapse,
    halving_map,
    random_itm,
    rotation,
)
from itmlib.circle import Arc, ArcSet
from itmlib.conjugacy import induce_iem
from itmlib.families import PolynomialFamily, TrigFamily, invariance_residual_functional
from itmlib.itm import FiniteType
from itmlib.measure import (
    Cdf,
    Measure,
    attractor_measure,
    cdf_distance,
    find_recurrent_points,
    invariance_residual_exact,
)
from itmlib.piecewise import empirical_measure, from_itm

F = Fraction

SWEEP_SEED = 20260824
SWEEP_SIZE = 100


@pytest.fixture(scope="module")
def sweep_maps():
    rng = random.Random(SWEEP_SEED)
    maps = []
    while len(maps) < SWEEP_SIZE:
        n = rng.randint(2, 5)
        q = rng.randint(2 * n, 512)
        maps.append(random_itm(rng, n, q))
    return maps


@pytest.fixture(scope="module")
def sweep_attractors(sweep_maps):
    start = time.monotonic()
    results = [s.attractor() for s in sweep_maps]
    return results, time.monotonic() - start


@pytest.fixture(scope="module")
def sweep_measures(sweep_maps, sweep_attractors):
    results, _ = sweep_attractors
    return [
        attractor_measure(s, attr) for s, attr in zip(sweep_maps, results)
    ]


def test_criterion_01_rational_attractor_stabilization(sweep_maps, sweep_attractors):
    results, elapsed = sweep_attractors
    worst = 0
    for s, res in zip(sweep_maps, results):
        q = s.common_denominator()
        assert res.finite_type is FiniteType.YES
        assert res.stabilized_at <= q
        worst = max(worst, res.stabilized_at)
        for outer, inner in zip(res.iterates, res.iterates[1:]):
            assert inner.is_subset_of(outer)
    assert elapsed < 30.0
    print(
        f"criterion 1: {SWEEP_SIZE} maps, q <= 512, all finite type, "
        f"stabilizedAt <= q (worst {worst}), nesting exact, {elapsed:.1f}s < 30s"
    )


def test_criterion_02_exact_invariance(sweep_maps, sweep_measures):
    for s, mu in zip(sweep_maps, sweep_measures):
        assert invariance_residual_exact(s, mu) == 0
        assert mu.non_atomic
        assert mu.total_mass == 1
    print(
        f"criterion 2: {SWEEP_SIZE} attractor measures, "
        "invariance residual exactly 0, all non-atomic"
    )


def test_criterion_03_segment_image_mass(sweep_maps, sweep_measures):
    # mu(S([a,b])) = mu([a,b]) holds for arcs inside one continuity piece
    # and the support: S permutes the support arcs isometrically, so image
    # overlaps carry no mass.  Off the support only one direction is true,
    # because other pieces can translate extra mass onto S([a,b]); the
    # half-collapse map with A = [3/4, 7/8) has mu(A) = 0 < mu(S(A)).
    rng = random.Random(SWEEP_SEED + 3)
    grid = [F(k, 16) for k in range(1, 16)]
    equal = bounded = 0
    for s, mu in zip(sweep_maps, sweep_measures):
        support = mu.support()
        pockets = [
            (j, home)
            for j in range(s.n)
            for home in support.intersect(ArcSet((s.piece(j),)))
        ]
        for _ in range(50):
            j, home = pockets[rng.randrange(len(pockets))]
            u, v = sorted(rng.sample(grid, 2))
            sub = Arc(home.start + home.length * u, home.length * (v - u))
            image = sub.translate(s.shifts[j])
            assert mu.mass_of(ArcSet((sub,))) == mu.mass_of(ArcSet((image,)))
            equal += 1
        for _ in range(50):
            j = rng.randrange(s.n)
            piece = s.piece(j)
            u, v = sorted(rng.sample(grid, 2))
            sub = Arc(piece.start + piece.length * u, piece.length * (v - u))
            image = sub.translate(s.shifts[j])
            assert mu.mass_of(ArcSet((image,))) >= mu.mass_of(ArcSet((sub,)))
            bounded += 1
    print(
        f"criterion 3: {equal} arcs inside supp mu and one continuity piece "
        "have mu(S([a,b])) = mu([a,b]) exactly; "
        f"{bounded} arbitrary interior arcs have mu(S([a,b])) >= mu([a,b])"
    )


def test_criterion_04_metric_conjugacy(sweep_maps, sweep_measures):
    for s, mu in zip(sweep_maps, sweep_measures):
        data = induce_iem(s, mu, samples=128)
        assert data.report.lengths_ok
        assert data.report.lebesgue_ok
        assert data.report.injective
        assert data.report.overlap_length == 0
        assert data.clean_samples

    hc = half_collapse()
    hc_data = induce_iem(hc, attractor_measure(hc))
    assert hc_data.induced.merged() == rotation(0).merged()

    for c in (F(2, 7), golden_mean()):
        rot = rotation(c)
        rot_data = induce_iem(rot, attractor_measure(rot))
        assert rot_data.induced.merged() == rotation(c).merged()
    print(
        f"criterion 4: {SWEEP_SIZE} induced exchanges verified exactly "
        "(lengths, Lebesgue, injectivity); half-collapse gives the identity, "
        "rotations give rotations"
    )


def test_criterion_05_relation_preservation():
    rng = random.Random(SWEEP_SEED + 5)
    depth = 16
    replayed = 0
    for index in range(20):
        if index % 2 == 0:
            q = rng.choice([5, 7, 8, 11, 13, 16])
            p = rng.randrange(1, q)
            target = rotation(F(p, q))
            denoms = None
        else:
            # Bounds from 34 up: low enough that 1/64-grid shifts still
            # round, high enough that 16-step orbit drift (16/(34*35))
            # stays under the 1/64 gap to the nearest breakpoint, so
            # witnessed itineraries must replay at every level.
            beta = F(rng.randrange(8, 24), 32)
            target = double_rotation(beta, beta, F(rng.randrange(1, 64), 64))
            denoms = fibonacci_up_to(10**3, start=34)
        system = detect_relations(target, depth)
        schedule = generate_approximants(target, relations=system, denominators=denoms)
        for rel in system:
            for level in schedule.levels:
                residual = rel.residual(
                    [b.value for b in level.map.breakpoints],
                    list(level.map.shifts),
                )
                assert residual.denominator == 1
        report = orbit_collision_preservation(schedule, relations=system, depth=depth)
        assert report.all_pass
        assert report.checked == 0 or report.uniform_from == 1
        replayed += report.checked
    assert replayed > 0
    print(
        f"criterion 5: 20 targets, witnessed depths <= {depth}, relations "
        f"hold at every level, {replayed} collision replays uniform from level 1"
    )


def test_criterion_06_weak_star_pipeline():
    start = time.monotonic()
    lebesgue = Measure.lebesgue()

    golden = generate_approximants(
        rotation(golden_mean()), denominators=fibonacci_up_to(10**4)
    )
    golden_levels = measure_sequence(golden)
    assert all(lm.measure == lebesgue for lm in golden_levels)
    conv = detect_convergence([lm.measure for lm in golden_levels], tol=0)
    assert conv.cauchy_from == 0
    assert conv.limit_candidate == lebesgue

    g = golden_mean()
    target = double_rotation(F(1, 2), g / 2, (g + 1) / 2)
    schedule = generate_approximants(
        target, denominators=fibonacci_up_to(10**4)
    )
    levels = measure_sequence(schedule, max_iter=2 * 10**4)
    mus = [lm.measure for lm in levels if lm.measure is not None]
    assert len(mus) >= 2
    distances = [cdf_distance(a, b) for a, b in zip(mus, mus[1:])]
    residual = invariance_residual_functional(target, mus[-1], TrigFamily(8))
    assert abs(residual) <= 1e-3
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(
        f"criterion 6: golden schedule ({len(golden_levels)} Fibonacci levels "
        f"<= 10^4) all Lebesgue, Cauchy at tol 0; 2-piece schedule "
        f"({len(mus)} measures, successive distances "
        f"{[float(d) for d in distances[-3:]]}...) final trig-8 residual "
        f"{abs(residual):.2e} <= 1e-3; {elapsed:.1f}s < 120s"
    )


def test_criterion_07_negative_control_no_invariant_measure():
    t = halving_map()
    delta0 = Measure((), ((F(0), F(1)),))
    grid = [F(1, 64), F(1, 8), F(1, 2)]
    previous = None
    for m in (10, 100, 1000):
        emp = empirical_measure(t, F(1), m)
        # Mass concentrates at 0, so the distribution function converges
        # to the one of delta_0 at every continuity point; the raw
        # basepoint distance stays 1 because of the atom at 0 itself.
        assert cdf_distance(emp.measure, delta0) == 1
        cdf = Cdf(emp.measure)
        deviation = max(1 - cdf.at(x) for x in grid)
        if previous is not None:
            assert deviation < previous
        previous = deviation
    assert previous <= F(1, 100)

    report = verify_limit_measure(t, delta0)
    assert "mass near the discontinuity set stays above tolerance" in report.failures
    assert not report.mass_ok

    residual = invariance_residual_functional(t, delta0, PolynomialFamily(1))
    assert abs(residual - 1) <= F(1, 10**10)
    print(
        "criterion 7: empirical measures from 1 concentrate on delta_0 "
        f"(deviation {float(previous):.0e} at m=1000 over continuity grid; "
        "basepoint distance stays 1 by the atom at 0), hypothesis (a) fails, "
        "residual with x -> x equals 1 exactly"
    )


def test_criterion_08_empirical_defect_identity(criterion_8_orbits):
    lengths = (10, 100, 1000, 10000, 100000)
    open_orbits = closed_orbits = 0
    for t, x0 in criterion_8_orbits:
        for m in lengths:
            emp = empirical_measure(t, x0, m)
            assert emp.verify_defect()
            if emp.next_point == emp.base_point:
                assert emp.defect == 0
                closed_orbits += 1
            else:
                assert emp.defect == F(2, m)
                open_orbits += 1
    print(
        f"criterion 8: 50 random affine maps, m in {lengths}, defect "
        f"2/m exactly on {open_orbits} open orbits "
        f"(0 on {closed_orbits} closed ones)"
    )


def test_criterion_09_equidistribution_desk_check():
    start = time.monotonic()
    t = from_itm(rotation(F(2584, 4181)))
    emp = empirical_measure(t, F(0), 10**5)
    distance = cdf_distance(emp.measure, Measure.lebesgue())
    elapsed = time.monotonic() - start
    assert distance <= F(1, 1000)
    assert elapsed < 5.0
    print(
        f"criterion 9: rotation 2584/4181, m=10^5, Kolmogorov distance "
        f"{float(distance):.1e} <= 1e-3 in {elapsed:.1f}s < 5s"
    )


def test_criterion_10_recurrence_density(sweep_maps, sweep_measures):
    # Random quantile levels sample the support, as grid levels do: a level
    # reached at a density run's right end picks the run's last cell.
    rng = random.Random(SWEEP_SEED + 10)
    samples = 20
    total_found = total = 0
    for s, mu in zip(sweep_maps, sweep_measures):
        q = s.common_denominator()
        recs = find_recurrent_points(
            s, mu, eps=F(1, q), horizon=q * q, samples=samples, rng=rng
        )
        found = sum(1 for r in recs if r.found)
        assert F(found, len(recs)) >= F(99, 100)
        total_found += found
        total += len(recs)
    print(
        f"criterion 10: eps=1/q, horizon=q^2, {total_found}/{total} sampled "
        "support points recur (>= 99% per map)"
    )
