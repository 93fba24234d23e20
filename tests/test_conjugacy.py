"""Transport to Lebesgue coordinates and the induced interval exchange."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from itmlib import conjugacy
from itmlib.catalog import half_collapse, random_itm, rotation
from itmlib.circle import ONE, ZERO, CirclePoint
from itmlib.conjugacy import (
    DEFAULT_SEMICONJUGACY_SAMPLES,
    NotInvariant,
    build_h,
    induce_iem,
    semiconjugacy_failure,
    verify_iem,
)
from itmlib.itm import Itm, itm
from itmlib.measure import (
    AtomicMeasure,
    Measure,
    _rigid_pieces,
    attractor_measure,
    invariance_residual_exact,
)

F = Fraction


def three_exchange():
    # genuine 3-interval exchange: lengths (1/2, 1/3, 1/6) in reversed order
    return itm(["0", "1/2", "5/6"], ["1/2", "2/3", "1/6"])


def corrupted_three_exchange():
    # forcing d_1 = 0 makes images [1/2,1) and [1/2,5/6) collide
    return itm(["0", "1/2", "5/6"], ["1/2", "0", "1/6"])


def same_map(a: Itm, b: Itm) -> bool:
    return a.merged() == b.merged()


class TestBuildH:
    def test_lebesgue_identity(self):
        h = build_h(Measure.lebesgue())
        assert h.at(F(2, 5)) == F(2, 5)

    def test_half_density(self):
        h = build_h(Measure(((F(0), F(1, 2), F(2)),)))
        assert h.at(F(1, 4)) == F(1, 2)
        assert h.at(F(3, 4)) == 1

    def test_window_density(self):
        h = build_h(Measure(((F(1, 4), F(1, 2), F(4)),)))
        assert h.at(F(1, 4)) == 0
        assert h.at(F(3, 8)) == F(1, 2)
        assert h.at(F(1, 2)) == 1

    def test_rejects_atoms(self):
        with pytest.raises(AtomicMeasure):
            build_h(Measure.point_mass(F(1, 2)))

    def test_rejects_non_probability(self):
        with pytest.raises(ValueError):
            build_h(Measure.lebesgue().scale(F(1, 2)))


class TestBuildHbar:
    def test_identity(self):
        hbar = build_h(Measure.lebesgue()).rightmost_preimage
        assert hbar(F(2, 7)) == F(2, 7)

    def test_half_density_right_inverse(self):
        h = build_h(Measure(((F(0), F(1, 2), F(2)),)))
        hbar = h.rightmost_preimage
        assert hbar(F(1, 2)) == F(1, 4)
        assert hbar(F(1)) == F(1)

    def test_round_trip(self):
        h = build_h(Measure(((F(1, 8), F(5, 8), F(2)),)))
        hbar = h.rightmost_preimage
        for k in range(8):
            y = F(k, 8)
            assert h.at(hbar(y)) == y


class TestInduceIem:
    def test_half_collapse_gives_identity(self):
        s = half_collapse()
        data = induce_iem(s, attractor_measure(s))
        assert same_map(data.induced, rotation(0))
        assert data.report.all_ok
        assert data.clean_samples

    def test_rotation_gives_rotation(self):
        s = rotation("2/7")
        data = induce_iem(s, Measure.lebesgue())
        assert same_map(data.induced, rotation(F(2, 7)))
        assert data.report.all_ok

    def test_exchange_is_its_own_conjugate(self):
        s = three_exchange()
        data = induce_iem(s, Measure.lebesgue())
        assert same_map(data.induced, three_exchange())
        assert data.report.all_ok
        assert data.clean_samples

    def test_zero_mass_pieces_vanish(self):
        # pieces 1 and 2 carry no mass: tau repeats and the exchange is trivial
        s = itm(["0", "1/2", "3/4"], ["0", "1/2", "1/4"])
        mu = attractor_measure(s)
        data = induce_iem(s, mu)
        assert data.tau == (F(0), F(1), F(1), F(1))
        assert same_map(data.induced, rotation(0))

    def test_tau_monotone(self):
        s = three_exchange()
        data = induce_iem(s, Measure.lebesgue())
        assert list(data.tau) == sorted(data.tau)

    def test_rejects_non_invariant(self):
        with pytest.raises(NotInvariant):
            induce_iem(half_collapse(), Measure.lebesgue())

    def test_rejects_atoms(self):
        with pytest.raises(AtomicMeasure):
            induce_iem(rotation("1/3"), Measure.point_mass(0))

    def test_exceptional_set_membership(self):
        s = half_collapse()
        data = induce_iem(s, attractor_measure(s))
        assert not data.is_exceptional(F(1, 4))
        assert data.is_exceptional(F(3, 4))
        assert data.is_exceptional(F(1, 2))

    def test_exceptional_set_against_reference(self, acceptance_sweep_maps):
        # the lookup in h's rows agrees with scanning every density piece, on
        # the semi-conjugacy sample grid and at 0, 1 and every piece endpoint,
        # and the samples are built from it on the grid
        n = DEFAULT_SEMICONJUGACY_SAMPLES
        grid = [F(2 * i + 1, 2 * n) for i in range(n)]
        for s in acceptance_sweep_maps:
            mu = attractor_measure(s)
            ends = [x for lo, hi, _ in mu.density for x in (lo, hi)]
            points = grid + ends + [ZERO, ONE]
            expected = [oracle.exceptional(mu, x) for x in points]
            data = induce_iem(s, mu, samples=n)
            assert [data.is_exceptional(x) for x in points] == expected
            assert [(p.x, p.exceptional) for p in data.samples] == list(zip(grid, expected))

    def test_support_gaps_refine_the_exchange(self):
        # the support gap (3/94,28/94) inside the cut piece [0,35/94) maps
        # onto positive mass, so the exchange needs a cut at y=3/20 that is
        # not any tau_j; shifts verified by hand from h and the attractor
        s = itm(["35/94", "19/47", "27/47", "65/94"], ["14/47", "26/47", "30/47", "33/47"])
        data = induce_iem(s, attractor_measure(s))
        assert data.report.all_ok
        assert data.clean_samples
        expected = itm(
            (F(0), F(3, 20), F(3, 10), F(7, 20), F(1, 2)),
            (F(7, 10), F(17, 20), F(7, 20), F(1, 2), F(13, 20)),
        )
        assert same_map(data.induced, expected)
        assert F(3, 20) not in data.tau

    def test_full_support_measure_uses_tau_pieces(self):
        s = three_exchange()
        data = induce_iem(s, Measure.lebesgue())
        starts = tuple(p.value for p in data.induced.breakpoints)
        assert starts == (F(0), F(1, 2), F(5, 6))

    def test_random_rational_sweep(self):
        rng = random.Random(29)
        for _ in range(10):
            s = random_itm(rng, rng.randint(2, 4), rng.randint(8, 128))
            mu = attractor_measure(s)
            data = induce_iem(s, mu, samples=256)
            assert data.report.all_ok
            assert data.clean_samples


class TestVerifyIem:
    def test_identity(self):
        assert verify_iem(rotation(0)).all_ok

    def test_rotation(self):
        assert verify_iem(rotation(F(3, 8))).all_ok

    def test_three_exchange(self):
        report = verify_iem(three_exchange())
        assert report.all_ok
        assert report.overlap_length == 0

    def test_corrupted_shift_fails(self):
        report = verify_iem(corrupted_three_exchange())
        assert report.lengths_ok
        assert not report.injective
        assert not report.lebesgue_ok
        assert report.overlap_length == F(1, 3)
        assert report.failures


class TestIemType:
    """An interval exchange is an Itm; merged() is its canonical form."""

    def test_canonical_merges(self):
        e = itm((F(0), F(1, 2)), (F(1, 4), F(1, 4)))
        assert same_map(e.merged(), rotation(F(1, 4)))

    def test_evaluate(self):
        e = three_exchange()
        assert e.evaluate(CirclePoint(F(0))).value == F(1, 2)
        assert e.evaluate(CirclePoint(F(1, 2))).value == F(7, 6) % 1
        assert e.evaluate(CirclePoint(F(11, 12))).value == F(1, 12)

    def test_same_map_distinguishes(self):
        assert not same_map(rotation(0), rotation(F(1, 3)))


def assert_report_matches(t: Itm) -> None:
    """verify_iem gives the oracle's report: pairwise overlaps and one
    preimage length per cell."""
    report = verify_iem(t)
    assert report.lengths_ok
    got = (report.lebesgue_ok, report.injective, report.overlap_length, report.failures)
    assert got == oracle.verify_iem(t)


class TestVerifyIemAgainstReference:
    """The coverage sweep gives the whole report of the oracle's per-cell check."""

    def test_random_maps(self):
        rng = random.Random(4)
        failing = 0
        for _ in range(300):
            n = rng.randint(1, 6)
            t = random_itm(rng, n, rng.randint(n, 96))
            assert_report_matches(t)
            failing += not verify_iem(t).all_ok
        assert failing > 200

    def test_a_piece_across_0_adds_no_cut(self):
        # the piece [1/2, 1 + 1/8) is split at 0 into charts whose images
        # meet at 1/10, inside [0, 9/40), which both pieces cover; the report
        # cuts only at the ends of piece images, so that cell stays whole
        t = itm(["1/8", "1/2"], ["3/4", "1/10"])
        assert_report_matches(t)
        assert "Lebesgue mass of [0,9/40) changes under preimage" in verify_iem(t).failures

    def test_induced_exchanges_of_the_acceptance_sweep(self):
        # the first maps of the acceptance sweep, drawn as tests/test_acceptance.py does
        rng = random.Random(20260824)
        for _ in range(30):
            n = rng.randint(2, 5)
            s = random_itm(rng, n, rng.randint(2 * n, 512))
            induced = induce_iem(s, attractor_measure(s), samples=1).induced
            assert verify_iem(induced).all_ok
            assert_report_matches(induced)

    def test_corrupted_three_exchange(self):
        t = corrupted_three_exchange()
        assert_report_matches(t)
        assert verify_iem(t).failures == (
            "piece images overlap in total length 1/3",
            "Lebesgue mass of [1/6,1/2) changes under preimage",
            "Lebesgue mass of [1/2,5/6) changes under preimage",
        )


def with_start(t: Itm, j: int, start: Fraction) -> Itm:
    starts = [p.value for p in t.breakpoints]
    starts[j] = start
    return Itm(tuple(starts), t.shifts)


def with_shift(t: Itm, j: int, shift: Fraction) -> Itm:
    shifts = list(t.shifts)
    shifts[j] = shift
    return Itm(t.breakpoints, tuple(shifts))


def certified(s: Itm, data, t: Itm) -> bool:
    """The certificate passes, failing on the oracle's first failing cell if not."""
    cell = semiconjugacy_failure(s, data.h, t)
    assert cell == oracle.semiconjugacy_failure(s, data.mu, t)
    return cell is None


def induced_parameters(t: Itm) -> tuple:
    return tuple(p.value for p in t.breakpoints), t.shifts


@st.composite
def grid_maps(draw, max_pieces=5, max_q=128):
    n = draw(st.integers(1, max_pieces))
    q = draw(st.integers(max(n, 2), max_q))
    return random_itm(random.Random(draw(st.integers(0, 2**32))), n, q)


EPS = F(1, 10**6)


class TestCertificateAgainstSamples:
    """The cell-by-cell certificate against the sampled check it replaced."""

    def test_acceptance_sweep(self, acceptance_sweep_maps):
        for s in acceptance_sweep_maps:
            data = induce_iem(s, attractor_measure(s), samples=0)
            assert certified(s, data, data.induced)
            assert data.clean_samples
            assert oracle.sampled_semiconjugacy(s, data.mu, data.induced, 1024)

    @settings(max_examples=60)
    @given(grid_maps())
    def test_random_maps(self, s):
        data = induce_iem(s, attractor_measure(s), samples=0)
        reference = oracle.sampled_semiconjugacy(s, data.mu, data.induced, 1024)
        assert certified(s, data, data.induced)
        assert data.clean_samples == reference
        assert data.clean_samples and data.report.all_ok

    def test_cells_keep_both_sides_affine(self, acceptance_sweep_maps):
        # the cells tile [0, 1); inside one, neither x nor x + b meets a cut
        # of h, and h(x) meets no chart end of T
        for s in acceptance_sweep_maps[:30]:
            data = induce_iem(s, attractor_measure(s), samples=0)
            h, t = oracle.Cdf(data.mu), data.induced
            ends = [e for lo, hi, _, _ in oracle.Map(t).charts() for e in (lo, hi)]
            cells = oracle.semiconjugacy_cells(s, data.mu, t)
            assert cells[0][0] == 0 and cells[-1][1] == 1
            assert all(a[1] == b[0] for a, b in zip(cells, cells[1:]))
            for u, v, b in cells:
                assert u < v
                assert not any(u < c < v or u + b < c < v + b for c in h.cuts)
                assert not any(h.at(u) < y < h.at(v) for y in ends)

    def test_failure_past_a_cut_of_h_under_s(self):
        # S = rotation by 1/2 carries [0, 1/2) across the cut 5/8 of h at
        # x = 1/8.  On (1/8, 1/2) both sides are x/2 + 3/4; on (0, 1/8)
        # h(S(x)) has slope 9/2 and T(h(x)) slope 1/2
        mu = Measure(((F(0), F(1, 2), F(1, 2)), (F(1, 2), F(5, 8), F(9, 2)),
                      (F(5, 8), F(1), F(1, 2))))
        t = itm(["0", "1/4"], ["3/4", "0"])
        assert semiconjugacy_failure(rotation("1/2"), build_h(mu), t) == (F(0), F(1, 8))

    def test_failure_with_equal_values_at_the_midpoint(self):
        # on (0, 1/2) h(S(x)) = 1/4 + 3x/2 and T(h(x)) = x/2 + 1/2 meet at
        # the midpoint 1/4 but differ in slope
        mu = Measure(((F(0), F(1, 2), F(1, 2)), (F(1, 2), F(1), F(3, 2))))
        t = itm(["0", "1/4"], ["1/2", "0"])
        assert semiconjugacy_failure(rotation("1/2"), build_h(mu), t) == (F(0), F(1, 2))

    def test_failing_cell_is_named(self):
        s = three_exchange()
        data = induce_iem(s, Measure.lebesgue())
        t = with_shift(data.induced, 1, data.induced.shifts[1] + EPS)
        assert semiconjugacy_failure(s, data.h, t) == (F(1, 2), F(5, 6))


class TestWalkAgainstReference:
    """The integer walk gives the Fraction path's exchange and failing cells."""

    def test_pieces_carry_both_weights(self, acceptance_sweep_maps):
        # the pieces tile [0, Q) in order; no end of mu's density lies inside
        # a piece or its image, and w and w' are mu's density at u and at
        # u + b, the image of u under S
        for s in acceptance_sweep_maps[:30]:
            mu = attractor_measure(s)
            ends = {e for lo, hi, _ in mu.density for e in (lo, hi)}
            q, unit, pieces = _rigid_pieces(s, mu)
            assert pieces[0][0] == 0 and pieces[-1][1] == q
            assert all(a[1] == b[0] for a, b in zip(pieces, pieces[1:]))
            for u, v, b, w, w_image, *_ in pieces:
                # the walk counts w units of 1/M per cell of 1/Q
                w, w_image = F(w * q, unit), F(w_image * q, unit)
                x, y = F(u, q), F(u + b, q)
                assert s.evaluate(CirclePoint(x)).value == y % 1
                assert not any(x < e < F(v, q) or y < e < F(v + b, q) for e in ends)
                assert w == sum((d for lo, hi, d in mu.density if lo <= x < hi), ZERO)
                assert w_image == sum((d for lo, hi, d in mu.density if lo <= y < hi), ZERO)

    def test_tau_reads_h_at_the_breakpoints(self, acceptance_sweep_maps):
        for s in acceptance_sweep_maps:
            data = induce_iem(s, attractor_measure(s), samples=0)
            h = oracle.Cdf(data.mu)
            starts = [lo for lo, _, _, _ in oracle.Map(s).pieces]
            assert data.tau == tuple(h.at(x) for x in starts) + (ONE,)

    def test_induced_on_the_acceptance_sweep(self, acceptance_sweep_maps):
        for s in acceptance_sweep_maps:
            mu = attractor_measure(s)
            induced = induce_iem(s, mu, samples=0).induced
            assert induced_parameters(induced) == oracle.induced(s, mu)

    def test_induced_on_levels_above_2_40(self, approximant_level_maps):
        levels = [s for s in approximant_level_maps if s.common_denominator() > 2**40]
        assert len(levels) >= 5
        for s in levels:
            mu = attractor_measure(s)
            data = induce_iem(s, mu, samples=0)
            assert induced_parameters(data.induced) == oracle.induced(s, mu)
            assert certified(s, data, data.induced)
            t = data.induced
            for j in range(t.n):
                assert not certified(s, data, with_shift(t, j, t.shifts[j] + EPS))


class TestCertificateMutants:
    """Exchanges that differ from the induced one on a set of positive
    Lebesgue measure are rejected; equal maps are accepted."""

    def test_moved_shift_is_rejected(self, acceptance_sweep_maps):
        mutants = 0
        for s in acceptance_sweep_maps[:40]:
            data = induce_iem(s, attractor_measure(s), samples=0)
            t = data.induced
            for j in range(t.n):
                assert not certified(s, data, with_shift(t, j, t.shifts[j] + EPS))
                mutants += 1
        assert mutants > 300

    def test_moved_start_is_rejected(self, acceptance_sweep_maps):
        mutants = 0
        for s in acceptance_sweep_maps[:40]:
            data = induce_iem(s, attractor_measure(s), samples=0)
            t = data.induced
            for j in range(1, t.n):
                if t.shifts[j] == t.shifts[j - 1]:
                    continue
                start = t.breakpoints[j].value
                assert not certified(s, data, with_start(t, j, start + EPS))
                assert not certified(s, data, with_start(t, j, start - EPS))
                mutants += 1
        assert mutants > 50

    def test_swapped_pieces_are_rejected(self, acceptance_sweep_maps):
        mutants = 0
        for s in acceptance_sweep_maps[:40]:
            data = induce_iem(s, attractor_measure(s), samples=0)
            t = data.induced
            for j in range(1, t.n):
                if t.shifts[j] == t.shifts[j - 1]:
                    continue
                swapped = with_shift(t, j, t.shifts[j - 1])
                swapped = with_shift(swapped, j - 1, t.shifts[j])
                assert not certified(s, data, swapped)
                mutants += 1
        assert mutants > 50

    def test_start_mutant_that_samples_miss(self, acceptance_sweep_maps):
        # a start moved by 1e-6 changes T on a set of Lebesgue measure 1e-6,
        # which holds none of the 2048 grid points
        s = acceptance_sweep_maps[1]
        data = induce_iem(s, attractor_measure(s), samples=0)
        t = data.induced
        assert t.breakpoints[1].value == F(1, 44)
        assert t.shifts[0] != t.shifts[1]
        mutant = with_start(t, 1, F(1, 44) + EPS)
        assert not certified(s, data, mutant)
        assert oracle.sampled_semiconjugacy(s, data.mu, mutant, 2048)

    def test_start_between_equal_shifts_is_accepted(self, acceptance_sweep_maps):
        rng = random.Random(3)
        for s in acceptance_sweep_maps[:40]:
            data = induce_iem(s, attractor_measure(s), samples=0)
            t = data.induced
            j = rng.randrange(t.n)
            piece = t.piece(j)
            cut = piece.start + piece.length / 3
            refined = t.with_breakpoint(cut)
            i = refined.breakpoints.index(cut)
            moved = with_start(refined, i, (cut + piece.length / 3).value)
            assert same_map(moved, t)
            assert certified(s, data, refined)
            assert certified(s, data, moved)


class TestCertificateMetamorphic:
    def test_grid_rotation(self, acceptance_sweep_maps):
        # x -> x + r carries mu to mu_r and h to h_r = h(x - r) - c with
        # c = mu([0, 1 - r]), so T_r(y) = T(y + c) - c
        rng = random.Random(12)
        for s in acceptance_sweep_maps[:30]:
            q = s.common_denominator()
            r = F(rng.randrange(1, q), q)
            data = induce_iem(s, attractor_measure(s), samples=0)
            moved_map = oracle.rotated(s, r)
            moved = induce_iem(moved_map, attractor_measure(moved_map), samples=0)
            assert moved.clean_samples == data.clean_samples
            c = data.h.at(1 - r)
            assert same_map(moved.induced, oracle.rotated(data.induced, -c))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_refining_at_a_grid_point(self, acceptance_sweep_maps, k):
        rng = random.Random(k)
        for s in acceptance_sweep_maps[:30]:
            q = s.common_denominator()
            data = induce_iem(s, attractor_measure(s), samples=0)
            refined = s.with_breakpoint(F(rng.randrange(k * q), k * q))
            again = induce_iem(refined, data.mu, samples=0)
            assert again.clean_samples == data.clean_samples
            assert same_map(again.induced, data.induced)


def invariant_cells(s: Itm) -> list[list[int]]:
    """The cycles of the cell map: S moves each cell [i/q, (i+1)/q) of its
    grid rigidly onto another, and a measure uniform on each cycle is
    invariant."""
    q = s.common_denominator()
    image = [
        (i + s.shifts[s.piece_index(CirclePoint(F(i, q)))] * q) % q for i in range(q)
    ]
    cycles, seen = [], set()
    for i in range(q):
        path = []
        while i not in seen:
            seen.add(i)
            path.append(i)
            i = int(image[i])
        if i in path:
            cycles.append(path[path.index(i):])
    return cycles


@st.composite
def map_with_measure(draw):
    s = draw(grid_maps(max_pieces=4, max_q=48))
    q = s.common_denominator()
    if draw(st.booleans()):
        cycles = invariant_cells(s)
        chosen = draw(st.lists(st.sampled_from(cycles), min_size=1, max_size=3))
        cells = {}
        for cycle in chosen:
            w = draw(st.integers(1, 3))
            cells.update((i, w) for i in cycle)
    else:
        picked = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=6))
        cells = {i: draw(st.integers(1, 3)) for i in picked}
    raw = Measure(tuple((F(i, q), F(i + 1, q), F(w)) for i, w in cells.items()))
    return s, raw.scale(1 / raw.total_mass)


def exceptional_probes(data, n: int) -> list:
    """The grid of n samples, 0, 1, each cut of h and the points a third of
    a cell of h's grid either side of it, and two points off [0, 1]."""
    grid, cuts = data.h._grid, data.h.cuts
    near = [c + d for c in cuts for d in (F(-1, 3 * grid), F(1, 3 * grid))]
    return [F(2 * i + 1, 2 * n) for i in range(n)] + [*cuts, *near, ZERO, ONE, F(-1, 2), F(3, 2)]


def assert_exceptional_matches(data, n: int) -> None:
    points = exceptional_probes(data, n)
    assert [data.is_exceptional(x) for x in points] == [
        oracle.exceptional(data.mu, x) for x in points
    ]


def assert_h_table_matches(mu, n: int) -> None:
    """The h(x) table of n grid points, and the samples built from it, give
    h.at(x) and is_exceptional(x) at each point, as the oracle does."""
    data = induce_iem(rotation(0), mu, samples=n)
    points = [F(2 * i + 1, 2 * n) for i in range(n)]
    den, values = data._h_table
    h = oracle.Cdf(mu)
    expected = [(h.at(x), oracle.exceptional(mu, x)) for x in points]
    assert [(F(v, den), flag) for v, flag in values] == expected
    assert [(data.h.at(x), data.is_exceptional(x)) for x in points] == expected
    samples = [(x, exceptional) for x, (_, exceptional) in zip(points, expected)]
    assert [(p.x, p.exceptional) for p in data.samples] == samples


class TestExceptionalOnRows:
    """is_exceptional and the samples read h's integer rows and agree with
    the oracle's scan of the density pieces."""

    def test_acceptance_sweep(self, acceptance_sweep_maps):
        for s in acceptance_sweep_maps:
            data = induce_iem(s, attractor_measure(s), samples=1024)
            assert_exceptional_matches(data, 1024)
            expected = [oracle.exceptional(data.mu, p.x) for p in data.samples]
            assert [p.exceptional for p in data.samples] == expected

    def test_levels_above_2_40(self, approximant_level_maps):
        levels = [s for s in approximant_level_maps if s.common_denominator() > 2**40]
        assert len(levels) >= 5
        for s in levels:
            assert_exceptional_matches(induce_iem(s, attractor_measure(s), samples=0), 256)

    @settings(max_examples=100)
    @given(map_with_measure())
    def test_kinks_inside_the_support(self, pair):
        # the identity leaves any measure invariant, here with cuts where the
        # weight changes inside the support as well as at its ends
        _, mu = pair
        assert_exceptional_matches(induce_iem(rotation(0), mu, samples=0), 64)

    @settings(max_examples=100)
    @given(map_with_measure(), st.sampled_from(["none", "one", "cuts", "drawn"]), st.data())
    def test_the_table_is_h_and_the_exceptional_set_at_each_grid_point(self, pair, grid, data):
        s, mu = pair
        q = s.common_denominator()
        # a grid point (2i + 1)/(2n) lands on the cut j/q of an even q when
        # n = q/2; an odd q has no cut on any such grid
        if grid == "drawn":
            n = data.draw(st.integers(1, 200))
        else:
            n = {"none": 0, "one": 1, "cuts": max(q // 2, 1)}[grid]
        assert_h_table_matches(mu, n)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 8])
    def test_the_table_on_cuts_and_flat_rows(self, n):
        # mu lives on [0, 1/4) and [1/2, 1): the grid points of n = 1, 2, 4
        # and 8 land on its cuts 1/4 and 1/2 or in its gap, where h is flat
        mu = Measure(((ZERO, F(1, 4), F(2)), (F(1, 2), ONE, F(1))))
        assert_h_table_matches(mu, n)

    @pytest.mark.parametrize("shift", ["0", "1/2", "3/7"])
    def test_lebesgue_on_rotations(self, shift):
        data = induce_iem(rotation(shift), Measure.lebesgue(), samples=16)
        assert_exceptional_matches(data, 16)
        assert not any(p.exceptional for p in data.samples)
        assert data.is_exceptional(0) and data.is_exceptional(1)

    def test_samples_read_no_density(self, acceptance_sweep_maps, monkeypatch):
        def refuse(*_):
            raise AssertionError("the Fraction density was read")

        measures = [(s, attractor_measure(s)) for s in acceptance_sweep_maps[:40]]
        monkeypatch.setattr(Measure, "density", property(refuse))
        flagged = 0
        for s, mu in measures:
            data = induce_iem(s, mu, samples=256)
            flagged += sum(p.exceptional for p in data.samples)
            assert data.is_exceptional(0)
        assert flagged > 0


class TestPiecesCarryH:
    """The pieces of the integer walk carry h at both ends, summed on integers."""

    @settings(max_examples=100)
    @given(map_with_measure())
    def test_pieces_carry_h_at_both_ends(self, pair):
        # f/M and f'/M are mu([0, x]) at x = u/Q and at its image (u + b)/Q
        s, mu = pair
        h = oracle.Cdf(mu)
        q, unit, pieces = _rigid_pieces(s, mu)
        for u, _, b, _, _, f, f_image in pieces:
            assert F(f, unit) == h.at(F(u, q))
            assert F(f_image, unit) == h.at(F(u + b, q))


class TestInvarianceFromTheCertificate:
    """Certificate and verify_iem passing prove invariance, so induce_iem
    computes no residual on an invariant measure and still rejects every
    non-invariant one."""

    @settings(max_examples=150)
    @given(map_with_measure())
    def test_non_invariant_measures_raise(self, pair):
        s, mu = pair
        h, t = build_h(mu), Itm(*oracle.induced(s, mu))
        cell = semiconjugacy_failure(s, h, t)
        assert cell == oracle.semiconjugacy_failure(s, mu, t)
        if invariance_residual_exact(s, mu) != 0:
            with pytest.raises(NotInvariant):
                induce_iem(s, mu, samples=0)
        else:
            data = induce_iem(s, mu, samples=0)
            assert data.clean_samples and data.report.all_ok

    def test_invariant_measure_computes_no_residual(
        self, acceptance_sweep_maps, monkeypatch
    ):
        def residual(*_):
            raise AssertionError("residual computed for an invariant measure")

        measures = [attractor_measure(s) for s in acceptance_sweep_maps[:30]]
        monkeypatch.setattr(conjugacy, "invariance_residual_exact", residual)
        for s, mu in zip(acceptance_sweep_maps, measures):
            data = induce_iem(s, mu, samples=0)
            assert data.clean_samples and data.report.all_ok

    def test_failing_check_on_an_invariant_measure_is_returned(self, monkeypatch):
        cell = (F(1, 4), F(1, 2))
        monkeypatch.setattr(conjugacy, "_semiconjugacy_failure", lambda *_: cell)
        data = induce_iem(rotation("1/3"), Measure.lebesgue())
        assert data.failing_cell == (F(1, 4), F(1, 2))
        assert not data.clean_samples
