"""Transport to Lebesgue coordinates and the induced interval exchange."""

import random
from fractions import Fraction

import pytest

from itmlib.catalog import half_collapse, random_itm, rotation
from itmlib.circle import ONE, ZERO, ArcSet, CirclePoint
from itmlib.conjugacy import (
    DEFAULT_SEMICONJUGACY_SAMPLES,
    IemReport,
    NotInvariant,
    _exceptional,
    build_h,
    induce_iem,
    verify_iem,
)
from itmlib.itm import Itm, itm
from itmlib.measure import AtomicMeasure, Measure, attractor_measure

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
        # the bisect lookup agrees with scanning every density piece, on the
        # semi-conjugacy sample grid and at 0, 1 and every piece endpoint
        n = DEFAULT_SEMICONJUGACY_SAMPLES
        grid = [F(2 * i + 1, 2 * n) for i in range(n)]
        for s in acceptance_sweep_maps:
            mu = attractor_measure(s)
            ends = [x for lo, hi, _ in mu.density for x in (lo, hi)]
            for x in grid + ends + [ZERO, ONE]:
                expected = not any(lo < x < hi for lo, hi, _ in mu.density)
                assert _exceptional(mu, x) == expected

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


def reference_verify_iem(m: Itm) -> IemReport:
    """verify_iem as pairwise intersections and one preimage per cell."""
    failures: list[str] = []

    # the length checks the library no longer makes: on an Itm they hold
    images: list[ArcSet] = []
    total = ZERO
    for j in range(m.n):
        piece = ArcSet([m.piece(j)])
        img = piece.translate(m.shifts[j])
        images.append(img)
        total += piece.total_length
        assert img.total_length == piece.total_length, f"piece {j} image length differs"
    assert total == 1, "piece lengths do not sum to 1"

    overlap = ZERO
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            overlap += images[i].intersect(images[j]).total_length
    injective = overlap == 0
    if not injective:
        failures.append(f"piece images overlap in total length {overlap}")

    cut_set = {ZERO}
    for img in images:
        for lo, hi in img.segments():
            cut_set.add(lo)
            if hi < ONE:
                cut_set.add(hi)
    cuts = sorted(cut_set)
    lebesgue_ok = True
    for i, lo in enumerate(cuts):
        hi = cuts[i + 1] if i + 1 < len(cuts) else ONE
        cell = ArcSet.from_segments([(lo, hi)])
        pre = m.preimage(cell)
        if pre.total_length != cell.total_length:
            lebesgue_ok = False
            failures.append(f"Lebesgue mass of [{lo},{hi}) changes under preimage")
    return IemReport(lebesgue_ok, injective, overlap, tuple(failures))


class TestVerifyIemAgainstReference:
    """The coverage sweep gives the whole report of the per-cell reference."""

    def test_random_maps(self):
        rng = random.Random(4)
        failing = 0
        for _ in range(300):
            n = rng.randint(1, 6)
            t = random_itm(rng, n, rng.randint(n, 96))
            report = verify_iem(t)
            assert report == reference_verify_iem(t)
            failing += not report.all_ok
        assert failing > 200

    def test_induced_exchanges_of_the_acceptance_sweep(self):
        # the first maps of the acceptance sweep, drawn as tests/test_acceptance.py does
        rng = random.Random(20260824)
        for _ in range(30):
            n = rng.randint(2, 5)
            s = random_itm(rng, n, rng.randint(2 * n, 512))
            induced = induce_iem(s, attractor_measure(s), samples=1).induced
            report = verify_iem(induced)
            assert report.all_ok
            assert report == reference_verify_iem(induced)

    def test_corrupted_three_exchange(self):
        t = corrupted_three_exchange()
        report = verify_iem(t)
        assert report == reference_verify_iem(t)
        assert report.failures == (
            "piece images overlap in total length 1/3",
            "Lebesgue mass of [1/6,1/2) changes under preimage",
            "Lebesgue mass of [1/2,5/6) changes under preimage",
        )
