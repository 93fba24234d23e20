"""Interval translation maps: evaluation, images, attractors, homtervals."""

import itertools
import random
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import assert_moves_match, itms, outcome, rationals
from itmlib.approx import OrderViolation, generate_approximants
from itmlib.catalog import (
    double_rotation,
    half_collapse,
    random_itm,
    rotation,
    two_shift_example,
)
from itmlib.circle import Arc, ArcSet, CirclePoint, _runs_of, arc, arcset
from itmlib.conjugacy import induce_iem
from itmlib.itm import (
    DEFAULT_MAX_ARCS,
    DEFAULT_MAX_ITER,
    AttractorResult,
    BudgetExceeded,
    FiniteType,
    Genericity,
    Itm,
    Side,
    itm,
)
from itmlib.measure import NotFiniteType, attractor_measure
from itmlib.plots import attractor_svg

F = Fraction


def pt(x) -> CirclePoint:
    return CirclePoint(F(x) if not isinstance(x, str) else F(*map(int, x.split("/"))))


@st.composite
def small_arcsets(draw):
    q = rationals(min_value=0, max_value=1, max_denominator=32)
    pairs = draw(
        st.lists(
            st.tuples(q.filter(lambda v: v < 1), q.filter(lambda v: v > 0)),
            max_size=4,
        )
    )
    return ArcSet([Arc(CirclePoint(s), l) for s, l in pairs])


class TestConstruction:
    def test_coerces_strings(self):
        s = itm(["0", "1/2"], ["1/3", "1/4"])
        assert s.breakpoints == (pt(0), pt("1/2"))
        assert s.shifts == (F(1, 3), F(1, 4))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            itm(["1/2", "0"], ["0", "0"])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            itm(["0"], ["0", "1/2"])

    def test_shift_reduced_mod_one(self):
        assert itm(["0"], ["7/3"]).shifts == (F(1, 3),)

    def test_negative_and_large_values_reduced(self):
        s = Itm((F(-1), F(-3, 4), F(3, 2)), (F(-1, 3), F(4), F(7, 5)))
        assert [p.value for p in s.breakpoints] == [0, F(1, 4), F(1, 2)]
        assert s.shifts == (F(2, 3), F(0), F(2, 5))
        assert s == Itm((F(0), F(1, 4), F(1, 2)), (F(2, 3), F(0), F(2, 5)))

    def test_pieces_partition(self):
        s = two_shift_example()
        assert s.piece(0) == arc(0, "1/2")
        assert s.piece(1) == arc("1/2", "1/2")
        assert rotation("1/3").piece(0) == arc(0, 1)

    def test_common_denominator(self):
        assert two_shift_example().common_denominator() == 12
        assert rotation(F(3, 7)).common_denominator() == 7


def spellings(v: Fraction) -> list:
    """v as a string, a Fraction and a CirclePoint, and as an int when it is one."""
    return [str(v), v, CirclePoint(v)] + ([int(v)] if v.denominator == 1 else [])


def lengths(v: Fraction) -> list:
    """An arc length as a string, a Fraction and, when it is one, an int."""
    return [str(v), v] + ([int(v)] if v.denominator == 1 else [])


def reduced(s: Itm) -> bool:
    """Whether s holds tuples of CirclePoints and shifts on Fractions in [0, 1)."""
    return (
        isinstance(s.breakpoints, tuple)
        and isinstance(s.shifts, tuple)
        and all(type(p) is CirclePoint and type(p.value) is F for p in s.breakpoints)
        and all(type(c) is F and 0 <= c < 1 for c in s.shifts)
    )


class TestConstructorsCoerceOnce:
    """Each constructor reads ints, strings, Fractions and CirclePoints alike."""

    def test_itm_and_its_shorthand(self):
        want = Itm((CirclePoint(F(0)), CirclePoint(F(1, 3))), (F(1, 4), F(0)))
        coords = [F(0), F(4, 3), F(5, 4), F(1)]
        for b0, b1, c0, c1 in itertools.product(*map(spellings, coords)):
            for s in (Itm((b0, b1), (c0, c1)), itm([b0, b1], [c0, c1])):
                assert s == want and reduced(s)

    def test_arc_and_its_shorthand(self):
        for length in (F(1, 2), F(1)):
            want = Arc(CirclePoint(F(3, 4)), length)
            for start, size in itertools.product(spellings(F(7, 4)), lengths(length)):
                for a in (Arc(start, size), arc(start, size)):
                    assert a == want
                    assert type(a.start) is CirclePoint and type(a.start.value) is F
                    assert type(a.length) is F

    def test_rotation(self):
        want = Itm((CirclePoint(F(0)),), (F(1, 4),))
        for c in spellings(F(5, 4)):
            assert rotation(c) == want and reduced(rotation(c))

    def test_double_rotation(self):
        want = Itm((CirclePoint(F(0)), CirclePoint(F(1, 3))), (F(1, 2), F(0)))
        for beta, c0, c1 in itertools.product(*map(spellings, [F(4, 3), F(-1, 2), F(2)])):
            s = double_rotation(beta, c0, c1)
            assert s == want and reduced(s)

    def test_with_breakpoint(self):
        s = two_shift_example()
        want = Itm((F(0), F(1, 4), F(1, 2)), (F(1, 3), F(1, 3), F(1, 4)))
        for x in spellings(F(5, 4)):
            assert s.with_breakpoint(x) == want and reduced(s.with_breakpoint(x))
        for x in spellings(F(1)):
            assert s.with_breakpoint(x) is s


class TestEvaluate:
    def test_rotation(self):
        assert rotation("1/3").evaluate(pt("1/2")) == pt("5/6")

    def test_two_shift_at_breakpoint(self):
        # 1/2 belongs to the right piece by the half-open convention
        assert two_shift_example().evaluate(pt("1/2")) == pt("3/4")

    def test_fixed_point_at_zero(self):
        assert half_collapse().evaluate(pt(0)) == pt(0)

    def test_wrapping_piece(self):
        s = itm(["1/4", "3/4"], ["0", "1/2"])
        # 0 lies in the wrapping piece [3/4, 1/4)
        assert s.piece_index(pt(0)) == 1
        assert s.evaluate(pt(0)) == pt("1/2")

    @given(itms(), rationals(min_value=0, max_value=1, max_denominator=64))
    def test_piece_membership_consistent(self, s, x):
        p = CirclePoint(x)
        j = s.piece_index(p)
        assert s.piece(j).contains(p)
        assert s.evaluate(p) == p + s.shifts[j]


class TestOneSidedOrbits:
    def test_rotation_returns_to_zero(self):
        orbit = rotation("1/3").evaluate_one_sided(0, Side.RIGHT, 3)
        assert orbit.points[-1] == pt(0)
        assert orbit.visit_counts == (3,)
        assert orbit.winding == 1

    def test_zero_steps(self):
        orbit = two_shift_example().evaluate_one_sided(1, "left", 0)
        assert orbit.points == (pt("1/2"),)
        assert orbit.visit_counts == (0, 0)
        assert orbit.winding == 0

    def test_half_collapse_right_collision(self):
        orbit = half_collapse().evaluate_one_sided(1, Side.RIGHT, 1)
        assert orbit.points[-1] == pt(0)
        assert orbit.itinerary == (1,)
        assert orbit.winding == 1

    def test_left_limit_at_base(self):
        # the left limit at 1/2 moves with the piece ending there
        orbit = half_collapse().evaluate_one_sided(1, Side.LEFT, 1)
        assert orbit.itinerary == (0,)
        assert orbit.points[-1] == pt("1/2")

    def test_left_limit_propagates(self):
        s = itm(["0", "1/2"], ["1/2", "0"])
        left = s.evaluate_one_sided(0, Side.LEFT, 2)
        right = s.evaluate_one_sided(0, Side.RIGHT, 2)
        assert left.itinerary == (1, 1)
        assert left.points == (pt(0), pt(0), pt(0))
        assert right.itinerary == (0, 1)
        assert right.points == (pt(0), pt("1/2"), pt("1/2"))

    @given(itms(), st.integers(0, 20))
    def test_winding_identity(self, s, r):
        for j in range(s.n):
            for side in (Side.LEFT, Side.RIGHT):
                o = s.evaluate_one_sided(j, side, r)
                total = sum(
                    (F(o.visit_counts[k]) * s.shifts[k] for k in range(s.n)),
                    F(0),
                )
                assert total - o.winding == o.points[-1].value - o.points[0].value


class TestImage:
    def test_two_shift_full_circle(self):
        img = two_shift_example().image(ArcSet.full())
        assert img == arcset((0, "1/4"), ("1/3", "2/3"))
        assert img.total_length == F(11, 12)

    def test_half_collapse_full_circle(self):
        assert half_collapse().image(ArcSet.full()) == arcset((0, "1/2"))

    @given(small_arcsets())
    def test_rotation_image_is_translation(self, a):
        assert rotation("2/7").image(a) == a.translate(F(2, 7))

    @given(itms(), small_arcsets())
    def test_length_never_grows(self, s, a):
        assert s.image(a).total_length <= a.total_length

    @given(itms(), small_arcsets(), rationals(min_value=0, max_value=1, max_denominator=64))
    def test_pointwise_consistency(self, s, a, x):
        p = CirclePoint(x)
        if a.contains(p):
            assert s.image(a).contains(s.evaluate(p))


class TestPreimage:
    def test_two_shift_example(self):
        s = two_shift_example()
        assert s.preimage(arcset(("1/3", "1/6"))) == arcset((0, "1/6"))

    @given(small_arcsets())
    def test_rotation_preimage_is_back_translation(self, a):
        assert rotation("2/7").preimage(a) == a.translate(-F(2, 7))

    def test_empty(self):
        assert two_shift_example().preimage(ArcSet.empty()) == ArcSet.empty()

    @given(itms(), small_arcsets(), rationals(min_value=0, max_value=1, max_denominator=64))
    def test_exactness(self, s, a, x):
        p = CirclePoint(x)
        assert s.preimage(a).contains(p) == a.contains(s.evaluate(p))

    @given(itms(), small_arcsets())
    def test_adjunction(self, s, a):
        assert s.image(s.preimage(a)).is_subset_of(a)
        assert a.is_subset_of(s.preimage(s.image(a)))


class TestAttractor:
    def test_rotation_stabilizes_immediately(self):
        res = rotation("1/3").attractor()
        assert res.finite_type is FiniteType.YES
        assert res.stabilized_at == 0
        assert res.attractor == ArcSet.full()

    def test_half_collapse(self):
        res = half_collapse().attractor()
        assert res.stabilized_at == 1
        assert res.attractor == arcset((0, "1/2"))
        assert res.iterates == (ArcSet.full(), arcset((0, "1/2")))

    def test_budget_max_iter(self):
        res = half_collapse().attractor(max_iter=1)
        assert res.finite_type is FiniteType.NO_WITHIN_BUDGET
        assert res.stabilized_at is None

    def test_budget_max_arcs(self):
        with pytest.raises(BudgetExceeded) as e:
            two_shift_example().attractor(max_arcs=1)
        assert e.value.budget == "max_arcs"

    def test_random_rational_maps_stabilize_within_denominator(self):
        # scaled-down version of the acceptance sweep
        rng = random.Random(7)
        for _ in range(20):
            q = rng.randint(8, 512)
            s = random_itm(rng, rng.randint(2, 5), q)
            res = s.attractor()
            assert res.finite_type is FiniteType.YES
            assert res.stabilized_at <= q
            for a, b in zip(res.iterates, res.iterates[1:]):
                assert b.is_subset_of(a)

    @given(itms(max_denominator=16))
    @settings(max_examples=25, deadline=None)
    def test_attractor_invariant_under_map(self, s):
        res = s.attractor()
        assert s.image(res.attractor) == res.attractor


def random_arcset(rng: random.Random, q: int) -> ArcSet:
    """Up to four arcs with ends on the grid of multiples of 1/q."""
    return ArcSet(
        [
            Arc(CirclePoint(F(rng.randrange(q), q)), F(rng.randint(1, q), q))
            for _ in range(rng.randint(0, 4))
        ]
    )


class TestImageAgainstReference:
    """image and preimage walk the map's charts; the oracle cuts per piece."""

    def test_acceptance_sweep(self, acceptance_sweep_maps):
        for s in acceptance_sweep_maps:
            res = s.attractor()
            for a in res.iterates[:3] + (res.attractor, res.attractor.complement()):
                assert_moves_match(s, a)

    def test_random_maps(self):
        rng = random.Random(14)
        for _ in range(300):
            n = rng.randint(1, 5)
            s = random_itm(rng, n, rng.randint(n, 96))
            # arcs on the map's grid, or on one unrelated to it
            q = rng.choice([s.common_denominator(), rng.randint(2, 97)])
            assert_moves_match(s, random_arcset(rng, q))

    @given(itms(), small_arcsets())
    def test_hypothesis_maps(self, s, a):
        assert_moves_match(s, a)

    @settings(max_examples=200)
    @given(data=st.data())
    def test_sets_on_other_grids(self, grid_pair_arcs, data):
        # a map on the grid of 1/q moves a set on that of 1/q2
        q, q2, _, arcs = data.draw(grid_pair_arcs)
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        s = random_itm(rng, rng.randint(1, min(q, 5)), q)
        assert_moves_match(s, ArcSet(arcs))


# rational maps whose attractors stabilize after 466, 457, 814 and 2609
# steps, with 17 to 25 arcs at the end and up to 47 on the way
DEEP_MAPS = [
    itm(["190/541", "1354/1623", "1025/1082"], ["2821/3246", "718/1623", "901/1082"]),
    itm(
        ["380/1359", "1013/2718", "371/906", "1477/2718"],
        ["241/302", "2377/2718", "443/453", "298/1359"],
    ),
    itm(["17/577", "98/1731", "200/1731"], ["85/577", "349/1731", "1171/1731"]),
    itm(["377/862", "2841/3448"], ["367/3448", "55/431"]),
]


def attractor_outcome(s: Itm, max_iter: int = DEFAULT_MAX_ITER, max_arcs: int = DEFAULT_MAX_ARCS):
    """The library's attractor run in the oracle's terms: ("ok", (iterates as
    segments, stabilized_at)), or the message and budget of its BudgetExceeded."""
    res = outcome(s.attractor, max_iter, max_arcs)
    if res[0] != "ok":
        return res
    res = res[1]
    assert res.attractor == res.iterates[-1]
    assert (res.finite_type is FiniteType.YES) == (res.stabilized_at is not None)
    return "ok", ([a.segments() for a in res.iterates], res.stabilized_at)


def oracle_outcome(s: Itm, max_iter: int = DEFAULT_MAX_ITER, max_arcs: int = DEFAULT_MAX_ARCS):
    """oracle.attractor in the terms of attractor_outcome."""
    return oracle_terms(oracle.attractor(s, max_iter, max_arcs), max_arcs)


def oracle_terms(run: tuple, max_arcs: int = DEFAULT_MAX_ARCS):
    iterates, stabilized_at, too_many = run
    if too_many is not None:
        k, arcs = too_many
        message = f"iterate {k} needs {arcs} arcs (max_arcs={max_arcs})"
        return "budget", message, "max_arcs", max_arcs
    return "ok", (iterates, stabilized_at)


def fraction_views(res: AttractorResult) -> list[ArcSet]:
    """The iterates that have built their Fraction view (segments or arcs)."""
    return [
        a for a in res.iterates + (res.attractor,)
        if a._segments is not None or a._arcs is not None
    ]


class TestAttractorAgainstReference:
    """The attractor iterated on the grid gives the iterates, stabilization
    and budget outcome of the oracle's loop over its images."""

    def test_acceptance_sweep(self, acceptance_sweep_maps, oracle_sweep_attractors):
        for s, run in zip(acceptance_sweep_maps, oracle_sweep_attractors):
            # the iteration never leaves the integers
            assert not fraction_views(s.attractor())
            assert attractor_outcome(s) == oracle_terms(run)

    def test_random_maps(self):
        rng = random.Random(11)
        raised = limited = 0
        for _ in range(300):
            n = rng.randint(1, 5)
            s = random_itm(rng, n, rng.randint(n, 96))
            max_iter = rng.choice([1, 2, 5, DEFAULT_MAX_ITER])
            max_arcs = rng.choice([0, 1, 2, 4, DEFAULT_MAX_ARCS])
            res = attractor_outcome(s, max_iter, max_arcs)
            assert res == oracle_outcome(s, max_iter, max_arcs)
            raised += res[0] == "budget"
            limited += res[0] == "ok" and res[1][1] is None
        assert raised > 20 and limited > 20

    def test_max_iter_limited(self):
        s = two_shift_example()
        assert s.attractor().stabilized_at > 2
        res = s.attractor(max_iter=2)
        assert res.finite_type is FiniteType.NO_WITHIN_BUDGET
        assert len(res.iterates) == 3
        assert attractor_outcome(s, max_iter=2) == oracle_outcome(s, max_iter=2)

    def test_max_arcs_budget(self):
        s = two_shift_example()
        with pytest.raises(BudgetExceeded) as grid:
            s.attractor(max_arcs=2)
        assert (grid.value.budget, grid.value.value) == ("max_arcs", 2)
        assert attractor_outcome(s, max_arcs=2) == oracle_outcome(s, max_arcs=2)

    def test_integer_map(self):
        s = rotation(0)
        assert s.common_denominator() == 1
        assert attractor_outcome(s) == oracle_outcome(s)

    def test_full_circle_counts_as_one_arc(self):
        s = rotation("1/3")
        with pytest.raises(BudgetExceeded, match="iterate 1 needs 1 arcs"):
            s.attractor(max_arcs=0)
        assert attractor_outcome(s, max_arcs=1) == oracle_outcome(s, max_arcs=1)

    def test_approximant_levels(self, approximant_level_maps):
        # level maps of irrational targets have denominators of tens of bits,
        # and these budgets end some of their runs, on either budget
        counts = {"yes": 0, "no-within-budget": 0, "raised": 0}
        for s in approximant_level_maps:
            res = attractor_outcome(s, 48, 24)
            assert res == oracle_outcome(s, 48, 24)
            if res[0] == "budget":
                kind = "raised"
            else:
                kind = "yes" if res[1][1] is not None else "no-within-budget"
            counts[kind] += 1
        assert all(counts.values()), counts

    @pytest.mark.parametrize("s", DEEP_MAPS, ids=lambda s: f"q{s.common_denominator()}")
    def test_deep_maps(self, s):
        # each step opens a hole of a few runs in an iterate of up to 47
        # arcs, through 466 to 2609 steps
        res = attractor_outcome(s)
        assert res[0] == "ok" and res[1][1] >= 400
        assert res == oracle_outcome(s)

    def test_deep_maps_cut_short(self):
        for s in DEEP_MAPS:
            assert attractor_outcome(s, max_iter=300) == oracle_outcome(s, max_iter=300)

    def test_a_map_that_outgrows_max_arcs_late(self):
        # its iterates first need 125 arcs at step 176 of 193
        s = itm(["454/639", "1121/1278", "397/426"], ["493/1278", "2329/2556", "575/2556"])
        assert s.attractor().stabilized_at == 193
        with pytest.raises(BudgetExceeded, match=r"^iterate 176 needs 125 arcs \(max_arcs=124\)$"):
            s.attractor(max_arcs=124)
        assert attractor_outcome(s, max_arcs=124) == oracle_outcome(s, max_arcs=124)


class TestAttractorMovesHoles:
    """A step moves the hole it opens, not the iterate, and the result keeps
    the holes and the attractor: the iterates are built from them on read."""

    def test_a_deep_map_looks_up_far_fewer_cells_than_its_iterates_hold(self, piece_lookups):
        s = Itm(DEEP_MAPS[-1].breakpoints, DEEP_MAPS[-1].shifts)  # a fresh map, with no table yet
        res = s.attractor()
        lookups = len(piece_lookups)
        held = sum(len(_runs_of(a)[1]) for a in res.iterates)
        # 2609 steps over iterates of up to 47 arcs: a step that moved every
        # run would look one up per run
        assert res.stabilized_at == 2609 and held > 100000
        assert lookups < held / 10

    def test_a_deep_result_holds_its_holes_not_its_iterates(self):
        # the last map stabilizes after 2609 steps: its holes and attractor
        # hold about one run per step, its iterates 47 times as many
        for s in DEEP_MAPS:
            res = s.attractor()
            assert "iterates" not in vars(res)
            kept = sum(len(hole) for hole in res._holes) + len(_runs_of(res.attractor)[1])
            assert kept <= 2 * (res.stabilized_at + len(res.attractor))
            listed = sum(len(_runs_of(a)[1]) for a in res.iterates)
            assert listed > 10 * kept

    def test_each_hole_is_what_its_step_cuts(self, acceptance_sweep_maps):
        # D_k = A_k \ A_{k+1}, on the grid of the map's chart table
        for s in [*acceptance_sweep_maps[:40], *DEEP_MAPS]:
            res = s.attractor()
            assert len(res.iterates) == len(res._holes) + 1
            assert res.iterates[-1] == res.attractor
            for k, hole in enumerate(res._holes):
                assert hole and ArcSet._from_runs(res._hole_grid, list(hole)) == (
                    res.iterates[k] - res.iterates[k + 1]
                )

    def test_the_chart_of_a_deep_map_stays_bounded(self):
        # attractor.svg draws the first 63 iterates and the attractor, and a
        # line naming the rows left out, so its size stops growing with the
        # depth; charts of up to 64 iterates draw every row.  A run cut short
        # after depth - 1 steps has depth iterates.
        s = DEEP_MAPS[-1]
        res = s.attractor()
        arcs = max(len(a) for a in res.iterates)
        sizes = {}
        for depth in (32, 64, 65, 256, 1024, len(res.iterates)):
            run = s.attractor(max_iter=depth - 1) if depth < len(res.iterates) else s.attractor()
            svg = attractor_svg(run)
            # the chart builds only the rows it draws
            assert "iterates" not in vars(run)
            labels = re.findall(r">A_(\d+)<", svg)
            shown = min(depth, 64)
            assert labels == [*map(str, range(shown - 1)), str(depth - 1)]
            assert ("rows left out" in svg) == (depth > 64)
            sizes[depth] = len(svg)
        assert sizes[32] < sizes[64]
        # past 64 iterates only the last row and the note change
        assert max(sizes.values()) - sizes[64] < 100 * (arcs + 2)

    def test_the_chart_draws_the_rows_the_iterates_hold(self):
        # the rows built from the holes are the iterates'
        for s in (half_collapse(), rotation("1/3"), *DEEP_MAPS):
            res = s.attractor()
            count = min(len(res.iterates), 64)
            assert res._iterates(count - 1) == list(res.iterates[: count - 1])

    def test_the_nesting_check_still_raises(self, monkeypatch):
        # a hole that does not lie within the iterate fails the cut
        s = two_shift_example()
        monkeypatch.setattr(Itm, "_moved_hole", lambda self, hole, runs: [(0, 1 + runs[-1][1])])
        with pytest.raises(AssertionError, match="forward images failed to nest"):
            s.attractor()


class TestAttractorTakesNoWalk:
    """The attractor steps its run lists through the tiling chart table
    itself; the walk that images take is never reached."""

    def test_with_the_walk_patched_to_raise(
        self, acceptance_sweep_maps, oracle_sweep_attractors, approximant_level_maps, monkeypatch
    ):
        cases = [(s, DEFAULT_MAX_ITER, DEFAULT_MAX_ARCS) for s in acceptance_sweep_maps[:40]]
        expected = [oracle_terms(run) for run in oracle_sweep_attractors[:40]]
        cases += [(s, 48, 24) for s in approximant_level_maps]
        cases += [(s, DEFAULT_MAX_ITER, DEFAULT_MAX_ARCS) for s in (rotation(0), half_collapse())]
        expected += [oracle_outcome(s, i, a) for s, i, a in cases[40:]]

        def refuse(*_):
            raise AssertionError("the attractor walked circle._walk")

        for name, module in list(sys.modules.items()):
            if name.startswith("itmlib") and hasattr(module, "_walk"):
                monkeypatch.setattr(module, "_walk", refuse)
        for (s, max_iter, max_arcs), ref in zip(cases, expected):
            s = Itm(s.breakpoints, s.shifts)  # a fresh map, with no table yet
            assert attractor_outcome(s, max_iter, max_arcs) == ref


class TestAttractorMetamorphic:
    def test_grid_rotation_rotates_the_attractor(self, acceptance_sweep_maps):
        rng = random.Random(12)
        for s in acceptance_sweep_maps[:40]:
            q = s.common_denominator()
            r = F(rng.randrange(1, q), q)
            res, moved = s.attractor(), oracle.rotated(s, r).attractor()
            assert moved.iterates == tuple(a.translate(r) for a in res.iterates)
            assert moved.attractor == res.attractor.translate(r)
            assert moved.stabilized_at == res.stabilized_at
            assert moved.finite_type is res.finite_type

    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_refining_the_grid_changes_nothing(self, acceptance_sweep_maps, k):
        for s in acceptance_sweep_maps[:40]:
            q = s.common_denominator()
            refined = s.with_breakpoint(F(1, k * q))
            assert refined.common_denominator() == k * q
            assert refined.attractor() == s.attractor()

    def test_refining_the_grid_leaves_every_result_equal(self, approximant_level_maps):
        # results cut short by either budget, and raised ones, on grids of
        # tens of bits and on the deep maps cut short
        cases = [(s, 48, 24) for s in approximant_level_maps]
        cases += [(s, max_iter, DEFAULT_MAX_ARCS) for s in DEEP_MAPS for max_iter in (1, 300)]
        for s, max_iter, max_arcs in cases:
            q = s.common_denominator()
            refined = s.with_breakpoint(F(1, 3 * q))
            assert refined.common_denominator() == 3 * q
            fine = outcome(refined.attractor, max_iter, max_arcs)
            assert fine == outcome(s.attractor, max_iter, max_arcs)
            if fine[0] == "ok":
                assert fine[1].iterates == s.attractor(max_iter, max_arcs).iterates

    def test_rotating_by_grid_steps_rotates_the_holes(self, acceptance_sweep_maps):
        rng = random.Random(19)
        for s in [*acceptance_sweep_maps[:40], *DEEP_MAPS]:
            q = s.common_denominator()
            r = F(rng.choice([1, rng.randrange(1, q)]), q)
            res, moved = s.attractor(), oracle.rotated(s, r).attractor()
            assert len(moved._holes) == len(res._holes)
            for hole, image in zip(res._holes, moved._holes):
                # the holes of the rotated map are the holes rotated
                assert ArcSet._from_runs(moved._hole_grid, list(image)) == (
                    ArcSet._from_runs(res._hole_grid, list(hole)).translate(r)
                )

    def test_equal_results_need_equal_holes(self):
        res = DEEP_MAPS[0].attractor()
        q, holes = res._hole_grid, res._holes

        def forged(grid, kept):
            return AttractorResult(res.stabilized_at, res.attractor, res.finite_type, grid, kept)

        # the same holes on a grid three times finer, and one hole moved
        assert forged(3 * q, tuple([(3 * a, 3 * b) for a, b in h] for h in holes)) == res
        (a, b), *rest = holes[5]
        assert forged(q, holes[:5] + ([(a + 1, b + 1), *rest],) + holes[6:]) != res
        assert forged(q, holes[:-1]) != res

    def test_denominator_above_2_16_takes_the_same_kernel(self, acceptance_sweep_maps):
        for s in acceptance_sweep_maps[:20]:
            fine = s.with_breakpoint(F(1, 2**16 + 1))
            assert fine.common_denominator() > 2**16
            res = fine.attractor()
            assert not fraction_views(res)
            assert attractor_outcome(fine) == oracle_outcome(fine)
            assert res == s.attractor()


class TestOmega:
    def test_depth_zero_is_breakpoints(self):
        s = two_shift_example()
        assert s.omega_to_depth(0) == [pt(0), pt("1/2")]

    def test_rotation_third_depth_two(self):
        assert rotation("1/3").omega_to_depth(2) == [pt(0), pt("1/3"), pt("2/3")]

    def test_half_collapse_depth_one(self):
        assert half_collapse().omega_to_depth(1) == [pt(0), pt("1/2")]

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            rotation("1/5").omega_to_depth(4, max_points=3)

    @given(itms(max_denominator=8), st.integers(0, 3))
    def test_omega_grows_with_depth(self, s, k):
        assert set(s.omega_to_depth(k)) <= set(s.omega_to_depth(k + 1))

    @given(itms(max_denominator=8), st.integers(1, 3))
    def test_omega_points_reach_breakpoints(self, s, k):
        # every depth-k point hits a breakpoint within k steps
        bps = set(s.breakpoints)
        for p in s.omega_to_depth(k):
            hits = False
            x = p
            for _ in range(k + 1):
                if x in bps:
                    hits = True
                    break
                x = s.evaluate(x)
            assert hits


class TestHomtervals:
    def test_half_collapse(self):
        report = half_collapse().classify_homtervals(1)
        assert report.omega == (pt(0), pt("1/2"))
        by_start = {h.arc.start.value: h for h in report.homtervals}
        assert by_start[F(0)].preperiod == 0
        assert by_start[F(0)].period == 1
        assert by_start[F(1, 2)].preperiod == 1
        assert by_start[F(1, 2)].period == 1

    def test_half_rotation_period_two(self):
        report = rotation("1/2").classify_homtervals(1)
        assert all(h.period == 2 and h.preperiod == 0 for h in report.homtervals)

    def test_golden_convergent_period_eight(self):
        report = rotation("5/8").classify_homtervals(1)
        assert report.homtervals
        assert all(h.resolved and h.period == 8 for h in report.homtervals)

    def test_unresolved_on_tight_budget(self):
        report = rotation("5/8").classify_homtervals(1, orbit_budget=4)
        assert all(not h.resolved for h in report.homtervals)


class TestGenericity:
    def test_rational_maps_not_generic(self):
        assert half_collapse().classify_homtervals(1).genericity is Genericity.NOT_GENERIC
        assert rotation("1/3").classify_homtervals(2).genericity is Genericity.NOT_GENERIC

    def test_budget_starved_verdict(self):
        verdict = rotation("5/8").classify_homtervals(1, orbit_budget=4).genericity
        assert verdict is Genericity.NO_PERIODIC_DOMAIN_FOUND

    def test_large_denominator_convergent_within_small_budget(self):
        # stand-in for an irrational rotation: period exceeds the budget
        report = rotation(F(377, 610)).classify_homtervals(3, orbit_budget=300)
        assert report.genericity is Genericity.NO_PERIODIC_DOMAIN_FOUND

    def test_report_verdict_matches_the_map_verdict(self):
        # the map's verdict is NOT_GENERIC exactly when a homterval resolved
        for s, depth, budget, verdict in (
            (half_collapse(), 1, 64, Genericity.NOT_GENERIC),
            (rotation("1/3"), 2, 64, Genericity.NOT_GENERIC),
            (rotation("5/8"), 1, 4, Genericity.NO_PERIODIC_DOMAIN_FOUND),
        ):
            report = s.classify_homtervals(depth, orbit_budget=budget)
            assert report.genericity is verdict
            assert bool(report.resolved) == (verdict is Genericity.NOT_GENERIC)


class TestPeriodicBall:
    def test_gap_around_periodic_point_is_periodic(self):
        # once the backward orbit of the breakpoints has stabilized, the gap
        # holding a periodic point off that orbit is itself periodic
        rng = random.Random(11)
        checked = 0
        for _ in range(2000):
            if checked >= 25:
                break
            q = rng.randint(8, 60)
            s = random_itm(rng, rng.randint(2, 3), q)
            omega = s.omega_to_depth(q, max_points=2 * q)
            if s.omega_to_depth(q + 1, max_points=2 * q) != omega:
                continue
            x = CirclePoint(F(rng.randrange(1, 2 * q), 2 * q))
            seen = {}
            for k in range(2 * q + 2):
                if x in seen:
                    break
                seen[x] = k
                x = s.evaluate(x)
            if seen[x] != 0 or x in set(omega):
                continue
            report = s.classify_homtervals(q, orbit_budget=4 * q)
            home = [h for h in report.homtervals if h.arc.contains(x)]
            assert home and all(h.resolved for h in home)
            checked += 1

    def test_stabilized_gaps_all_resolve(self):
        # rational maps: complement of the stabilized backward orbit is a
        # finite union of eventually periodic homtervals
        rng = random.Random(13)
        for _ in range(15):
            q = rng.randint(8, 64)
            s = random_itm(rng, rng.randint(2, 4), q)
            report = s.classify_homtervals(q, orbit_budget=8 * q)
            assert all(h.resolved for h in report.homtervals)


def assert_homtervals_match_oracle(s: Itm, depth: int, budget: int) -> None:
    """omega, its budget verdicts and the homtervals equal the oracle's."""
    omega = [p.value for p in s.omega_to_depth(depth)]
    assert omega == oracle.omega(s, depth)
    for max_points in (len(omega), len(omega) - 1):
        run = outcome(s.omega_to_depth, depth, max_points)
        expected = oracle.omega(s, depth, max_points)
        if expected is None:
            assert run[0] == "budget" and run[2:] == ("max_points", max_points)
        else:
            assert run == ("ok", [CirclePoint(x) for x in expected])
    report = s.classify_homtervals(depth, orbit_budget=budget)
    gaps = [(h.arc.start.value, h.arc.length, h.preperiod, h.period) for h in report.homtervals]
    assert ([p.value for p in report.omega], gaps) == oracle.homtervals(s, depth, budget)


class TestCellWalkAgainstFractionWalk:
    """omega and the homtervals on the chart table give the oracle's answers."""

    def test_acceptance_maps(self, acceptance_sweep_maps):
        outcomes = Counter()
        for i, s in enumerate(acceptance_sweep_maps):
            q = s.common_denominator()
            depth, budget = 1 + i % 3, (q, 2 * q, 8)[i % 3]
            assert_homtervals_match_oracle(s, depth, budget)
            report = s.classify_homtervals(depth, orbit_budget=budget)
            outcomes.update(h.resolved for h in report.homtervals)
        assert outcomes[True] > 100 and outcomes[False] > 100

    @given(itms(), st.integers(1, 4), st.integers(1, 64))
    def test_hypothesis_maps(self, s, depth, budget):
        assert_homtervals_match_oracle(s, depth, budget)

    @pytest.mark.parametrize("shift", ["0", "1/2", "5/8", "3/7", "377/610"])
    @pytest.mark.parametrize("base", ["0", "1/3"])
    def test_one_piece_rotations(self, shift, base):
        # one piece is continuous across its breakpoint: no arc splits
        s = itm([base], [shift])
        for depth, budget in ((1, 4), (1, 1000), (3, 1000)):
            assert_homtervals_match_oracle(s, depth, budget)
        assert all(h.resolved for h in s.classify_homtervals(1, orbit_budget=1000).homtervals)

    def test_levels_above_2_40(self, approximant_level_maps):
        levels = [s for s in approximant_level_maps if s.common_denominator() > 2**40]
        assert len(levels) >= 5
        for s in levels:
            assert_homtervals_match_oracle(s, 2, 50)


class TestHomtervalsOnCells:
    def test_rotating_the_grid_rotates_omega_and_the_homtervals(self, acceptance_sweep_maps):
        rng = random.Random(29)
        for s in acceptance_sweep_maps[:40]:
            q = s.common_denominator()
            r = F(rng.randrange(1, q), q)
            t = oracle.rotated(s, r)
            assert q % t.common_denominator() == 0
            before, after = (m.classify_homtervals(2, orbit_budget=2 * q) for m in (s, t))
            assert sorted(after.omega) == sorted(p + r for p in before.omega)
            assert sorted(h.arc.start for h in after.homtervals) == sorted(
                h.arc.start + r for h in before.homtervals
            )
            kinds = [
                Counter((h.arc.length, h.preperiod, h.period) for h in report.homtervals)
                for report in (before, after)
            ]
            assert kinds[0] == kinds[1]

    def test_a_gap_that_splits_early_walks_no_further(self, piece_lookups):
        # no cycle of cells closes within the default budget of 2^16 steps,
        # and each gap splits across a breakpoint within a few: its walk
        # ends there, not at the budget
        q = 10**6 + 3
        s = itm([0, F(400000, q)], [F(618034, q), F(700001, q)])
        report = s.classify_homtervals(2)
        assert len(report.homtervals) > 4 and not report.resolved
        assert 0 < len(piece_lookups) < 50 * len(report.homtervals)
        assert_homtervals_match_oracle(s, 2, 2**16)

    def test_homtervals_read_no_piece(self, acceptance_sweep_maps, monkeypatch):
        def refuse(*_):
            raise AssertionError("a Fraction piece was read")

        monkeypatch.setattr(Itm, "piece", refuse)
        monkeypatch.setattr(Itm, "piece_index", refuse)
        for s in acceptance_sweep_maps:
            q = s.common_denominator()
            assert s.classify_homtervals(2, orbit_budget=2 * q).homtervals


def naive_cell_orbit(s: Itm, cell: int, budget: int) -> list:
    """The cells f^m(cell) of the oracle's map walked on the points cell/q,
    up to and with the first repeated cell, or the first budget + 1 cells."""
    f, q = oracle.Map(s), oracle.common_denominator(s)
    x, cells, seen = F(cell, q), [cell], set()
    while cells[-1] not in seen and len(cells) <= budget:
        seen.add(cells[-1])
        x = f(x)
        cells.append(int(x * q))
    return cells


def orbit_cells(s: Itm, rng: random.Random) -> list:
    """Every cell of a map with q <= 64, and 24 sampled cells otherwise."""
    q = s.common_denominator()
    return list(range(q)) if q <= 64 else rng.sample(range(q), 24)


class TestCellOrbitAgainstFractionWalk:
    """Itm._cell_orbit, the one walk that closes cycles of cells, walks the
    oracle's Fraction orbit of the cell's left end."""

    def test_tail_and_cycle_are_the_orbit_up_to_its_first_repeat(self, acceptance_sweep_maps):
        rng = random.Random(31)
        for s in acceptance_sweep_maps:
            q = s.common_denominator()
            for cell in orbit_cells(s, rng):
                cells = naive_cell_orbit(s, cell, q)
                tail, cycle, place = s._cell_orbit(cell, q, {})
                # q steps close every orbit: it holds at most q cells
                assert tail + cycle == cells[:-1]
                assert (cycle[place], place) == (cells[-1], 0)
                assert tail == cells[: cells.index(cells[-1])]

    def test_a_shared_record_gives_the_orbit_of_an_empty_one(self, acceptance_sweep_maps):
        rng = random.Random(37)
        shared = 0
        for s in acceptance_sweep_maps:
            q, record = s.common_denominator(), {}
            for cell in orbit_cells(s, rng):
                known = len(record)
                tail, cycle, place = s._cell_orbit(cell, q, record)
                alone = s._cell_orbit(cell, q, {})
                assert (tail, cycle[place:] + cycle[:place]) == alone[:2]
                assert all(record[c][0] is cycle for c in cycle)
                assert [record[c][1] for c in cycle] == list(range(len(cycle)))
                # no cycle closed: the walk stopped at a recorded cell
                shared += len(record) == known
        assert shared > 1000

    def test_rotating_the_grid_shifts_every_cell(self, acceptance_sweep_maps):
        rng = random.Random(41)
        rotated = 0
        for s in acceptance_sweep_maps:
            q = s.common_denominator()
            k = rng.randrange(1, q)
            t = oracle.rotated(s, F(k, q))
            if t.common_denominator() != q:
                continue
            rotated += 1
            for cell in orbit_cells(s, rng):
                tail, cycle, place = s._cell_orbit(cell, q, {})
                moved = t._cell_orbit((cell + k) % q, q, {})
                assert moved == ([(c + k) % q for c in tail], [(c + k) % q for c in cycle], place)
        assert rotated > 90

    def test_a_walk_ends_at_the_first_cell_its_test_passes(self, acceptance_sweep_maps):
        rng = random.Random(47)
        stopped = 0
        for s in acceptance_sweep_maps:
            q = s.common_denominator()
            for cell in orbit_cells(s, rng):
                cells = naive_cell_orbit(s, cell, q)
                marked = set(rng.sample(range(q), max(1, q // 8)))
                record = {}
                walk = s._cell_orbit(cell, q, record, marked.__contains__)
                # the test reads the cells after the first, up to the repeat
                hit = next((m for m in range(1, len(cells) - 1) if cells[m] in marked), None)
                if hit is None:
                    assert walk == s._cell_orbit(cell, q, {})
                else:
                    stopped += 1
                    assert (walk, record) == ((cells[: hit + 1], None, None), {})
        assert stopped > 1000

    def test_a_walk_out_of_budget_returns_budget_plus_one_cells(self, acceptance_sweep_maps):
        rng = random.Random(43)
        for s in acceptance_sweep_maps:
            for cell in orbit_cells(s, rng):
                tail, cycle, _ = s._cell_orbit(cell, s.common_denominator(), {})
                # the orbit repeats first after len(tail) + len(cycle) steps
                budget = rng.randrange(len(tail) + len(cycle))
                walked, none, place = s._cell_orbit(cell, budget, {})
                assert (len(walked), none, place) == (budget + 1, None, None)
                assert walked == naive_cell_orbit(s, cell, budget) == (tail + cycle)[: budget + 1]


class TestMergedAndFriends:
    def test_merged_collapses_equal_shifts(self):
        s = itm(["0", "1/4", "1/2"], ["1/8", "1/8", "3/4"])
        m = s.merged()
        assert m.breakpoints == (pt(0), pt("1/2"))
        assert m.shifts == (F(1, 8), F(3, 4))

    def test_merged_wraps_circularly(self):
        s = itm(["0", "1/4", "1/2"], ["1/8", "3/4", "1/8"])
        m = s.merged()
        assert m.breakpoints == (pt("1/4"), pt("1/2"))

    def test_all_equal_becomes_rotation(self):
        s = itm(["1/4", "1/2"], ["1/3", "1/3"])
        assert s.merged() == rotation("1/3")

    @given(itms(), rationals(min_value=0, max_value=1, max_denominator=64))
    def test_merged_preserves_evaluation(self, s, x):
        p = CirclePoint(x)
        assert s.merged().evaluate(p) == s.evaluate(p)

    def test_with_breakpoint(self):
        s = rotation("1/3").with_breakpoint(pt("1/2"))
        assert s.breakpoints == (pt(0), pt("1/2"))
        assert s.shifts == (F(1, 3), F(1, 3))
        assert s.with_breakpoint(pt("1/2")) is s


def assert_on_grid_matches(q: int, starts: list, shifts: list) -> Itm:
    """Itm._on_grid(q, starts, shifts) is the map Itm(...) builds from the
    Fractions starts/q and shifts/q: fields, ==, hash, repr and both tables."""
    got = Itm._on_grid(q, list(starts), list(shifts))
    want = Itm(tuple(F(s, q) for s in starts), tuple(F(c, q) for c in shifts))
    assert got.breakpoints == want.breakpoints and got.shifts == want.shifts
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    assert got._grid_pieces == want._grid_pieces
    assert got._table == want._table
    return got


class TestOnGrid:
    """The private constructor from integer cells builds the public map."""

    @given(st.data())
    def test_equals_the_public_constructor(self, data):
        q = data.draw(st.integers(1, 10**6))
        n = data.draw(st.integers(1, min(q, 5)))
        starts = sorted(data.draw(st.sets(st.integers(0, q - 1), min_size=n, max_size=n)))
        shifts = data.draw(
            st.lists(st.integers(0, q - 1) | st.just(0), min_size=n, max_size=n)
        )
        # a common factor of q and every numerator is reduced away
        k = data.draw(st.sampled_from([1, 2, 6, 2**40]))
        assert_on_grid_matches(q * k, [s * k for s in starts], [c * k for c in shifts])

    def test_single_pieces_and_zero_shifts(self):
        assert assert_on_grid_matches(1, [0], [0])._grid_pieces == (1, [0], [0])
        assert assert_on_grid_matches(12, [4], [0])._grid_pieces == (3, [1], [0])
        assert assert_on_grid_matches(30, [0, 6, 20], [0, 0, 0]) == itm(
            ["0", "1/5", "2/3"], ["0", "0", "0"]
        )
        assert assert_on_grid_matches(2**64, [2**63], [2**62])._grid_pieces == (4, [2], [1])

    def test_approximant_levels_and_induced_exchanges(self, approx_targets):
        # both callers build on their own grids; a rebuilt map has every table
        checked = 0
        for target in approx_targets:
            try:
                levels = generate_approximants(target, denominators=(21, 55, 144, 377)).levels
            except OrderViolation:
                continue
            for level in levels:
                maps = [level.map]
                try:
                    mu = attractor_measure(level.map, level.map.attractor(48, 24))
                    maps.append(induce_iem(level.map, mu).induced)
                except (NotFiniteType, BudgetExceeded):
                    pass
                for s in maps:
                    fresh = Itm(s.breakpoints, s.shifts)
                    assert s == fresh and s._grid_pieces == fresh._grid_pieces
                    assert s._table == fresh._table
                    checked += 1
        assert checked > 40
