"""Arc algebra on the circle: canonical forms, set operations, translation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import rationals
from itmlib.circle import Arc, ArcSet, CirclePoint, _chart_table, arc, arcset, frac, mod1

F = Fraction


def rational(max_denominator=2**20):
    return rationals(
        min_value=0, max_value=1, max_denominator=max_denominator
    ).filter(lambda q: q < 1)


def arc_strategy():
    length = rationals(min_value=0, max_value=1, max_denominator=256).filter(
        lambda q: q > 0
    )
    return st.builds(lambda s, l: Arc(CirclePoint(s), l), rational(256), length)


arcsets = st.builds(ArcSet, st.lists(arc_strategy(), max_size=8))

# arc sets with an arc through 0 (unless it merges into the full circle),
# the empty set and the full circle, besides arbitrary ones
stored_sets = st.one_of(
    st.just(ArcSet.empty()),
    st.just(ArcSet.full()),
    st.builds(lambda a: ArcSet([a, arc("7/8", "1/4")]), arc_strategy()),
    arcsets,
)


class TestCirclePoint:
    def test_reduces_mod_one(self):
        assert CirclePoint(F(5, 4)) == CirclePoint(F(1, 4))
        assert CirclePoint(F(-1, 4)).value == F(3, 4)
        assert CirclePoint(F(1)).value == 0

    @given(rationals(min_value=-5, max_value=5, max_denominator=2**20))
    def test_reduces_as_fraction_mod_one(self, x):
        # negative values and values >= 1 reduce; values in [0, 1) are kept
        assert CirclePoint(x).value == mod1(x) == x % 1
        if 0 <= x < 1:
            assert mod1(x) is x

    @pytest.mark.parametrize(
        "x", [F(-1), F(-7, 4), F(1), F(9, 4), F(-1, 2**70), F(2**70 + 1, 2**70)]
    )
    def test_boundary_values_reduce(self, x):
        assert CirclePoint(x).value == x % 1
        assert 0 <= CirclePoint(x).value < 1

    def test_shift_arithmetic(self):
        p = CirclePoint(F(3, 4))
        assert (p + F(1, 2)).value == F(1, 4)
        assert (p - F(3, 4)).value == 0

    def test_gap_and_distance(self):
        a, b = CirclePoint(F(7, 8)), CirclePoint(F(1, 8))
        assert a.gap_to(b) == F(1, 4)
        assert b.gap_to(a) == F(3, 4)
        assert a.distance_to(b) == F(1, 4)

    @given(rational(), rational())
    def test_equality_is_exact(self, x, y):
        assert (CirclePoint(x) == CirclePoint(y)) == (x == y)


class TestNormalize:
    def test_adjacent_merge(self):
        s = arcset((0, "1/2"), ("1/2", "1/4"))
        assert s.arcs == (arc(0, "3/4"),)

    def test_wrapping_containment(self):
        s = ArcSet([arc("3/4", "1/2"), arc(0, "1/8")])
        assert s.arcs == (arc("3/4", "1/2"),)
        assert s.total_length == F(1, 2)

    def test_empty(self):
        s = ArcSet([])
        assert s.arcs == ()
        assert s.total_length == 0

    def test_full_circle_canonical(self):
        s = ArcSet([arc(0, "1/2"), arc("1/2", "1/2")])
        assert s == ArcSet.full()
        assert s.arcs == (arc(0, 1),)

    def test_wrap_merge_at_zero(self):
        # halves meeting at 0 from both sides fuse into one wrapping arc
        s = arcset(("7/8", "1/8"), (0, "1/8"))
        assert s.arcs == (arc("7/8", "1/4"),)

    def test_overlap_collapses(self):
        s = arcset((0, "1/2"), ("1/4", "1/2"))
        assert s.arcs == (arc(0, "3/4"),)

    @given(arcsets)
    def test_idempotent(self, s):
        assert ArcSet(s.arcs) == s

    @given(arcsets)
    def test_at_most_one_wrapping_arc_stored_last(self, s):
        wrapping = [a for a in s.arcs if a.wraps]
        assert len(wrapping) <= 1
        if wrapping:
            assert s.arcs[-1].wraps


class TestStorage:
    """An ArcSet keeps its cut-line segments; the arc view is built from them."""

    @given(stored_sets)
    def test_segments_are_stored_not_rebuilt(self, s):
        assert s.segments() is s.segments()

    @given(stored_sets)
    def test_arc_view_rebuilds_the_set(self, s):
        assert ArcSet(s.arcs) == s
        assert len(s) == len(s.arcs)
        assert s.total_length == sum((a.length for a in s.arcs), F(0))

    @given(stored_sets, stored_sets)
    def test_equality_and_hash_follow_the_arcs(self, a, b):
        assert (a == b) == (a.arcs == b.arcs)
        assert hash(a) == hash(ArcSet(a.arcs))

    @given(stored_sets, rational(512))
    def test_contains_follows_the_arcs(self, s, x):
        ends = [v % 1 for seg in s.segments() for v in seg]
        for v in [x, F(0)] + ends:
            p = CirclePoint(v)
            assert s.contains(p) == any(a.contains(p) for a in s.arcs)

    def test_wrapping_set_is_two_segments_and_one_arc(self):
        s = arcset(("7/8", "1/4"), ("1/4", "1/8"))
        assert s.segments() == ((0, F(1, 8)), (F(1, 4), F(3, 8)), (F(7, 8), 1))
        assert s.arcs == (arc("1/4", "1/8"), arc("7/8", "1/4"))
        assert len(s) == 2


def assert_matches(real: ArcSet, segments: tuple) -> None:
    """A set and its views against the oracle's merged segments."""
    assert real.segments() == segments
    assert [(a.start.value, a.length) for a in real.arcs] == oracle.arcs(segments)
    assert len(real) == len(oracle.arcs(segments))
    assert real.total_length == oracle.length(segments)
    assert hash(real) == hash(segments)
    assert bool(real) == bool(segments)


def oracle_set(arcs) -> tuple:
    return oracle.merge(seg for a in arcs for seg in a.segments())


class TestGridsAgainstReference:
    """Sets on different grids give the oracle's segment algebra's answers."""

    @settings(max_examples=300)
    @given(data=st.data())
    def test_set_algebra(self, grid_pair_arcs, data):
        q, q2, arcs_a, arcs_b = data.draw(grid_pair_arcs)
        a, b = ArcSet(arcs_a), ArcSet.from_segments(s for x in arcs_b for s in x.segments())
        ra, rb = oracle_set(arcs_a), oracle_set(arcs_b)
        assert_matches(a, ra)
        assert_matches(b, rb)
        assert_matches(a.intersect(b), oracle.intersect(ra, rb))
        assert_matches(a.union(b), oracle.union(ra, rb))
        assert_matches(a.complement(), oracle.complement(ra))
        assert_matches(a.difference(b), oracle.difference(ra, rb))
        assert_matches(b.difference(a), oracle.difference(rb, ra))
        assert a.is_subset_of(b) == oracle.is_subset(ra, rb)
        assert b.is_subset_of(a) == oracle.is_subset(rb, ra)
        assert (a == b) == (ra == rb)
        c = F(data.draw(st.integers(-q2, q2)), q2)
        assert_matches(a.translate(c), oracle.translate(ra, c))
        xs = [v % 1 for seg in ra + rb for v in seg]
        xs += [F(data.draw(st.integers(0, q * q2 - 1)), q * q2), F(1, 2 * q)]
        for x in xs:
            assert a.contains(CirclePoint(x)) == oracle.contains(ra, x)

    @settings(max_examples=200)
    @given(data=st.data())
    def test_equal_sets_on_different_grids(self, grid_pair_arcs, data):
        q, q2, arcs_a, _ = data.draw(grid_pair_arcs)
        a = ArcSet(arcs_a)
        c = F(data.draw(st.integers(1, q2)), q2)
        # a round trip moves the set onto the grid lcm(q, q2) and back in place
        moved = a.translate(c).translate(-c)
        refined = a.intersect(ArcSet.full().translate(c))
        for b in (moved, refined, a.union(ArcSet.empty()), ArcSet(a.arcs)):
            assert b == a and a == b
            assert hash(b) == hash(a)
            assert len({a, b}) == 1

    def test_equal_sets_on_two_named_grids(self):
        a = arcset((0, "1/2"), ("3/4", "1/8"))
        b = a.translate(F(1, 3)).translate(-F(1, 3))
        assert (a._q, b._q) == (8, 24)
        assert a == b and hash(a) == hash(b)
        assert a != b.translate(F(1, 24))


class TestIntersect:
    def test_basic_overlap(self):
        assert arcset((0, "1/2")) & arcset(("1/4", "1/2")) == arcset(("1/4", "1/4"))

    def test_full_circle_identity(self):
        s = arcset(("1/8", "1/4"), ("2/3", "1/5"))
        assert s & ArcSet.full() == s

    def test_disjoint(self):
        assert arcset((0, "1/4")) & arcset(("1/2", "1/4")) == ArcSet.empty()

    @given(arcsets, arcsets)
    def test_length_bounded_by_min(self, a, b):
        assert (a & b).total_length <= min(a.total_length, b.total_length)


class TestComplement:
    def test_half(self):
        assert ~arcset((0, "1/2")) == arcset(("1/2", "1/2"))

    def test_full_circle(self):
        assert ~ArcSet.full() == ArcSet.empty()

    def test_two_arcs(self):
        s = arcset(("1/4", "1/4"), ("3/4", "1/4"))
        assert ~s == arcset((0, "1/4"), ("1/2", "1/4"))

    @given(arcsets)
    def test_lengths_sum_to_one(self, s):
        assert s.total_length + (~s).total_length == 1

    @given(arcsets)
    def test_involution(self, s):
        assert ~~s == s


class TestTranslate:
    def test_plain_shift(self):
        assert arcset((0, "1/4")).translate(F(1, 2)) == arcset(("1/2", "1/4"))

    def test_split_and_rewrap(self):
        # [3/4,1)∪[0,1/8) shifted by 1/8 lands as one arc wrapping through 0
        s = ArcSet([arc("3/4", "1/4"), arc(0, "1/8")])
        assert s.translate(F(1, 8)).arcs == (arc("7/8", "3/8"),)

    def test_zero_shift_identity(self):
        s = arcset(("1/3", "1/7"), ("5/6", "1/12"))
        assert s.translate(0) == s

    @given(arcsets, rational(64))
    def test_bijection_preserving_length(self, s, c):
        t = s.translate(c)
        assert t.total_length == s.total_length
        assert t.translate(-c) == s


class TestSetAlgebra:
    @given(arcsets, arcsets)
    def test_inclusion_exclusion(self, a, b):
        assert (a | b).total_length + (a & b).total_length == (
            a.total_length + b.total_length
        )

    @given(arcsets, arcsets)
    def test_difference_partitions(self, a, b):
        assert (a - b) | (a & b) == a

    @given(arcsets, arcsets)
    def test_subset_relation(self, a, b):
        assert (a & b).is_subset_of(a)
        assert a.is_subset_of(a | b)

    def test_subset_negative(self):
        assert not arcset((0, "1/2")).is_subset_of(arcset((0, "1/4")))


class TestMembership:
    def test_wrapping_arc_contains(self):
        a = arc("3/4", "1/2")
        assert a.contains(CirclePoint(F(7, 8)))
        assert a.contains(CirclePoint(F(0)))
        assert a.contains(CirclePoint(F(1, 8)))
        assert not a.contains(CirclePoint(F(1, 4)))
        assert not a.contains(CirclePoint(F(1, 2)))

    def test_half_open_ends(self):
        a = arc("1/4", "1/4")
        assert a.contains(CirclePoint(F(1, 4)))
        assert not a.contains(CirclePoint(F(1, 2)))

    def test_randomized_membership_matches_inputs(self):
        # scaled-down sweep of the raw-arc vs normalized membership oracle
        rng = random.Random(20260824)
        for _ in range(300):
            raw = []
            for _ in range(rng.randint(1, 6)):
                q = rng.randint(2, 2**20)
                start = F(rng.randrange(q), q)
                length = F(rng.randint(1, q), q)
                raw.append(Arc(CirclePoint(start), min(length, F(1))))
            s = ArcSet(raw)
            for _ in range(100):
                q = rng.randint(2, 2**20)
                p = CirclePoint(F(rng.randrange(q), q))
                assert s.contains(p) == any(a.contains(p) for a in raw)

    @given(arcsets, rational(512))
    def test_membership_consistent_with_complement(self, s, x):
        p = CirclePoint(x)
        assert s.contains(p) != (~s).contains(p) or s.total_length in (0, 1)


class TestHelpers:
    def test_frac_coercions(self):
        assert frac("2/6") == F(1, 3)
        assert frac(2) == 2
        assert frac(CirclePoint(F(1, 3))) == F(1, 3)

    def test_mod1(self):
        assert mod1("9/4") == F(1, 4)
        assert mod1(-3) == 0

    def test_arc_rejects_bad_length(self):
        with pytest.raises(ValueError):
            arc(0, 0)
        with pytest.raises(ValueError):
            arc(0, "9/8")

    def test_repr_round_readable(self):
        assert "3/4" in repr(arc(0, "3/4"))


class TestChartsOfAnySlope:
    """The integer walk moves sets through charts of any rational slope."""

    @given(stored_sets, st.integers(0, 2**32))
    def test_against_segment_images(self, s, seed):
        rng = random.Random(seed)
        # charts of slope 2, 1/2, -1, 0 or 1 on a grid of 1/12, values in [0, 1]
        edges = sorted({F(0), F(1)} | {F(rng.randrange(1, 12), 12) for _ in range(3)})
        charts = []
        for lo, hi in zip(edges, edges[1:]):
            a = rng.choice([F(2), F(1, 2), F(-1), F(0), F(1)])
            if abs(a) * (hi - lo) > 1:
                a = F(1, 2)
            low = F(rng.randint(0, 7), 7) * (1 - abs(a) * (hi - lo))
            charts.append((lo, hi, a, low - a * (lo if a >= 0 else hi)))
        images = []
        for lo, hi in s.segments():
            for c_lo, c_hi, a, b in charts:
                left, right = max(lo, c_lo), min(hi, c_hi)
                if left < right:
                    images.append(tuple(sorted((a * left + b, a * right + b))))
        assert s._moved(_chart_table(charts)) == ArcSet.from_segments(images)
