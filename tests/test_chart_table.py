"""Each map's integer chart table against the oracle's Fraction charts."""

import bisect
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import assert_moves_match, raw_maps
from itmlib.catalog import rotation
from itmlib.circle import Arc, ArcSet, CirclePoint, _chart_table, _charts_on, _walk
from itmlib.conjugacy import induce_iem
from itmlib.itm import Itm
from itmlib.measure import Cdf, attractor_measure, find_recurrent_points, pushforward
from itmlib.piecewise import from_itm

F = Fraction


def assert_walks_agree(q: int, runs: list, table: tuple) -> None:
    """The chart-major walk moves the runs as the oracle moves their segments
    through the table's charts read as Fractions: the same parts, in chart
    order rather than run order."""
    grid, scale, moved = _walk(q, runs, table)
    g, r, charts = table
    charts = [(F(lo, g), F(hi, g), F(a, r), F(b, g * r)) for lo, hi, a, b in charts]
    segments = [(F(lo, q), F(hi, q), *weight) for lo, hi, *weight in runs]
    # every moved weight comes times the scale, and a flat chart's empty run
    # carries grid times the mass it gathered
    got = [
        (F(lo, grid), F(hi, grid), *(w / scale if lo < hi else w / (grid * scale) for w in weight))
        for lo, hi, *weight in moved
    ]
    assert sorted(got) == sorted(oracle.walk(segments, charts))


def cell_image(table: tuple, q: int, n: int) -> int:
    """The cell of 1/q that a slope-1 table sends cell n of 1/q to."""
    charts = _charts_on(table, q)
    lo, hi, _, b = charts[bisect.bisect_right([c[0] for c in charts], n) - 1]
    assert lo <= n < hi
    return n + b


@st.composite
def grid_sets(draw, max_q=90):
    """Up to four arcs with ends on the grid of 1/p, for a drawn p."""
    p = draw(st.integers(1, max_q))
    pairs = draw(st.lists(st.tuples(st.integers(0, p - 1), st.integers(1, p)), max_size=4))
    return ArcSet([Arc(CirclePoint(F(a, p)), F(n, p)) for a, n in pairs])


SLOPES = [F(1), F(2), F(1, 2), F(3, 2), F(-1), F(-3), F(-1, 2), F(0)]


@st.composite
def chart_tables(draw, max_p=24):
    """One to five charts of any slope with ends on the grid of 1/p, which may
    overlap or leave gaps, as the integer table _chart_table builds."""
    p = draw(st.integers(1, max_p))
    charts = []
    for _ in range(draw(st.integers(1, 5))):
        lo = draw(st.integers(0, p - 1))
        hi = draw(st.integers(lo + 1, p))
        a = draw(st.sampled_from(SLOPES))
        b = F(draw(st.integers(-2 * p, 2 * p)), draw(st.integers(1, 2 * p)))
        charts.append((F(lo, p), F(hi, p), a, b))
    return _chart_table(sorted(charts))


@st.composite
def sorted_runs(draw, q, weighted):
    """Sorted, disjoint runs of cells on [0, q], some adjacent, each with a
    weight when weighted; often one run over the whole line."""
    if draw(st.booleans()):
        ends = [0, q]
    else:
        ends = sorted(draw(st.sets(st.integers(0, q), max_size=8)))
    runs = [(lo, hi) for lo, hi in zip(ends, ends[1:]) if draw(st.integers(0, 2))]
    if weighted:
        runs = [(lo, hi, F(draw(st.integers(1, 9)), draw(st.integers(1, 6)))) for lo, hi in runs]
    return runs


def special_maps() -> list:
    """One-piece maps, breakpoints at 0, shifts of 0, images ending at 1."""
    return [
        rotation(0),
        rotation("1/3"),
        Itm((F(1, 5),), (F(2, 7),)),
        Itm((F(0), F(1, 2)), (F(1, 2), F(0))),  # [0, 1/2) lands on [1/2, 1)
        Itm((F(1, 4), F(3, 4)), (F(0), F(1, 4))),  # a shift of 0 on a wrapping piece
        Itm((F(1, 3), F(2, 3)), (F(1, 3), F(2, 3))),  # images end exactly at 1 and 0
        Itm((F(0), F(1, 8), F(5, 8)), (F(7, 8), F(0), F(3, 8))),
        Itm((F(9, 10),), (F(1, 10),)),  # the one piece starts where its image ends
    ]


def assert_forward_table_tiles(s: Itm) -> None:
    """The charts of s's table have slope 1, tile [0, q) in order with no gap
    or overlap, and map into [0, q]: the attractor step reads them so."""
    q, r, charts = s._table
    assert r == 1 and charts
    starts = [lo for lo, _, _, _ in charts]
    ends = [hi for _, hi, _, _ in charts]
    assert starts == [0, *ends[:-1]] and ends[-1] == q
    assert all(a == 1 and lo < hi and lo + b >= 0 and hi + b <= q for lo, hi, a, b in charts)


def assert_table_matches(s: Itm) -> None:
    assert_forward_table_tiles(s)
    charts = oracle.Map(s).charts()
    q, r, table = s._table
    assert (q, r) == (s.common_denominator(), 1)
    assert s.affine_segments() == charts
    assert (q, r, list(table)) == _chart_table(charts)


class TestTableAgainstFractionCharts:
    def test_acceptance_sweep(self, acceptance_sweep_maps):
        for s in acceptance_sweep_maps:
            assert_table_matches(s)

    @settings(max_examples=300)
    @given(raw_maps())
    def test_hypothesis_maps(self, s):
        assert_table_matches(s)

    def test_levels_above_2_40(self, approximant_level_maps):
        levels = [s for s in approximant_level_maps if s.common_denominator() > 2**40]
        assert len(levels) >= 5
        for s in levels:
            assert_table_matches(s)

    @pytest.mark.parametrize("s", special_maps(), ids=repr)
    def test_special_maps(self, s):
        assert_table_matches(s)

    def test_a_cast_itm_walks_the_same_table(self, acceptance_sweep_maps):
        for s in acceptance_sweep_maps[:30]:
            q, r, charts = from_itm(s)._table
            assert (q, r, charts) == (s._table[0], 1, list(s._table[2]))


class TestWalkAgainstFractionCharts:
    """image, preimage, attractor and pushforward through the table give
    the oracle's answers through its Fraction pieces and charts."""

    def test_acceptance_sweep(self, acceptance_sweep_maps, oracle_sweep_attractors):
        for s, (iterates, _, _) in zip(acceptance_sweep_maps, oracle_sweep_attractors):
            res = s.attractor()
            assert [a.segments() for a in res.iterates] == iterates
            a = res.attractor
            assert_moves_match(s, a)
            assert_moves_match(s, a.complement())
            mu = attractor_measure(s, res)
            assert pushforward(s, mu) == pushforward(from_itm(s), mu) == mu

    @settings(max_examples=200)
    @given(raw_maps(), grid_sets())
    def test_hypothesis_maps_on_any_grid(self, s, a):
        assert_moves_match(s, a)
        assert_walks_agree(a._q, a._runs, s._table)

    def test_levels_above_2_40(self, approximant_level_maps):
        for s in [s for s in approximant_level_maps if s.common_denominator() > 2**40]:
            assert_moves_match(s, s.attractor(8, 64).iterates[-1])

    @settings(max_examples=400)
    @given(chart_tables(), st.sampled_from([1, 2, 3, 5]), st.booleans(), st.data())
    def test_charts_of_every_slope(self, table, k, weighted, data):
        # weighted runs through charts of negative slope, flat charts that
        # turn mass into atoms, overlapping charts, gaps between charts, runs
        # over several charts, and runs on the grid k times the table's
        runs = data.draw(sorted_runs(k * table[0], weighted))
        assert_walks_agree(k * table[0], runs, table)
        q = data.draw(st.integers(1, 30))
        assert_walks_agree(q, data.draw(sorted_runs(q, weighted)), table)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_named_cases(self, k):
        # [0, 1/2) by slope -1 onto (0, 1/2], [1/4, 3/4) flat at 1/3 over
        # it, a gap on [3/4, 5/6), and [5/6, 1) doubled
        table = _chart_table([
            (F(0), F(1, 2), F(-1), F(1, 2)),
            (F(1, 4), F(3, 4), F(0), F(1, 3)),
            (F(5, 6), F(1), F(2), F(-5, 3)),
        ])
        g = k * table[0]
        for runs in (
            [(0, g)],
            [(0, g, F(3, 2))],
            [(1, g // 3, F(1)), (g // 3, g // 2 + 1, F(2, 7)), (g - 2, g, F(5))],
            [(g // 4, g // 4 + 1), (g // 2, g - 1)],
        ):
            assert_walks_agree(g, runs, table)


class TestTableMetamorphic:
    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_a_set_on_grid_kq_walks_as_on_grid_q(self, acceptance_sweep_maps, k):
        # the walk scales the table to the finer grid, cell for cell
        for s in acceptance_sweep_maps[:40]:
            a = s.attractor().iterates[1]
            q, runs = a._q, a._runs
            fine = ArcSet._from_runs(k * q, [(lo * k, hi * k) for lo, hi in runs])
            assert fine == a
            for move in (s.image, s.preimage):
                moved, moved_fine = move(a), move(fine)
                assert moved_fine == moved
                assert moved_fine._q == k * moved._q
                assert moved_fine._runs == [(lo * k, hi * k) for lo, hi in moved._runs]

    def test_rotating_the_grid_rotates_the_table(self, acceptance_sweep_maps):
        # x -> S(x - r) + r sends cell n + R to f(n) + R, for r = R/q
        rng = random.Random(17)
        for s in acceptance_sweep_maps[:40]:
            q = s.common_denominator()
            shift = rng.randrange(1, q)
            moved = oracle.rotated(s, F(shift, q))
            for n in range(q):
                assert cell_image(moved._table, q, (n + shift) % q) == (
                    cell_image(s._table, q, n) + shift
                ) % q
            res, res_moved = s.attractor(), moved.attractor()
            assert res_moved.attractor == res.attractor.translate(F(shift, q))
            assert res_moved.stabilized_at == res.stabilized_at


class TestNoFractionCharts:
    def test_sweep_item_builds_no_fraction_chart_and_reads_no_cdf_value(
        self, acceptance_sweep_maps, monkeypatch
    ):
        # the attractor, its measure, the induced exchange and its
        # certificate, and the recurrence search all run on integer tables
        def forbidden(*_):
            raise AssertionError("a Fraction chart or Cdf value was built")

        for name, module in list(sys.modules.items()):
            if name.startswith("itmlib") and hasattr(module, "_affine_charts"):
                monkeypatch.setattr(module, "_affine_charts", forbidden)
        monkeypatch.setattr(Cdf, "at", forbidden)
        for s in acceptance_sweep_maps[:40]:
            s = Itm(s.breakpoints, s.shifts)  # a fresh map, with no table yet
            q = s.common_denominator()
            mu = attractor_measure(s, s.attractor())
            data = induce_iem(s, mu, samples=128)
            assert data.report.all_ok and data.clean_samples
            recs = find_recurrent_points(s, mu, F(1, q), q * q, 20, rng=random.Random(q))
            assert all(r.found for r in recs)
