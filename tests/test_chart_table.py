"""Each map's integer chart table against the Fraction charts it replaced."""

import bisect
import random
import sys
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itmlib.catalog import rotation
from itmlib.circle import (
    Arc,
    ArcSet,
    CirclePoint,
    _affine_charts,
    _chart_table,
    _charts_on,
    _walk,
    merge_segments,
)
from itmlib.conjugacy import induce_iem
from itmlib.itm import Itm
from itmlib.measure import Cdf, attractor_measure, find_recurrent_points, pushforward
from itmlib.piecewise import from_itm

F = Fraction


def reference_charts(s: Itm) -> list:
    """The Fraction charts of an Itm as the library built them before its
    integer table: each piece cut at 0, then at the integers its image crosses."""
    return _affine_charts(
        (lo, hi, 1, c) for j, c in enumerate(s.shifts) for lo, hi in s.piece(j).segments()
    )


def reference_inverse(s: Itm) -> list:
    return sorted((lo + b, hi + b, 1, -b) for lo, hi, _, b in reference_charts(s))


def run_major_walk(q: int, runs, table: tuple) -> tuple:
    """The walk as it went run by run, each run cut by every chart it meets,
    before circle._walk went chart by chart; kept as the reference."""
    grid, r = table[:2]
    grid = grid if q == grid else lcm(q, grid)
    charts = _charts_on(table, grid)
    k = grid // q
    if k != 1 or r != 1:
        runs = [(lo * k, hi * k, *(w * r for w in weight)) for lo, hi, *weight in runs]
    out = []
    j = 0
    for lo, hi, *weight in runs:
        while j < len(charts) and charts[j][1] <= lo:
            j += 1
        i = j
        while i < len(charts) and charts[i][0] < hi:
            c_lo, c_hi, a, b = charts[i]
            left, right = max(lo, c_lo), min(hi, c_hi)
            i += 1
            if left >= right:
                continue
            if a == 1:
                out.append((left + b, right + b, *weight))
            elif a > 0:
                out.append((a * left + b, a * right + b, *(w / a for w in weight)))
            elif a < 0:
                out.append((a * right + b, a * left + b, *(w / -a for w in weight)))
            else:
                out.append((b, b, *(w * (right - left) for w in weight)))
    return grid * r, out


def assert_walks_agree(q: int, runs: list, table: tuple) -> None:
    """The chart-major walk moves the same runs as the run-major one, in
    chart order rather than run order."""
    grid, moved = _walk(q, runs, table)
    ref_grid, ref = run_major_walk(q, runs, table)
    assert grid == ref_grid
    assert sorted(moved) == sorted(ref)


def reference_moved(a: ArcSet, table: tuple) -> ArcSet:
    """A set moved through a table by the run-major walk."""
    q, moved = run_major_walk(a._q, a._runs, table)
    return ArcSet._from_runs(q, merge_segments(moved))


def cell_image(table: tuple, q: int, n: int) -> int:
    """The cell of 1/q that a slope-1 table sends cell n of 1/q to."""
    charts = _charts_on(table, q)
    lo, hi, _, b = charts[bisect.bisect_right([c[0] for c in charts], n) - 1]
    assert lo <= n < hi
    return n + b


def rotated(s: Itm, r: Fraction) -> Itm:
    """The conjugate x -> S(x - r) + r: breakpoints move by r, shifts stay."""
    moved = sorted(((p.value + r) % 1, c) for p, c in zip(s.breakpoints, s.shifts))
    return Itm(tuple(p for p, _ in moved), tuple(c for _, c in moved))


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


@st.composite
def raw_maps(draw, max_pieces=5, max_q=64):
    """Maps drawn as raw integers on a grid, so breakpoints at 0, shifts of
    0, one-piece maps and images ending exactly at 1 all come up."""
    q = draw(st.integers(1, max_q))
    starts = sorted(draw(st.sets(st.integers(0, q - 1), min_size=1, max_size=max_pieces)))
    shifts = [draw(st.integers(0, q - 1)) for _ in starts]
    return Itm(tuple(F(b, q) for b in starts), tuple(F(c, q) for c in shifts))


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
    charts = reference_charts(s)
    q, r, table = s._table
    assert (q, r) == (s.common_denominator(), 1)
    assert s.affine_segments() == charts
    assert (q, r, list(table)) == _chart_table(charts)
    inverse = s._inverse_table
    assert (inverse[0], inverse[1], list(inverse[2])) == _chart_table(reference_inverse(s))


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
    what the walk gave through the Fraction charts."""

    def reference_attractor_sets(self, s: Itm) -> list:
        table = _chart_table(reference_charts(s))
        current = ArcSet.full()
        sets = [current]
        while True:
            nxt = reference_moved(current, table)
            if nxt == current:
                return sets
            sets.append(nxt)
            current = nxt

    def test_acceptance_sweep(self, acceptance_sweep_maps):
        for s in acceptance_sweep_maps:
            res = s.attractor()
            assert list(res.iterates) == self.reference_attractor_sets(s)
            a = res.attractor
            assert s.image(a.complement()) == reference_moved(
                a.complement(), _chart_table(reference_charts(s))
            )
            assert s.preimage(a) == reference_moved(a, _chart_table(reference_inverse(s)))
            mu = attractor_measure(s, res)
            assert pushforward(s, mu) == pushforward(from_itm(s), mu) == mu

    @settings(max_examples=200)
    @given(raw_maps(), grid_sets())
    def test_hypothesis_maps_on_any_grid(self, s, a):
        assert s.image(a) == reference_moved(a, _chart_table(reference_charts(s)))
        assert s.preimage(a) == reference_moved(a, _chart_table(reference_inverse(s)))
        assert_walks_agree(a._q, a._runs, s._table)

    def test_levels_above_2_40(self, approximant_level_maps):
        for s in [s for s in approximant_level_maps if s.common_denominator() > 2**40]:
            a = s.attractor(8, 64).iterates[-1]
            assert s.image(a) == reference_moved(a, _chart_table(reference_charts(s)))
            assert s.preimage(a) == reference_moved(a, _chart_table(reference_inverse(s)))

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
            moved = rotated(s, F(shift, q))
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
