"""Metric conjugacy between a map with an invariant measure and an IEM.

Given an exactly invariant non-atomic probability measure mu for a map S,
the distribution function h(x) = mu([0, x]) transports mu to Lebesgue
measure, and y -> h(S(hbar(y))) with hbar = h.rightmost_preimage the
rightmost inverse of h is an interval exchange on [0, 1).  An interval
exchange is an Itm whose piece images tile the circle, so the induced
map is an Itm and verify_iem checks the tiling.  Everything is exact:
the induced shifts, the verification that the result preserves Lebesgue
measure and is injective up to measure zero, and the certificate that
h(S(x)) = T(h(x)) for mu-almost every x.  T and that certificate read
the pieces of one integer walk, ``measure._rigid_pieces``, which S moves
rigidly, with the slope of h = mu([0, x]) and its value at x and at S(x)
read from mu's integer cumulative table.  The h(x) table on the sample
grid is one walk over the same table (``measure._values_at``), kept by
the ConjugacyData: its CSV, its count of exceptional points and its
``samples`` all read it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Optional

from itmlib.circle import ONE, Rational, _charts_on, _units, frac
from itmlib.itm import Itm
from itmlib.measure import (
    AtomicMeasure,
    Cdf,
    Measure,
    _rigid_pieces,
    _values_at,
    invariance_residual_exact,
)

DEFAULT_SEMICONJUGACY_SAMPLES = 1024


class NotInvariant(ValueError):
    """The measure is not exactly invariant under the map."""


def build_h(mu: Measure) -> Cdf:
    """The transport map h(x) = mu([0, x]) for a non-atomic probability measure."""
    if mu.atoms:
        raise AtomicMeasure("h requires a non-atomic measure")
    if not mu.is_probability:
        raise ValueError("h requires a probability measure")
    return mu.cdf()


@dataclass(frozen=True)
class IemReport:
    """Verification outcome: exact measure and injectivity checks."""

    lebesgue_ok: bool
    injective: bool
    overlap_length: Fraction
    failures: tuple[str, ...]

    @property
    def lengths_ok(self) -> bool:
        """Always true: the pieces of an Itm partition the circle and each
        image is a translate of its piece, so no length can change."""
        return True

    @property
    def all_ok(self) -> bool:
        return self.lengths_ok and self.lebesgue_ok and self.injective


def verify_iem(t: Itm) -> IemReport:
    """Check (a) Lebesgue measure is preserved on the refinement cut by all
    image endpoints, (b) images of distinct pieces overlap only in zero
    length.

    One sweep over the image endpoints (and 0), on T's grid, counts the
    piece images covering each cell of the refinement.  A cell covered C
    times has a preimage of C times its length and adds C(C-1)/2 times its
    length to the pairwise overlap, so (a) fails exactly where C != 1.
    """
    p, starts, shifts = t._grid_pieces
    coverage_change: dict[int, int] = {0: 0}
    for lo, hi, c in zip(starts, [*starts[1:], starts[0] + p], shifts):
        a = (lo + c) % p
        b = a + hi - lo
        for lo, hi in [(a, b)] if b <= p else [(a, p), (0, b - p)]:
            coverage_change[lo] = coverage_change.get(lo, 0) + 1
            coverage_change[hi] = coverage_change.get(hi, 0) - 1
    coverage_change.pop(p, None)
    cuts = sorted(coverage_change)
    overlap = coverage = 0
    mass_changes: list[str] = []
    for lo, hi in zip(cuts, cuts[1:] + [p]):
        coverage += coverage_change[lo]
        overlap += coverage * (coverage - 1) // 2 * (hi - lo)
        if coverage != 1:
            cell = f"[{Fraction(lo, p)},{Fraction(hi, p)})"
            mass_changes.append(f"Lebesgue mass of {cell} changes under preimage")
    overlap = Fraction(overlap, p)
    failures = [f"piece images overlap in total length {overlap}"] if overlap else []
    return IemReport(not mass_changes, overlap == 0, overlap, tuple(failures + mass_changes))


def semiconjugacy_failure(
    s: Itm, h: Cdf, t: Itm
) -> Optional[tuple[Fraction, Fraction]]:
    """The first cell (u, v) on which h(S(x)) = T(h(x)) fails, or None.

    An exact certificate of the semi-conjugacy mu-almost everywhere, read
    from the pieces (u, v, b, w, w', f, f') of ``measure._rigid_pieces``.
    Pieces with w = 0 carry no mass and make up the exceptional set.
    Elsewhere h(x) has slope w and h(x + b) slope w', and each piece is cut
    into cells where h(x) crosses a chart end of T.  On a cell from x0 the
    two sides agree iff w' = w and T shifts h(x0) by h(u + b) - h(u) mod 1.
    The cell ends left unchecked are mu-null.  h and T's table meet on integers.
    """
    return _semiconjugacy_failure(_rigid_pieces(s, h.measure), t)


def _semiconjugacy_failure(walk: tuple, t: Itm) -> Optional[tuple[Fraction, Fraction]]:
    """``semiconjugacy_failure`` on the walk (Q, M, pieces) of ``measure._rigid_pieces``."""
    q, unit, pieces = walk
    g = lcm(unit, t._table[0])
    m = g // unit
    charts = _charts_on(t._table, g)
    starts = [lo for lo, _, _, _ in charts]
    moves = [b % g for _, _, _, b in charts]
    for u, v, b, w, w_image, f, f_image in pieces:
        if w == 0:
            continue
        # h rises by w units of 1/unit on a cell of 1/q, by w * m units of 1/g
        y0, y1 = f * m, (f + w * (v - u)) * m
        move = (f_image - f) * m % g
        for c in range(bisect.bisect_right(starts, y0) - 1, bisect.bisect_left(starts, y1)):
            if w_image != w or moves[c] != move:
                cell = (max(starts[c], y0), min(charts[c][1], y1))
                return tuple(Fraction(u * m * w + y - y0, q * m * w) for y in cell)
    return None


@dataclass(frozen=True)
class SemiConjugacySample:
    """One grid point x of the h(x) table, and whether it is exceptional."""

    x: Fraction
    exceptional: bool


@dataclass(frozen=True)
class ConjugacyData:
    """The full conjugacy package: h, tau, the induced exchange, verification.

    failing_cell is the first cell on which the certificate
    ``semiconjugacy_failure`` found h(S(x)) != T(h(x)), or None.  The
    sample_count grid points x = (2i + 1) / (2 * sample_count) only feed
    the h(x) table and plot.  The table is built on first read, by one
    walk over h's integer rows (``measure._values_at``), and ``samples``
    reads it.
    """

    source_map: Itm
    mu: Measure
    h: Cdf
    tau: tuple[Fraction, ...]
    induced: Itm
    report: IemReport
    failing_cell: Optional[tuple[Fraction, Fraction]]
    sample_count: int

    @property
    def clean_samples(self) -> bool:
        """The certificate found no failing cell: h(S(x)) = T(h(x)) mu-a.e."""
        return self.failing_cell is None

    @cached_property
    def _h_table(self) -> tuple[int, list[tuple[int, bool]]]:
        """One denominator D and, per grid point x, the numerator of h(x)
        over D and whether x is exceptional."""
        n = self.sample_count
        return _values_at(self.h, range(1, 2 * n, 2), 2 * n)

    @cached_property
    def samples(self) -> tuple[SemiConjugacySample, ...]:
        n = self.sample_count
        return tuple(
            SemiConjugacySample(Fraction(2 * i + 1, 2 * n), exceptional)
            for i, (_, exceptional) in enumerate(self._h_table[1])
        )

    def is_exceptional(self, x: Rational) -> bool:
        """Exact membership in the exceptional set: x outside the open
        interior of supp mu, where h is locally constant or kinks.

        Read from h's integer rows: x is exceptional exactly when it is a
        cut of h, or h has slope 0 on the row holding x.
        """
        x = frac(x)
        return _values_at(self.h, (x.numerator,), x.denominator)[1][0][1]


def induce_iem(
    s: Itm,
    mu: Measure,
    samples: int = DEFAULT_SEMICONJUGACY_SAMPLES,
) -> ConjugacyData:
    """Build the interval exchange metrically conjugate to (S, mu) and
    certify it exactly.

    The circle is cut at 0 (adding 0 as an artificial breakpoint if
    needed); pieces of zero mu-mass collapse and vanish.  Each connected
    component of the support within a piece (not each tau interval: h(S(x))
    can jump across a support gap where h(x) stays flat) is a run of pieces
    (u, v, b, w, w', f, f') of ``measure._rigid_pieces`` with w > 0, whose
    first piece gives the exchange piece's start h(u) = f/M and shift
    h(u + b) - h(u) = (f' - f)/M mod 1, so T is built from integers on the
    grid of 1/M (``Itm._on_grid``); tau reads f at the breakpoints.
    Then ``verify_iem`` checks that T preserves Lebesgue measure, and
    ``semiconjugacy_failure`` checks h(S(x)) = T(h(x)) cell by cell.
    ``samples`` sets only the grid of the h(x) table and plot.

    When both checks pass, mu is S-invariant, so no residual is computed.
    h(S(x)) = T(h(x)) holds mu-a.e., T#Leb = Leb and h#mu = Leb, hence
    h#(S#mu) = T#(h#mu) = Leb = h#mu.  As h^{-1}([0, y]) = [0, r] with r
    the rightmost preimage of y, S#mu agrees with mu on every [0, r] with
    r a rightmost level point; and h maps each flat gap of h to a single
    level, which Leb does not charge, so S#mu puts no mass there, nor does
    mu.  The two distribution functions therefore agree everywhere, and
    S#mu = mu.  When a check fails, the exact residual ||S#mu - mu|| tells
    a non-invariant measure (NotInvariant) from a failure of the exchange
    itself, which is returned in ``report`` and ``failing_cell``.
    """
    h = build_h(mu)
    walk = _rigid_pieces(s, mu)
    q, unit, pieces = walk
    breaks = {0, *(_units(p.value, q) for p in s.breakpoints)}
    tau = tuple(Fraction(f, unit) for u, *_, f, _ in pieces if u in breaks) + (ONE,)
    starts: list[int] = []
    shifts: list[int] = []
    previous = 0  # the weight of the piece before, which ends at u
    for u, _, _, w, _, f, f_image in pieces:
        if w and (previous == 0 or u in breaks):
            starts.append(f)
            shifts.append((f_image - f) % unit)
        previous = w

    induced = Itm._on_grid(unit, starts, shifts)
    report = verify_iem(induced)
    failing_cell = _semiconjugacy_failure(walk, induced)
    certified = failing_cell is None and report.all_ok
    if not certified and invariance_residual_exact(s, mu) != 0:
        raise NotInvariant("measure is not exactly invariant under the map")
    return ConjugacyData(
        source_map=s,
        mu=mu,
        h=h,
        tau=tau,
        induced=induced,
        report=report,
        failing_cell=failing_cell,
        sample_count=samples,
    )
