"""Metric conjugacy between a map with an invariant measure and an IEM.

Given an exactly invariant non-atomic probability measure mu for a map S,
the distribution function h(x) = mu([0, x]) transports mu to Lebesgue
measure, and y -> h(S(hbar(y))) with hbar = h.rightmost_preimage the
rightmost inverse of h is an interval exchange on [0, 1).  An interval
exchange is an Itm whose piece images tile the circle, so the induced
map is an Itm and verify_iem checks the tiling.  Everything is exact:
the induced shifts, the semi-conjugacy samples, and the verification
that the result preserves Lebesgue measure and is injective up to
measure zero.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction

from itmlib.circle import ONE, ZERO, ArcSet, CirclePoint, Rational, frac
from itmlib.itm import Itm
from itmlib.measure import (
    AtomicMeasure,
    Cdf,
    Measure,
    invariance_residual_exact,
)

DEFAULT_SEMICONJUGACY_SAMPLES = 1024


class NotInvariant(ValueError):
    """The measure is not exactly invariant under the map."""


def build_h(mu: Measure) -> Cdf:
    """The transport map h(x) = mu([0, x]) for a non-atomic probability measure."""
    if mu.atoms:
        raise AtomicMeasure("h requires a non-atomic measure")
    if mu.total_mass != 1:
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

    One sweep over the image endpoints (and 0) counts the piece images
    covering each cell of the refinement.  A cell covered C times has a
    preimage of C times its length and adds C(C-1)/2 times its length to
    the pairwise overlap, so (a) fails exactly on the cells where C != 1.
    """
    failures: list[str] = []
    coverage_change: dict[Fraction, int] = {ZERO: 0}
    for j in range(t.n):
        for lo, hi in t.piece(j).translate(t.shifts[j]).segments():
            coverage_change[lo] = coverage_change.get(lo, 0) + 1
            coverage_change[hi] = coverage_change.get(hi, 0) - 1
    coverage_change.pop(ONE, None)
    cuts = sorted(coverage_change)
    overlap = ZERO
    coverage = 0
    mass_changes: list[str] = []
    for lo, hi in zip(cuts, cuts[1:] + [ONE]):
        coverage += coverage_change[lo]
        overlap += coverage * (coverage - 1) // 2 * (hi - lo)
        if coverage != 1:
            mass_changes.append(f"Lebesgue mass of [{lo},{hi}) changes under preimage")
    injective = overlap == 0
    if not injective:
        failures.append(f"piece images overlap in total length {overlap}")
    failures.extend(mass_changes)
    return IemReport(not mass_changes, injective, overlap, tuple(failures))


@dataclass(frozen=True)
class SemiConjugacySample:
    """One sampled x with its exact check of h(S(x)) = T(h(x))."""

    x: Fraction
    exceptional: bool
    ok: bool


@dataclass(frozen=True)
class ConjugacyData:
    """The full conjugacy package: h, tau, the induced exchange, verification."""

    source_map: Itm
    mu: Measure
    h: Cdf
    tau: tuple[Fraction, ...]
    induced: Itm
    report: IemReport
    samples: tuple[SemiConjugacySample, ...]

    @property
    def clean_samples(self) -> bool:
        return all(s.ok for s in self.samples if not s.exceptional)

    def is_exceptional(self, x: Rational) -> bool:
        """Exact membership in the exceptional set: x outside the open
        interior of supp mu, where h is locally constant or kinks."""
        return _exceptional(self.mu, frac(x))


def _exceptional(mu: Measure, x: Fraction) -> bool:
    # only the last density piece starting before x can contain x
    i = bisect.bisect_left(mu.density, (x,))
    return i == 0 or mu.density[i - 1][1] <= x


def induce_iem(
    s: Itm,
    mu: Measure,
    samples: int = DEFAULT_SEMICONJUGACY_SAMPLES,
) -> ConjugacyData:
    """Build the interval exchange metrically conjugate to (S, mu).

    The circle is cut at 0 (adding 0 as an artificial breakpoint if
    needed); pieces of zero mu-mass collapse and vanish.  Each connected
    component of the support within a piece becomes one exchange piece,
    with its shift computed exactly at the component midpoint; the
    semi-conjugacy is then sampled on a grid and the exchange is
    verified exactly.
    """
    h = build_h(mu)
    if invariance_residual_exact(s, mu) != 0:
        raise NotInvariant("measure is not exactly invariant under the map")

    cut = s.with_breakpoint(CirclePoint(ZERO))
    tau = tuple(h.at(t.value) for t in cut.breakpoints) + (ONE,)

    # One exchange piece per connected component of supp mu within a piece
    # of the cut map: across a support gap h(S(x)) can jump while h(x)
    # stays flat, so the tau intervals alone may be too coarse.
    supp = mu.support()
    starts: list[Fraction] = []
    shifts: list[Fraction] = []
    for j in range(cut.n):
        carried = supp & ArcSet([cut.piece(j)])
        for lo, hi in carried.segments():
            mid = (lo + hi) / 2
            image = h.at(cut.evaluate(CirclePoint(mid)).value)
            starts.append(h.at(lo))
            shifts.append((image - h.at(mid)) % 1)
    if not starts:
        starts, shifts = [ZERO], [ZERO]

    induced = Itm(tuple(starts), tuple(shifts))
    sample_list = []
    for i in range(samples):
        x = Fraction(2 * i + 1, 2 * samples)
        lhs = h.at(s.evaluate(CirclePoint(x)).value)
        rhs = induced.evaluate(CirclePoint(h.at(x))).value
        sample_list.append(SemiConjugacySample(x, _exceptional(mu, x), lhs == rhs))
    return ConjugacyData(
        source_map=s,
        mu=mu,
        h=h,
        tau=tau,
        induced=induced,
        report=verify_iem(induced),
        samples=tuple(sample_list),
    )
