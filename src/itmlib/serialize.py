"""Lossless JSON and CSV forms for maps, arc sets, measures, and schedules.

Rationals serialize as strings "p/q" in lowest terms (integers without
the denominator).  Parsing accepts those strings, JSON integers, and
decimal strings like "0.618", which are read exactly; an approximation
target given as a decimal should carry its precision in the config.
Decimal exponents are bounded by MAX_DECIMAL_EXPONENT, so that a short
string cannot ask for an integer of millions of digits.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Any, Mapping, Optional, Sequence

from itmlib.approx import Relation
from itmlib.circle import Arc, ArcSet, CirclePoint, frac
from itmlib.conjugacy import ConjugacyData
from itmlib.itm import Itm
from itmlib.measure import Measure
from itmlib.piecewise import (
    AffinePiece,
    Domain,
    PiecewiseMap,
    VisitFrequencyTable,
)


MAX_DECIMAL_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*$")


def rat(x) -> str:
    return str(frac(x))


def parse_rational(v: Any, what: str = "rational") -> Fraction:
    if isinstance(v, bool) or not isinstance(v, (int, str, Fraction)):
        raise ValueError(f"{what} must be an integer or a 'p/q' string: {v!r}")
    exponent = _EXPONENT.search(v) if isinstance(v, str) else None
    if exponent is not None:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        # the length test keeps int() off exponents of thousands of digits
        if len(digits) > 6 or int(digits or 0) > MAX_DECIMAL_EXPONENT:
            raise ValueError(
                f"{what}: decimal exponent above {MAX_DECIMAL_EXPONENT}: {v!r}"
            )
    try:
        return frac(v)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad {what}: {v!r}") from exc


def itm_to_json(s: Itm) -> dict:
    return {
        "breakpoints": [rat(b.value) for b in s.breakpoints],
        "shifts": [rat(c) for c in s.shifts],
    }


def itm_from_json(d: Mapping) -> Itm:
    try:
        bps = d["breakpoints"]
        shs = d["shifts"]
    except (KeyError, TypeError) as exc:
        raise ValueError("map JSON needs 'breakpoints' and 'shifts'") from exc
    return Itm(
        tuple(CirclePoint(parse_rational(b, "breakpoint")) for b in bps),
        tuple(parse_rational(c, "shift") for c in shs),
    )


def arcset_to_json(a: ArcSet) -> dict:
    return {
        "arcs": [
            {"start": rat(arc.start.value), "length": rat(arc.length)}
            for arc in a.arcs
        ]
    }


def arcset_from_json(d: Mapping) -> ArcSet:
    arcs = tuple(
        Arc(
            CirclePoint(parse_rational(e["start"], "arc start")),
            parse_rational(e["length"], "arc length"),
        )
        for e in d["arcs"]
    )
    return ArcSet(arcs)


def measure_to_json(mu: Measure) -> dict:
    return {
        "density": [
            {
                "arc": {"start": rat(lo), "length": rat(hi - lo)},
                "weight": rat(w),
            }
            for lo, hi, w in mu.density
        ],
        "atoms": [
            {"point": rat(p), "mass": rat(m)} for p, m in mu.atoms
        ],
    }


def measure_from_json(d: Mapping) -> Measure:
    density = []
    for e in d.get("density", ()):
        lo = parse_rational(e["arc"]["start"], "density start")
        length = parse_rational(e["arc"]["length"], "density length")
        # a Measure lives on [0, 1] and its density pieces never wrap
        if not 0 <= lo < 1:
            raise ValueError(f"density start outside [0, 1): {e['arc']['start']!r}")
        if length <= 0:
            raise ValueError(f"density length must be positive: {e['arc']['length']!r}")
        if lo + length > 1:
            raise ValueError(f"density length runs past 1: {e['arc']['length']!r}")
        density.append((lo, lo + length, parse_rational(e["weight"], "weight")))
    atoms = [
        (parse_rational(e["point"], "atom point"), parse_rational(e["mass"], "atom mass"))
        for e in d.get("atoms", ())
    ]
    return Measure(tuple(density), tuple(atoms))


def piecewise_to_json(t: PiecewiseMap) -> dict:
    return {
        "domain": t.domain.value,
        "pieces": [
            {
                "interval": [rat(p.lo), rat(p.hi)],
                "affine": {"a": rat(p.a), "b": rat(p.b)},
            }
            for p in t.pieces
        ],
        "boundaryValues": {rat(p): rat(v) for p, v in t.boundary_values},
        "discontinuities": [rat(p) for p in t.discontinuities],
    }


def piecewise_from_json(d: Mapping) -> PiecewiseMap:
    try:
        domain = Domain(d["domain"])
        raw_pieces = d["pieces"]
    except (KeyError, ValueError, TypeError) as exc:
        raise ValueError("piecewise JSON needs 'domain' and 'pieces'") from exc
    pieces = tuple(
        AffinePiece(
            parse_rational(e["interval"][0], "piece start"),
            parse_rational(e["interval"][1], "piece end"),
            parse_rational(e["affine"]["a"], "coefficient a"),
            parse_rational(e["affine"]["b"], "coefficient b"),
        )
        for e in raw_pieces
    )
    bvs = tuple(
        (parse_rational(p, "boundary point"), parse_rational(v, "boundary value"))
        for p, v in d.get("boundaryValues", {}).items()
    )
    disc = d.get("discontinuities")
    return PiecewiseMap(
        domain=domain,
        pieces=pieces,
        boundary_values=bvs,
        discontinuities=(
            tuple(parse_rational(p, "discontinuity") for p in disc)
            if disc is not None
            else None
        ),
    )


def relation_to_json(r: Relation) -> dict:
    out = {"i": r.i, "j": r.j, "l": list(r.l), "w": r.w}
    if r.itinerary is not None:
        out["side"] = r.side.value
        out["itinerary"] = list(r.itinerary)
    return out


def relation_from_json(d: Mapping) -> Relation:
    try:
        return Relation(
            i=int(d["i"]), j=int(d["j"]), l=tuple(int(v) for v in d["l"]), w=int(d["w"])
        )
    except KeyError as exc:
        raise ValueError(f"bad relation entry {d!r}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad relation entry {d!r}: {exc}") from exc


def _csv(header: str, rows) -> str:
    """A CSV document: the header line, then one line per row of exact values."""
    return "\n".join([header, *(",".join(map(rat, row)) for row in rows)]) + "\n"


def cdf_csv(mu: Measure, points: Optional[Sequence] = None) -> str:
    """CSV with columns x,F(x), exact, at the CDF breaklist by default."""
    cdf = mu.cdf()
    xs = cdf.cuts if points is None else tuple(frac(p) for p in points)
    return _csv("x,F(x)", ((x, cdf.at(x)) for x in xs))


def visit_frequency_csv(table: VisitFrequencyTable) -> str:
    """CSV with columns m,eps,f, exact."""
    return _csv("m,eps,f", ((e.m, e.eps, e.frequency) for e in table.entries))


def conjugacy_csv(data: ConjugacyData) -> str:
    """CSV with columns x,h(x) at the grid points of ``data.samples``."""
    return _csv("x,h(x)", ((s.x, data.h.at(s.x)) for s in data.samples))
