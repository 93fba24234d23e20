"""Lossless JSON and CSV forms for maps, arc sets, measures, and schedules.

Rationals serialize as strings "p/q" in lowest terms (integers without
the denominator).  Parsing accepts those strings, JSON integers, and
decimal strings like "0.618", which are read exactly; an approximation
target given as a decimal should carry its precision in the config.
Decimal exponents are bounded by MAX_DECIMAL_EXPONENT, so that a short
string cannot ask for an integer of millions of digits.

The CSV tables print exact values read from integers: a measure's
cumulative table gives its rows as integers (``measure._rows``) and a
conjugacy its h(x) table as numerators over one denominator, and
``_ratio(n, d)`` prints n/d as ``rat`` prints Fraction(n, d), with no
Fraction built per row.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from math import gcd
from typing import Any

from itmlib.approx import Relation
from itmlib.circle import Arc, ArcSet, frac
from itmlib.conjugacy import ConjugacyData
from itmlib.itm import Itm
from itmlib.measure import Measure, _rows
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


def _ratio(n: int, d: int) -> str:
    """str(Fraction(n, d)) for integers n and d > 0, built from the integers."""
    g = gcd(n, d)
    if g == d:
        return str(n // g)
    return f"{n // g}/{d // g}"


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


_KINDS = {list: "a list", Mapping: "a JSON object"}


def _object(d: Any) -> Mapping:
    """d, which must be a JSON object."""
    if not isinstance(d, Mapping):
        raise ValueError(f"must be a JSON object: {d!r}")
    return d


def _get(d: Mapping, key: str, kind: type, *default) -> Any:
    """d[key], or the default when one is given and d lacks the key, which
    must be of the JSON kind: list or Mapping; ValueError names the key."""
    v = d.get(key, *default) if default else d[key]
    if not isinstance(v, kind):
        raise ValueError(f"'{key}' must be {_KINDS[kind]}")
    return v


def _objects(d: Mapping, key: str, *default) -> list:
    """d[key] as _get reads it, a list that must hold JSON objects."""
    entries = _get(d, key, list, *default)
    for e in entries:
        if not isinstance(e, Mapping):
            raise ValueError(f"'{key}' must list JSON objects: {e!r}")
    return entries


def itm_to_json(s: Itm) -> dict:
    return {
        "breakpoints": [rat(b) for b in s.breakpoints],
        "shifts": [rat(c) for c in s.shifts],
    }


def itm_from_json(d: Mapping) -> Itm:
    if "breakpoints" not in _object(d) or "shifts" not in d:
        raise ValueError("map JSON needs 'breakpoints' and 'shifts'")
    return Itm(
        [parse_rational(b, "breakpoint") for b in _get(d, "breakpoints", list)],
        [parse_rational(c, "shift") for c in _get(d, "shifts", list)],
    )


def arcset_to_json(a: ArcSet) -> dict:
    return {
        "arcs": [
            {"start": rat(arc.start), "length": rat(arc.length)}
            for arc in a.arcs
        ]
    }


def arcset_from_json(d: Mapping) -> ArcSet:
    arcs = tuple(
        Arc(
            parse_rational(e["start"], "arc start"),
            parse_rational(e["length"], "arc length"),
        )
        for e in _objects(_object(d), "arcs")
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
    for e in _objects(_object(d), "density", []):
        arc = _get(e, "arc", Mapping)
        lo = parse_rational(arc["start"], "density start")
        length = parse_rational(arc["length"], "density length")
        # a Measure lives on [0, 1] and its density pieces never wrap
        if not 0 <= lo < 1:
            raise ValueError(f"density start outside [0, 1): {arc['start']!r}")
        if length <= 0:
            raise ValueError(f"density length must be positive: {arc['length']!r}")
        if lo + length > 1:
            raise ValueError(f"density length runs past 1: {arc['length']!r}")
        density.append((lo, lo + length, parse_rational(e["weight"], "weight")))
    atoms = [
        (parse_rational(e["point"], "atom point"), parse_rational(e["mass"], "atom mass"))
        for e in _objects(d, "atoms", [])
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
    if "domain" not in _object(d) or "pieces" not in d:
        raise ValueError("piecewise JSON needs 'domain' and 'pieces'")
    try:
        domain = Domain(d["domain"])
    except (ValueError, TypeError) as exc:
        raise ValueError(f"'domain' must be 'circle' or 'segment': {d['domain']!r}") from exc
    pieces = []
    for e in _objects(d, "pieces"):
        interval, affine = _get(e, "interval", list), _get(e, "affine", Mapping)
        if len(interval) != 2:
            raise ValueError(f"'interval' must list two values: {interval!r}")
        pieces.append(
            AffinePiece(
                parse_rational(interval[0], "piece start"),
                parse_rational(interval[1], "piece end"),
                parse_rational(affine["a"], "coefficient a"),
                parse_rational(affine["b"], "coefficient b"),
            )
        )
    bvs = tuple(
        (parse_rational(p, "boundary point"), parse_rational(v, "boundary value"))
        for p, v in _get(d, "boundaryValues", Mapping, {}).items()
    )
    disc = None
    if d.get("discontinuities") is not None:
        disc = [parse_rational(p, "discontinuity") for p in _get(d, "discontinuities", list)]
    return PiecewiseMap(
        domain=domain,
        pieces=pieces,
        boundary_values=bvs,
        discontinuities=disc,
    )


def relation_to_json(r: Relation) -> dict:
    out = {"i": r.i, "j": r.j, "l": list(r.l), "w": r.w}
    if r.itinerary is not None:
        out["side"] = r.side.value
        out["itinerary"] = list(r.itinerary)
    return out


def relation_from_json(d: Mapping) -> Relation:
    try:
        counts = _get(_object(d), "l", list)
        return Relation(i=d["i"], j=d["j"], l=counts, w=d["w"])
    except KeyError as exc:
        raise ValueError(f"bad relation entry {d!r}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad relation entry {d!r}: {exc}") from exc


def _csv(header: str, rows) -> str:
    """A CSV document: the header line, then one line per row of exact values
    given as strings."""
    return "\n".join([header, *map(",".join, rows)]) + "\n"


def cdf_csv(mu: Measure) -> str:
    """CSV with columns x,F(x), exact, at the cuts of the CDF, read from the
    integer rows of its table."""
    grid, unit, ticks, _, at = _rows(mu)
    return _csv("x,F(x)", ((_ratio(x, grid), _ratio(v, unit)) for x, v in zip(ticks, at)))


def visit_frequency_csv(table: VisitFrequencyTable) -> str:
    """CSV with columns m,eps,f, exact."""
    return _csv("m,eps,f", ((str(e.m), rat(e.eps), rat(e.frequency)) for e in table.entries))


def conjugacy_csv(data: ConjugacyData) -> str:
    """CSV with columns x,h(x) at the grid points of ``data.samples``, read
    from the h(x) table that ``data`` keeps."""
    den, values = data._h_table
    n = 2 * data.sample_count
    return _csv(
        "x,h(x)",
        ((_ratio(2 * i + 1, n), _ratio(v, den)) for i, (v, _) in enumerate(values)),
    )
