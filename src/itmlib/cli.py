"""Command line entry point: config-driven pipelines with JSON reports.

Every command reads a JSON config, resolves defaults and flag overrides
into it, runs one pipeline, and prints a self-describing JSON report to
stdout (also written under --out, along with optional CSV tables and
SVG plots).  Given the same config and seed the report is byte
identical except for the generatedAt timestamp.

The COMMANDS table lists, for each command, the config keys it reads:
how each is parsed and checked, its default, and the flag that
overrides it.  Each subcommand's flags are built from that table, and a
config key the command does not read is an error.

Exit codes: 0 success, 1 config or usage error, 2 budget exceeded,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import traceback
from dataclasses import replace
from datetime import datetime, timezone
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

from itmlib import __version__
from itmlib.approx import (
    Relation,
    detect_convergence,
    detect_relations,
    generate_approximants,
    measure_sequence,
    verify_limit_measure,
)
from itmlib.circle import _integer
from itmlib.conjugacy import AtomicMeasure, NotInvariant, induce_iem
from itmlib.families import PolynomialFamily, TrigFamily
from itmlib.itm import (
    DEFAULT_MAX_ARCS,
    DEFAULT_MAX_ITER,
    DEFAULT_ORBIT_BUDGET,
    BudgetExceeded,
    FiniteType,
    Itm,
)
from itmlib.measure import (
    Measure,
    NotFiniteType,
    attractor_measure,
    invariance_residual_exact,
)
from itmlib.piecewise import (
    HitDiscontinuity,
    PiecewiseMap,
    _visit_frequency,
    empirical_measure,
    from_itm,
    wandering_discontinuity_check,
)
from itmlib.plots import attractor_svg, cdf_svg, conjugacy_svg, density_svg
from itmlib.serialize import (
    _get,
    _object,
    arcset_to_json,
    cdf_csv,
    conjugacy_csv,
    itm_from_json,
    itm_to_json,
    measure_from_json,
    measure_to_json,
    parse_rational,
    piecewise_from_json,
    piecewise_to_json,
    rat,
    relation_from_json,
    relation_to_json,
    visit_frequency_csv,
)

MEASURE_EMBED_LIMIT = 256
# Most orbit steps or sample points one config may ask for (m, orbitLengths,
# samples, depth, wandering.horizon, family.degree): an orbit of 10**5 steps
# already takes seconds.
_MAX_STEPS = 10**5
FAMILIES = {"trig": TrigFamily, "polynomial": PolynomialFamily}


class ConfigError(ValueError):
    """Bad config file, config key or flag; maps to exit code 1."""


class VerificationFailure(RuntimeError):
    """A pipeline ran but its exact or tolerance check failed; exit code 3."""


# -- config values: each parser takes a JSON value (or a flag's string) and
# raises ValueError, TypeError or LookupError on a value it cannot read


def _within_steps(v: int) -> bool:
    return 0 < v <= _MAX_STEPS


def _real(v) -> float:
    if isinstance(v, bool):
        raise TypeError(f"must be a number: {v!r}")
    return float(v)


def _list_of(item: Callable) -> Callable:
    def parse(v) -> list:
        if not isinstance(v, list):
            raise TypeError(f"must be a list: {v!r}")
        return [item(x) for x in v]

    return parse


def _any_map(spec):
    """A PiecewiseMap when the spec has 'pieces' or 'domain', else an Itm."""
    if isinstance(spec, dict) and ("pieces" in spec or "domain" in spec):
        return piecewise_from_json(spec)
    return itm_from_json(spec)


def _orbit_lengths(v) -> list:
    return _list_of(_integer)(v) if isinstance(v, list) else [_integer(v)]


def _wandering(v) -> dict:
    horizon = _integer(_object(v)["horizon"], "horizon")
    if not _within_steps(horizon):
        raise ValueError(f"'horizon' must be between 1 and {_MAX_STEPS}")
    return {
        "radii": [parse_rational(r, "radius") for r in _get(v, "radii", list)],
        "horizon": horizon,
    }


def _family(v) -> dict:
    kind = _object(v).get("kind", "trig")
    if kind not in FAMILIES:
        raise ValueError(f"unknown family kind: {kind!r}")
    return {"kind": kind, "degree": _integer(v.get("degree", 8), "degree")}


POSITIVE = (lambda v: v > 0, "must be positive")
_STEPS = (_within_steps, f"must be between 1 and {_MAX_STEPS}")
_DEGREE = (lambda f: _within_steps(f["degree"]), f"'degree' must be between 1 and {_MAX_STEPS}")
_ALL_STEPS = (
    lambda vs: vs and all(map(_within_steps, vs)),
    f"must list values between 1 and {_MAX_STEPS}",
)
NONNEGATIVE = (lambda v: v >= 0, "must be nonnegative")
FINITE_NONNEGATIVE = (lambda v: 0 <= v < math.inf, "must be finite and nonnegative")
ALL_POSITIVE = (lambda vs: vs and all(v > 0 for v in vs), "must list positive values")
REQUIRED = object()  # default of a key the config must give


class Key(NamedTuple):
    """One config key of a command.

    Its value comes from the flag if given, else from the config, else
    (when ``bare`` names top-level keys) from those, else it is
    ``default``.  ``check`` is a (predicate, message) pair.  A
    ``flag_only`` key is never read from a config.
    """

    name: str
    parse: Callable[[Any], Any]
    default: Any = None
    check: Optional[tuple] = None
    flag: Optional[str] = None
    bare: tuple = ()
    flag_only: bool = False


ITM_KEYS = ("breakpoints", "shifts")
MAP_KEYS = ITM_KEYS + ("domain", "pieces", "boundaryValues", "discontinuities")
ITM_MAP = Key("map", itm_from_json, bare=ITM_KEYS)
ANY_MAP = Key("map", _any_map, bare=MAP_KEYS)
MAX_ITER = Key("maxIter", _integer, DEFAULT_MAX_ITER, POSITIVE, "--max-iter")
MAX_ARCS = Key("maxArcs", _integer, DEFAULT_MAX_ARCS, POSITIVE, "--max-arcs")
DEPTH = Key("depth", _integer, 8, _STEPS, "--depth")
ORBIT_BUDGET = Key("orbitBudget", _integer, DEFAULT_ORBIT_BUDGET, POSITIVE)


def _resolve(keys: tuple, config: dict, args) -> dict:
    """Each key's checked value, after flag overrides and defaults."""
    known = {k.name for k in keys if not k.flag_only}
    known.update(b for k in keys if k.name not in config for b in k.bare)
    unknown = sorted(set(config) - known)
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    values = {}
    for key in keys:
        if key.flag and getattr(args, key.name) is not None:
            raw = getattr(args, key.name)
        elif key.name in config:
            raw = config[key.name]
        elif key.bare:
            raw = {b: config[b] for b in key.bare if b in config}
        elif key.default is REQUIRED:
            raise ConfigError(f"missing config key {key.name!r}")
        else:
            values[key.name] = key.default
            continue
        try:
            value = values[key.name] = key.parse(raw)
            if key.check is not None and not key.check[0](value):
                raise ValueError(key.check[1])
        except KeyError as exc:
            raise ConfigError(f"{key.name!r}: missing key {exc}") from exc
        except (ValueError, TypeError, LookupError) as exc:
            raise ConfigError(f"{key.name!r}: {exc}") from exc
    return values


def _json_default(v):
    """The JSON form of the exact objects a report holds (maps, measures...)."""
    for kind, dump in (
        (Fraction, rat),
        (PiecewiseMap, piecewise_to_json),
        (Itm, itm_to_json),
        (Measure, measure_to_json),
        (Relation, relation_to_json),
    ):
        if isinstance(v, kind):
            return dump(v)
    raise TypeError(f"{type(v).__name__} has no JSON form")


# -- commands: each takes the resolved values and the --plot flag and returns
# the report payload and the artifacts by file name.  A command that computes
# a value its config left out (a drawn x0, the attractor measure) stores it
# back, so that the report's config block holds every value the run used.


def _cmd_validate(o, plot):
    """Parse and validate a map config."""
    t = o["map"]
    if isinstance(t, PiecewiseMap):
        hs = [rat(p) for p in t.discontinuities]
        payload = {"kind": "piecewise", "pieces": len(t.pieces), "discontinuities": hs}
    else:
        payload = {"kind": "itm", "pieces": t.n}
        payload["commonDenominator"] = t.common_denominator()
    return {"valid": True, **payload}, {}


def _cmd_attractor(o, plot):
    """Iterate forward images to exact stabilization."""
    s, max_iter = o["map"], o["maxIter"]
    result = s.attractor(max_iter=max_iter, max_arcs=o["maxArcs"])
    if result.finite_type is not FiniteType.YES:
        raise BudgetExceeded(
            f"no stabilization within {max_iter} iterations (itm.attractor)",
            budget="max_iter",
            value=max_iter,
        )
    payload = {
        "finiteType": result.finite_type.value,
        "stabilizedAt": result.stabilized_at,
        "attractor": arcset_to_json(result.attractor),
        "attractorLength": rat(result.attractor.total_length),
        "arcCount": len(result.attractor),
    }
    artifacts = {}
    if plot:
        artifacts["attractor.svg"] = attractor_svg(result)
    return payload, artifacts


def _cmd_measure(o, plot):
    """Build the exactly invariant attractor measure."""
    s = o["map"]
    attr = s.attractor(max_iter=o["maxIter"], max_arcs=o["maxArcs"])
    mu = attractor_measure(s, attr)
    residual = invariance_residual_exact(s, mu)
    if residual != 0:
        raise VerificationFailure(
            f"invariance residual {residual} is nonzero (measure.attractor_measure)"
        )
    payload = {
        "stabilizedAt": attr.stabilized_at,
        "measure": mu,
        "invarianceResidualExact": rat(residual),
        "nonAtomic": mu.non_atomic,
    }
    artifacts = {"cdf.csv": cdf_csv(mu)}
    if plot:
        artifacts["density.svg"] = density_svg(mu)
        artifacts["cdf.svg"] = cdf_svg(mu)
    return payload, artifacts


def _cmd_homtervals(o, plot):
    """Classify continuity gaps and periodic domains."""
    report = o["map"].classify_homtervals(o["depth"], orbit_budget=o["orbitBudget"])
    payload = {
        "omegaSize": len(report.omega),
        "homtervals": [
            {
                "start": rat(h.arc.start.value),
                "length": rat(h.arc.length),
                "preperiod": h.preperiod,
                "period": h.period,
                "resolved": h.resolved,
            }
            for h in report.homtervals
        ],
        "genericity": report.genericity.value,
    }
    return payload, {}


def _cmd_relations(o, plot):
    """Harvest exact breakpoint-orbit relations."""
    s = o["map"]
    system = detect_relations(s, o["depth"])
    payload = {
        "sourceDepth": system.source_depth,
        "relations": [
            {**relation_to_json(r), "residual": rat(r.residual(s.breakpoints, s.shifts))}
            for r in system.relations
        ],
    }
    return payload, {}


def _cmd_approximate(o, plot):
    """Run a rational approximant schedule."""
    schedule = generate_approximants(
        o["target"], o["declaredRelations"], o["denominators"], o["precision"]
    )
    if o["levels"] is not None:
        schedule = replace(schedule, levels=schedule.levels[: o["levels"]])
    o["declaredRelations"] = list(schedule.relations)
    o["denominators"] = [level.bound for level in schedule.levels]

    level_measures = measure_sequence(
        schedule, max_iter=o["maxIter"], max_arcs=o["maxArcs"]
    )
    if all(lm.error is not None for lm in level_measures):
        first = level_measures[0].error
        raise BudgetExceeded(
            f"every level failed, first error: {first} (approx.measure_sequence)",
            budget="levels",
            value=len(level_measures),
        )

    levels_payload = []
    for level, lm in zip(schedule.levels, level_measures):
        entry = {"bound": lm.bound, "map": lm.map, "distanceToTarget": level.distance}
        if lm.measure is not None:
            entry["stabilizedAt"] = lm.attractor.stabilized_at
            entry["measure"] = lm.measure
        else:
            entry["error"] = str(lm.error)
        levels_payload.append(entry)

    mus = [lm.measure for lm in level_measures if lm.measure is not None]
    convergence = detect_convergence(mus, o["tol"]) if len(mus) >= 2 else None
    payload = {
        "levels": levels_payload,
        "convergence": None
        if convergence is None
        else {
            "distances": [rat(d) for d in convergence.distances],
            "tol": rat(convergence.tol),
            "cauchyFrom": convergence.cauchy_from,
            "limitCandidate": convergence.limit_candidate,
        },
    }
    artifacts = {}
    if plot and mus:
        artifacts["limit-cdf.svg"] = cdf_svg(mus[-1])
    return payload, artifacts


def _cmd_conjugate(o, plot):
    """Induce and verify the conjugate interval exchange."""
    s = o["map"]
    if o["measure"] is None:
        o["measure"] = attractor_measure(s)
    try:
        data = induce_iem(s, o["measure"], samples=o["samples"])
    except (NotInvariant, AtomicMeasure) as exc:
        raise VerificationFailure(f"{exc} (conjugacy.induce_iem)") from exc
    if data.report.failures:
        problems = ", ".join(data.report.failures)
        raise VerificationFailure(f"{problems} (conjugacy.verify_iem)")
    if data.failing_cell is not None:
        lo, hi = data.failing_cell
        raise VerificationFailure(
            f"h(S(x)) != T(h(x)) on the cell ({lo},{hi}) "
            "(conjugacy.semiconjugacy_failure)"
        )
    exceptional = sum(flag for _, flag in data._h_table[1])
    payload = {
        "tau": [rat(t) for t in data.tau],
        "induced": itm_to_json(data.induced),
        "verification": {
            "lengthsOk": data.report.lengths_ok,
            "lebesgueOk": data.report.lebesgue_ok,
            "injective": data.report.injective,
            "overlapLength": rat(data.report.overlap_length),
            "failures": list(data.report.failures),
        },
        "semiConjugacy": {
            "samples": data.sample_count,
            "exceptional": exceptional,
            "clean": data.clean_samples,
        },
    }
    artifacts = {"conjugacy.csv": conjugacy_csv(data)}
    if plot:
        artifacts["h.svg"] = conjugacy_svg(data)
    return payload, artifacts


def _cmd_empirical(o, plot):
    """Orbit statistics and Birkhoff empirical measure."""
    if isinstance(o["map"], Itm):
        o["map"] = from_itm(o["map"])
    t, m = o["map"], o["m"]
    if o["x0"] is None:
        rng = random.Random(o["seed"] or 0)
        o["x0"] = Fraction(rng.randrange(1, 2**20), 2**20)

    try:
        emp = empirical_measure(t, o["x0"], m)
    except HitDiscontinuity as exc:
        raise VerificationFailure(f"{exc} (piecewise.orbit)") from exc
    payload = {
        "m": emp.m,
        "basePoint": rat(emp.base_point),
        "nextPoint": rat(emp.next_point),
        "defect": rat(emp.defect),
        "defectVerified": emp.verify_defect(),
        "distinctAtoms": len(emp.measure.atoms),
    }
    if len(emp.measure.atoms) <= MEASURE_EMBED_LIMIT:
        payload["measure"] = emp.measure

    artifacts = {}
    # orbit lengths serve the visit frequencies and are reported only beside them
    ms = o["orbitLengths"] = (o["orbitLengths"] or [m]) if o["epsilons"] else None
    if ms is not None:
        try:
            table = _visit_frequency(t, o["x0"], ms, o["epsilons"], emp._orbit)
        except (ValueError, HitDiscontinuity) as exc:
            raise VerificationFailure(f"{exc} (piecewise.visit_frequency)") from exc
        payload["visitFrequency"] = {
            "entries": [
                {"m": e.m, "eps": rat(e.eps), "f": rat(e.frequency)}
                for e in table.entries
            ],
            "verdict": table.verdict.value,
        }
        artifacts["visit-frequency.csv"] = visit_frequency_csv(table)

    if o["wandering"] is not None:
        w = o["wandering"]
        probes = wandering_discontinuity_check(t, w["radii"], w["horizon"])
        payload["wandering"] = [
            {
                "point": rat(p.point),
                "radius": rat(p.radius),
                "verdict": p.verdict,
                "witness": None if p.witness is None else rat(p.witness),
                "returnTime": p.return_time,
            }
            for p in probes
        ]
    if plot:
        artifacts["empirical-cdf.svg"] = cdf_svg(emp.measure)
    return payload, artifacts


def _cmd_verify_limit(o, plot):
    """Test a candidate limit measure against a map."""
    kind, degree = o["family"]["kind"], o["family"]["degree"]
    report = verify_limit_measure(
        o["map"],
        o["measure"],
        tol_mass=o["tolMass"],
        tol_res=o["tolResidual"],
        deltas=o["deltas"],
        family=FAMILIES[kind](degree),
    )
    payload = {
        "deltas": [rat(d) for d in report.deltas],
        "massNearDiscontinuities": [rat(v) for v in report.masses],
        "massOk": report.mass_ok,
        "residual": report.residual,
        "residualOk": report.residual_ok,
        "failures": list(report.failures),
    }
    if report.failures:
        message = "; ".join(report.failures)
        raise VerificationFailure(f"{message} (approx.verify_limit_measure)", payload)
    return payload, {}


COMMANDS: dict[str, tuple] = {
    # name: (handler, the config keys it reads); the docstring is the help
    "validate": (_cmd_validate, ANY_MAP),
    "attractor": (_cmd_attractor, ITM_MAP, MAX_ITER, MAX_ARCS),
    "measure": (_cmd_measure, ITM_MAP, MAX_ITER, MAX_ARCS),
    "homtervals": (_cmd_homtervals, ITM_MAP, DEPTH, ORBIT_BUDGET),
    "relations": (_cmd_relations, ITM_MAP, DEPTH),
    "approximate": (
        _cmd_approximate,
        Key("target", itm_from_json, bare=ITM_KEYS),
        Key("declaredRelations", _list_of(relation_from_json)),
        Key("denominators", _list_of(_integer)),
        Key("precision", parse_rational, Fraction(0), NONNEGATIVE),
        MAX_ITER,
        MAX_ARCS,
        Key("tol", parse_rational, Fraction(1, 1000), NONNEGATIVE, "--tol"),
        Key("levels", _integer, None, POSITIVE, "--levels", flag_only=True),
    ),
    "conjugate": (
        _cmd_conjugate,
        ITM_MAP,
        Key("measure", measure_from_json),
        Key("samples", _integer, 10**4, _STEPS),
    ),
    "empirical": (
        _cmd_empirical,
        ANY_MAP,
        Key("m", _integer, 1000, _STEPS),
        Key("x0", parse_rational),
        Key("seed", _integer, flag="--seed"),
        Key("epsilons", _list_of(parse_rational), check=ALL_POSITIVE),
        Key("orbitLengths", _orbit_lengths, check=_ALL_STEPS),
        Key("wandering", _wandering),
    ),
    "verify-limit": (
        _cmd_verify_limit,
        ANY_MAP,
        Key("measure", measure_from_json, REQUIRED),
        Key("tolMass", parse_rational, Fraction(1, 100), NONNEGATIVE, "--tol"),
        Key("tolResidual", _real, 1e-6, FINITE_NONNEGATIVE),
        Key("family", _family, {"kind": "trig", "degree": 8}, _DEGREE),
        Key("deltas", _list_of(parse_rational), check=ALL_POSITIVE),
    ),
}


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # argparse would exit 2, which here means a budget was exceeded
        self.print_usage(sys.stderr)
        raise ConfigError(message)


@cache
def _parser() -> argparse.ArgumentParser:
    # built on the first main call and reused: parsing leaves it unchanged
    parser = _ArgumentParser(
        prog="itmlib",
        description="exact experiments with interval translation maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, *keys) in COMMANDS.items():
        p = sub.add_parser(name, help=run.__doc__)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", help="directory for report and artifacts")
        p.add_argument("--plot", action="store_true", help="emit SVG plots")
        for key in keys:
            if key.flag:
                overrides = None if key.flag_only else f"overrides '{key.name}'"
                p.add_argument(key.flag, dest=key.name, help=overrides)
    return parser


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    return config


def _origin(exc: BaseException) -> str:
    """module.function of the innermost itmlib frame that exc passed."""
    frames = traceback.extract_tb(exc.__traceback__)
    f = [f for f in frames if Path(f.filename).parent == Path(__file__).parent][-1]
    return f"{Path(f.filename).stem}.{f.name}"


def _emit(command: str, resolved: dict, payload: dict, artifacts: dict, args) -> None:
    report = {
        "command": command,
        "version": __version__,
        "generatedAt": datetime.now(timezone.utc).isoformat(),
        "config": resolved,
        **payload,
    }
    text = json.dumps(report, indent=2, sort_keys=True, default=_json_default)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(text + "\n", encoding="utf-8")
        for name, content in artifacts.items():
            (out / name).write_text(content, encoding="utf-8")
    print(text)


def main(argv: Optional[list] = None) -> int:
    command = "itmlib"
    try:
        args = _parser().parse_args(argv)
        command = args.command
        config = _load_config(args.config)
        run, *keys = COMMANDS[command]
        values = _resolve(keys, config, args)
        payload, artifacts = run(values, args.plot)
        echo = {k.name for k in keys if not k.flag_only}
        resolved = {k: v for k, v in values.items() if k in echo and v is not None}
        _emit(command, resolved, payload, artifacts, args)
    except (BudgetExceeded, NotFiniteType) as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return 2
    except VerificationFailure as exc:
        print(f"{command}: {exc.args[0]}", file=sys.stderr)
        if len(exc.args) > 1 and isinstance(exc.args[1], dict):
            print(json.dumps(exc.args[1], indent=2, sort_keys=True))
        return 3
    except (ValueError, TypeError, LookupError, OSError) as exc:
        where = "" if isinstance(exc, ConfigError) else f" ({_origin(exc)})"
        print(f"{command}: {exc}{where}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
