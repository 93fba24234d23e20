"""The four seeded workloads: input generators, items, exact checks, digests.

Each workload builds a fixed pool of inputs from its seed during set-up and
then runs items over the pool in order, wrapping around when a run outlasts
it.  An item is one unit of user work; ``run`` executes it together with its
exact checks and returns ``(status, outputs)``, where status is ``OK``,
``FAILED`` (a check did not hold) or ``REPLACED`` (the input is not a valid
instance and is skipped, as an ``approx`` target whose approximants lose
their breakpoint order).  ``digest`` renders the exact outputs as text, so
two runs with one seed must hash to the same digest.

Library calls go through the module objects in ``mods``, looked up at call
time, so the tracer's rebinding applies to them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction
from math import isqrt

OK, FAILED, REPLACED = "ok", "failed", "replaced"

# Denominator of the orbit start points: a prime far above every map grid.
ORBIT_PRIME = 999983


def _rng(workload: str, seed) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _map_text(s) -> str:
    return f"{[str(p.value) for p in s.breakpoints]}->{[str(c) for c in s.shifts]}"


def _measure_text(mu) -> str:
    density = ";".join(f"{lo},{hi},{w}" for lo, hi, w in mu.density)
    atoms = ";".join(f"{p},{m}" for p, m in mu.atoms)
    return f"D[{density}]A[{atoms}]"


def _irrational(rng: random.Random, digits: int = 30) -> Fraction:
    """frac(sqrt(k)) for a random non-square k, exact to the given digits."""
    while True:
        k = rng.randrange(2, 10**6)
        if isqrt(k) ** 2 != k:
            break
    scale = 10**digits
    return Fraction(isqrt(k * scale * scale), scale) % 1


def _random_map(catalog, rng: random.Random, n: int, q: int):
    """random_itm with at least two distinct shifts, so it has discontinuities."""
    while True:
        s = catalog.random_itm(rng, n, q)
        if len(set(s.shifts)) > 1:
            return s


def _rotated(itm_cls, s, r: Fraction):
    """The conjugate x -> S(x - r) + r: breakpoints move by r, shifts stay."""
    moved = [((p.value + r) % 1, c) for p, c in zip(s.breakpoints, s.shifts)]
    moved.sort()
    return itm_cls(tuple(p for p, _ in moved), tuple(c for _, c in moved))


class Sweep:
    """Acceptance-sweep maps: attractor, measure, conjugacy, recurrence.

    Map cost is heavy-tailed (one map in a hundred costs twenty typical
    ones), so a pool drawn afresh per seed moved throughput by more than
    the bound between seeds.  The map structures therefore come from a
    fixed base draw, and the seed conjugates each one by a random rotation
    of its own grid and picks the recurrence sample points.  A rotation
    moves every breakpoint and the cut at 0 but keeps the dynamics, so the
    cost mix stays the same across seeds while every input number changes.
    """

    name = "sweep"
    pool_size = 64
    warmup = 2
    pieces = (2, 5)
    max_q = 512
    iem_samples = 128
    recurrence_samples = 20

    def __init__(self, mods, seed: int, workdir: str):
        self.mods = mods
        base, rng = _rng(self.name, "base"), _rng(self.name, seed)
        self.pool = []
        lo, hi = self.pieces
        for i in range(self.pool_size):
            n = lo + i % (hi - lo + 1)
            s = mods.catalog.random_itm(base, n, base.randint(2 * n, self.max_q))
            q = s.common_denominator()
            s = _rotated(mods.itm.Itm, s, Fraction(rng.randrange(q), q))
            self.pool.append((s, rng.randrange(2**32)))

    def run(self, i: int):
        m = self.mods
        s, recurrence_seed = self.pool[i % len(self.pool)]
        att = s.attractor()
        ok = att.finite_type is m.itm.FiniteType.YES and all(
            inner.is_subset_of(outer)
            for outer, inner in zip(att.iterates, att.iterates[1:])
        )
        mu = m.measure.attractor_measure(s, att)
        residual = m.measure.invariance_residual_exact(s, mu)
        data = m.conjugacy.induce_iem(s, mu, samples=self.iem_samples)
        q = s.common_denominator()
        recs = m.measure.find_recurrent_points(
            s, mu, eps=Fraction(1, q), horizon=q * q,
            samples=self.recurrence_samples, rng=random.Random(recurrence_seed),
        )
        ok = ok and residual == 0 and data.report.all_ok and data.clean_samples
        return (OK if ok else FAILED), (att, mu, residual, data, recs)

    @staticmethod
    def digest(out) -> str:
        att, mu, residual, data, recs = out
        return "|".join((
            f"{att.stabilized_at}:{att.attractor!r}",
            _measure_text(mu),
            str(residual),
            f"{list(map(str, data.induced.breakpoints))}->{list(map(str, data.induced.shifts))}",
            str(data.report.all_ok),
            ",".join(f"{r.time}" for r in recs),
        ))


class Orbits:
    """Birkhoff empirical measures of affine circle maps from prime-denominator starts."""

    name = "orbits"
    pool_size = 256
    warmup = 2
    pieces = (2, 4)
    max_q = 64
    orbit_length = 3000

    def __init__(self, mods, seed: int, workdir: str):
        self.mods = mods
        rng = _rng(self.name, seed)
        self.pool = []
        lo, hi = self.pieces
        for i in range(self.pool_size):
            n = lo + i % (hi - lo + 1)
            s = mods.catalog.random_itm(rng, n, rng.randint(n, self.max_q))
            x0 = Fraction(rng.randrange(1, ORBIT_PRIME), ORBIT_PRIME)
            self.pool.append((mods.piecewise.from_itm(s), x0))
        self.lebesgue = mods.measure.Measure.lebesgue()

    def run(self, i: int):
        m = self.mods
        t, x0 = self.pool[i % len(self.pool)]
        emp = m.piecewise.empirical_measure(t, x0, self.orbit_length)
        verified = emp.verify_defect()
        closed = emp.next_point == emp.base_point
        expected = Fraction(0) if closed else Fraction(2, self.orbit_length)
        distance = m.measure.cdf_distance(emp.measure, self.lebesgue)
        ok = verified and emp.defect == expected
        return (OK if ok else FAILED), (emp, verified, distance)

    @staticmethod
    def digest(out) -> str:
        emp, verified, distance = out
        return "|".join((
            _measure_text(emp.measure), str(emp.next_point), str(emp.defect),
            str(verified), str(distance),
        ))


class Approx:
    """Generic irrational targets approximated along Fibonacci bounds, with budgets.

    Per-target cost spans more than a decade (budget-exhausted levels cost
    most), and a fresh draw of targets per seed moved p50 by half between
    seeds.  The targets' leading digits, which fix every approximant level,
    therefore come from a fixed base draw; the seed adds an offset below
    1e-20 to each parameter, so the relations search and the limit check
    read new target numbers while the levels, and the cost mix, stay put.
    """

    name = "approx"
    pool_size = 80
    warmup = 2
    pieces = (2, 3)
    relation_depth = 16
    denominators = (21, 34, 55, 89, 144, 233, 377)
    max_iter = 48
    max_arcs = 24
    convergence_tol = Fraction(1, 100)
    trig_degree = 8
    jitter = Fraction(1, 10**20)

    def __init__(self, mods, seed: int, workdir: str):
        self.mods = mods
        base, rng = _rng(self.name, "base"), _rng(self.name, seed)
        self.pool = []
        lo, hi = self.pieces
        for i in range(self.pool_size):
            n = lo + i % (hi - lo + 1)
            breakpoints = sorted({_irrational(base) for _ in range(n)})
            while len(breakpoints) < n:
                breakpoints = sorted(set(breakpoints) | {_irrational(base)})
            shifts = [_irrational(base) for _ in range(n)]
            jitter = [self.jitter * Fraction(rng.randrange(10**6), 10**6) for _ in range(2 * n)]
            self.pool.append(mods.itm.Itm(
                tuple(b + d for b, d in zip(breakpoints, jitter)),
                tuple(c + d for c, d in zip(shifts, jitter[n:])),
            ))
        self.family = mods.families.TrigFamily(self.trig_degree)

    def run(self, i: int):
        m = self.mods
        a = m.approx
        target = self.pool[i % len(self.pool)]
        relations = a.detect_relations(target, self.relation_depth)
        try:
            schedule = a.generate_approximants(
                target, relations=relations, denominators=self.denominators
            )
        except a.OrderViolation as exc:
            return REPLACED, exc
        collisions = a.orbit_collision_preservation(schedule)
        levels = a.measure_sequence(
            schedule, max_iter=self.max_iter, max_arcs=self.max_arcs
        )
        mus = [lm.measure for lm in levels if lm.measure is not None]
        convergence = (
            a.detect_convergence(mus, self.convergence_tol) if len(mus) >= 2 else None
        )
        limit = (
            a.verify_limit_measure(target, mus[-1], family=self.family) if mus else None
        )
        ok = collisions.all_pass
        for level in schedule.levels:
            bps = [b.value for b in level.map.breakpoints]
            for rel in relations:
                ok = ok and rel.residual(bps, level.map.shifts).denominator == 1
        for lm in levels:
            if lm.measure is not None:
                ok = ok and lm.measure.total_mass == 1 and (
                    m.measure.invariance_residual_exact(lm.map, lm.measure) == 0
                )
        return (OK if ok else FAILED), (relations, levels, convergence, limit)

    @staticmethod
    def digest(out) -> str:
        if isinstance(out, Exception):
            return f"replaced:{out}"
        relations, levels, convergence, limit = out
        parts = [f"relations={len(relations)}"]
        for lm in levels:
            body = _measure_text(lm.measure) if lm.measure is not None else f"error:{lm.error}"
            parts.append(f"{lm.bound}:{_map_text(lm.map)}:{body}")
        if convergence is not None:
            parts.append(f"conv={list(map(str, convergence.distances))}:{convergence.cauchy_from}")
        if limit is not None:
            parts.append(f"limit={list(map(str, limit.masses))}:{limit.residual!r}")
        return "|".join(parts)


def _itm_json(s) -> dict:
    return {
        "breakpoints": [str(p.value) for p in s.breakpoints],
        "shifts": [str(c) for c in s.shifts],
    }


def _exchange(rng: random.Random, pieces: int, q: int) -> dict:
    """A random interval exchange on the 1/q grid: Lebesgue measure is invariant."""
    cuts = sorted(rng.sample(range(1, q), pieces - 1))
    starts = [0] + cuts
    lengths = [b - a for a, b in zip(starts, cuts + [q])]
    order = list(range(pieces))
    while order == sorted(order):
        rng.shuffle(order)
    new_start, pos = {}, 0
    for j in order:
        new_start[j] = pos
        pos += lengths[j]
    return {
        "breakpoints": [str(Fraction(a, q)) for a in starts],
        "shifts": [str(Fraction((new_start[j] - starts[j]) % q, q)) for j in range(pieces)],
    }


class Cli:
    """Every subcommand through cli.main on generated configs, with --out and --plot."""

    name = "cli"
    commands = (
        "validate", "attractor", "measure", "homtervals", "relations",
        "approximate", "conjugate", "empirical", "verify-limit",
    )
    configs = 64
    warmup = len(commands)
    max_q = 48
    # the last bound is at least the target's denominator, so the last level
    # is the target itself and stabilizes within the budgets below
    approx_denominators = [5, 8, 13, 21]
    lebesgue = {"density": [{"arc": {"start": "0", "length": "1"}, "weight": "1"}]}

    def __init__(self, mods, seed: int, workdir: str):
        self.mods = mods
        rng = _rng(self.name, seed)
        self.pool = []
        for k in range(self.configs):
            n = 2 + k % 3
            s = _random_map(mods.catalog, rng, n, rng.randint(2 * n, self.max_q))
            q = rng.randint(10, 20)
            target = {
                "breakpoints": ["0", str(Fraction(rng.randint(q * 3 // 10, q * 7 // 10), q))],
                "shifts": [str(Fraction(rng.randrange(q), q)) for _ in range(2)],
            }
            per_command = {
                "validate": {"map": _itm_json(s)},
                "attractor": {"map": _itm_json(s)},
                "measure": {"map": _itm_json(s)},
                "homtervals": {"map": _itm_json(s), "depth": 8},
                "relations": {"map": _itm_json(s), "depth": 8},
                "approximate": {
                    "target": target, "denominators": self.approx_denominators,
                    "maxIter": 32, "maxArcs": 24, "tol": "1/100",
                },
                "conjugate": {"map": _itm_json(s), "samples": 256},
                "empirical": {
                    "map": _itm_json(s), "m": 1000,
                    "x0": str(Fraction(rng.randrange(1, ORBIT_PRIME), ORBIT_PRIME)),
                    "epsilons": ["1/8", "1/64"], "orbitLengths": [100, 1000],
                },
                "verify-limit": {
                    "map": _exchange(rng, 3, rng.randint(8, 64)),
                    "measure": self.lebesgue,
                    "family": {"kind": "trig", "degree": 8},
                },
            }
            for command in self.commands:
                stem = f"{command}-{k}"
                path = os.path.join(workdir, f"{stem}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(per_command[command], fh)
                # item i runs command i % 9 on config set i // 9
                self.pool.append((command, path, os.path.join(workdir, stem)))

    def run(self, i: int):
        command, config, out = self.pool[i % len(self.pool)]
        argv = [command, "--config", config, "--out", out, "--plot"]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self.mods.cli.main(argv)
        if code != 0:
            return FAILED, (command, code, stderr.getvalue())
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        report.pop("generatedAt", None)
        return OK, (command, code, report)

    @staticmethod
    def digest(out) -> str:
        command, code, body = out
        if isinstance(body, dict):
            body = json.dumps(body, sort_keys=True)
        return f"{command}:{code}:{body}"


WORKLOADS = {w.name: w for w in (Sweep, Orbits, Approx, Cli)}
