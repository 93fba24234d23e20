"""Span recorder that wraps itmlib's public functions from outside the package.

Nothing under ``src/`` knows about tracing.  ``Tracer.install`` rebinds each
wrapped function in every loaded ``itmlib`` module namespace that holds it
(``invariance_residual_exact``, for one, is also bound in ``conjugacy`` and
``cli``), and replaces wrapped methods on their classes.  ``uninstall`` puts
the originals back, so an untraced pass runs the unmodified library.

A span holds a name, start, end, parent span and item id.  Spans live in
flat arrays while the run lasts and are written out only on request.  A
span's self time (``busy_s``) is its duration minus the time its child spans
cover; counts are read from arguments and return values at the same
boundaries, after the span's clock has stopped, and the time spent reading
them is charged to no span.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from array import array
from time import perf_counter

ROOT_SPAN = "item"


def _bits(q: int) -> int:
    return q.bit_length()


class Tracer:
    """Records spans and counts for the wrappers it installs."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("l")
        self.parent = array("l")
        self.item = array("l")
        self.busy: dict[int, float] = {}
        self.calls: dict[int, int] = {}
        self.counts: dict[str, float] = {}
        self.maxes: dict[str, int] = {}
        self._stack: list[list] = []
        self._item_id = -1
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.busy[nid] = 0.0
            self.calls[nid] = 0
        return nid

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def high(self, name: str, value: int) -> None:
        if value > self.maxes.get(name, 0):
            self.maxes[name] = value

    def calls_of(self, name: str) -> int:
        return self.calls[self._id(name)]

    def _open(self, nid: int) -> list:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.item.append(self._item_id)
        self.end.append(0.0)
        frame = [idx, 0.0, perf_counter()]
        self.start.append(frame[2])
        self._stack.append(frame)
        return frame

    def _close(self, nid: int, frame: list, t1: float) -> None:
        self._stack.pop()
        self.end[frame[0]] = t1
        self.busy[nid] += (t1 - frame[2]) - frame[1]
        self.calls[nid] += 1

    def _charge_parent(self, frame: list) -> None:
        # the parent's self time excludes this span and its count hooks
        if self._stack:
            self._stack[-1][1] += perf_counter() - frame[2]

    def begin_item(self, item_id: int) -> None:
        self._item_id = item_id
        self._root = self._open(self._id(ROOT_SPAN))

    def end_item(self) -> None:
        self._close(self._id(ROOT_SPAN), self._root, perf_counter())
        self._item_id = -1

    def wrap(self, name: str, fn, before=None, after=None):
        """A traced stand-in for fn, recording one span per call.

        before(args, kwargs) returns a state handed to
        after(state, args, kwargs, result, error), which reads counts.
        """
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            frame = tracer._open(nid)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                tracer._close(nid, frame, perf_counter())
                if after is not None:
                    after(state, args, kwargs, result, error)
                tracer._charge_parent(frame)

        return traced

    # -- installing --------------------------------------------------------

    def _rebind_function(self, module, attr: str, name: str, **hooks) -> None:
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "itmlib" or mod_name.startswith("itmlib.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, original))

    def _rebind_method(self, cls, attr: str, name: str, **hooks) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapper = classmethod(self.wrap(name, original.__func__, **hooks))
        else:
            wrapper = self.wrap(name, original, **hooks)
        setattr(cls, attr, wrapper)
        self._restore.append((cls, attr, original))

    def install(self, mods) -> None:
        """Wrap the public functions and methods of every itmlib layer."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        fn, meth = self._rebind_function, self._rebind_method

        def arcs_high(state, args, kwargs, result, error):
            target = result if result is not None else args[0]
            arcs = getattr(target, "arcs", None)
            if arcs is not None:
                self.high("circle.arcs.max", len(arcs))

        arcset = mods.circle.ArcSet
        for attr in ("__init__", "from_segments", "intersect", "union",
                     "complement", "translate", "is_subset_of"):
            meth(arcset, attr, "circle.arcset", after=arcs_high)

        def attractor_counts(state, args, kwargs, result, error):
            s = args[0]
            self.high("itm.attractor.q_bits_max", _bits(s.common_denominator()))
            if result is None:
                return
            self.count("itm.attractor.iterations", len(result.iterates))
            self.high("itm.attractor.arcs_max", max(len(a) for a in result.iterates))
            if result.stabilized_at is not None:
                self.count("itm.attractor.stabilized")

        def one_sided_steps(state, args, kwargs, result, error):
            if result is not None:
                self.count("itm.evaluate_one_sided.steps", len(result.itinerary))

        itm_cls = mods.itm.Itm
        meth(itm_cls, "attractor", "itm.attractor", after=attractor_counts)
        meth(itm_cls, "image", "itm.image")
        meth(itm_cls, "preimage", "itm.preimage")
        meth(itm_cls, "evaluate", "itm.evaluate")
        meth(itm_cls, "evaluate_one_sided", "itm.evaluate_one_sided", after=one_sided_steps)

        def atoms_in(state, args, kwargs, result, error):
            atoms = args[2] if len(args) > 2 else kwargs.get("atoms", ())
            if hasattr(atoms, "__len__"):
                self.count("measure.Measure.atoms_in", len(atoms))

        def pushforwards(args, kwargs):
            return self.calls_of("measure.pushforward")

        def cycle_used(state, args, kwargs, result, error):
            # one pushforward checks the uniform start; more mean a cycle search
            if result is not None and self.calls_of("measure.pushforward") - state > 1:
                self.count("measure.attractor_measure.cycles")

        def recurrence_found(state, args, kwargs, result, error):
            if result is not None:
                self.count("measure.recurrence.samples", len(result))
                self.count("measure.recurrence.found", sum(1 for r in result if r.found))

        measure = mods.measure
        meth(measure.Measure, "__init__", "measure.Measure", after=atoms_in)
        fn(measure, "attractor_measure", "measure.attractor_measure",
           before=pushforwards, after=cycle_used)
        for attr in ("pushforward", "tv_distance", "cdf_distance",
                     "invariance_residual_exact"):
            fn(measure, attr, f"measure.{attr}")
        fn(measure, "find_recurrent_points", "measure.find_recurrent_points",
           after=recurrence_found)

        def preimages(args, kwargs):
            return self.calls_of("itm.preimage")

        def cells(state, args, kwargs, result, error):
            self.count("conjugacy.verify_iem.cells", self.calls_of("itm.preimage") - state)

        fn(mods.conjugacy, "induce_iem", "conjugacy.induce_iem")
        fn(mods.conjugacy, "verify_iem", "conjugacy.verify_iem",
           before=preimages, after=cells)

        approx = mods.approx

        def relations(state, args, kwargs, result, error):
            if result is not None:
                self.count("approx.relations.count", len(result))

        def order_violation(state, args, kwargs, result, error):
            if isinstance(error, approx.OrderViolation):
                self.count("approx.order_violations")

        def levels(state, args, kwargs, result, error):
            if result is None:
                return
            self.count("approx.levels.count", len(result))
            self.count("approx.levels.measured",
                       sum(1 for lm in result if lm.measure is not None))
            for lm in result:
                self.high("approx.levels.q_bits_max", _bits(lm.map.common_denominator()))

        fn(approx, "detect_relations", "approx.detect_relations", after=relations)
        fn(approx, "generate_approximants", "approx.generate_approximants",
           after=order_violation)
        for attr in ("orbit_collision_preservation", "detect_convergence",
                     "verify_limit_measure"):
            fn(approx, attr, f"approx.{attr}")
        fn(approx, "measure_sequence", "approx.measure_sequence", after=levels)

        fn(mods.families, "invariance_residual_functional",
           "families.invariance_residual_functional")

        def orbit_counts(state, args, kwargs, result, error):
            if result is not None:
                self.count("piecewise.orbit.steps", len(result))
                self.high("piecewise.orbit.q_bits_max",
                          max(_bits(p.denominator) for p in result))

        def distinct_atoms(state, args, kwargs, result, error):
            if result is not None:
                self.count("piecewise.atoms.distinct", len(result.measure.atoms))

        piecewise = mods.piecewise
        fn(piecewise, "orbit", "piecewise.orbit", after=orbit_counts)
        fn(piecewise, "empirical_measure", "piecewise.empirical_measure", after=distinct_atoms)
        fn(piecewise, "visit_frequency", "piecewise.visit_frequency")
        meth(piecewise.EmpiricalMeasure, "verify_defect", "piecewise.verify_defect")

        for layer in ("serialize", "plots"):
            module = getattr(mods, layer)
            for attr, value in sorted(vars(module).items()):
                if (callable(value) and not attr.startswith("_")
                        and getattr(value, "__module__", None) == module.__name__
                        and not isinstance(value, type)):
                    fn(module, attr, layer)

        def cli_outcome(state, args, kwargs, result, error):
            if result != 0:
                self.count("cli.exit_nonzero")
            argv = args[0] if args else kwargs.get("argv") or []
            if "--out" in argv:
                report = os.path.join(argv[argv.index("--out") + 1], "report.json")
                if os.path.exists(report):
                    self.count("cli.report_bytes", os.path.getsize(report))

        fn(mods.cli, "main", "cli.main", after=cli_outcome)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics from the recorded spans and counts."""
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            nid = self._id(name)
            out[f"{name}.calls"] = (self.calls[nid], "count")
            out[f"{name}.busy_s"] = (self.busy[nid], "s")
        c, m = self.counts.get, self.maxes.get

        def ratio(num: str, den: float) -> float:
            return c(num, 0) / den if den else 0.0

        attractors = self.calls_of("itm.attractor")
        levels = c("approx.levels.count", 0)
        out.update({
            "circle.arcs.max": (m("circle.arcs.max", 0), "count"),
            "itm.attractor.iterations": (c("itm.attractor.iterations", 0), "count"),
            "itm.attractor.arcs_max": (m("itm.attractor.arcs_max", 0), "count"),
            "itm.attractor.q_bits_max": (m("itm.attractor.q_bits_max", 0), "bits"),
            "itm.attractor.stabilized_ratio": (ratio("itm.attractor.stabilized", attractors), "ratio"),
            "itm.evaluate_one_sided.steps": (c("itm.evaluate_one_sided.steps", 0), "count"),
            "measure.Measure.atoms_in": (c("measure.Measure.atoms_in", 0), "count"),
            "measure.attractor_measure.cycle_ratio": (
                ratio("measure.attractor_measure.cycles",
                      self.calls_of("measure.attractor_measure")), "ratio"),
            "measure.recurrence.found_ratio": (
                ratio("measure.recurrence.found", c("measure.recurrence.samples", 0)), "ratio"),
            "conjugacy.verify_iem.cells": (c("conjugacy.verify_iem.cells", 0), "count"),
            "approx.relations.count": (c("approx.relations.count", 0), "count"),
            "approx.levels.count": (levels, "count"),
            "approx.levels.measured_ratio": (ratio("approx.levels.measured", levels), "ratio"),
            "approx.levels.q_bits_max": (m("approx.levels.q_bits_max", 0), "bits"),
            "approx.order_violations": (c("approx.order_violations", 0), "count"),
            "piecewise.orbit.steps": (c("piecewise.orbit.steps", 0), "count"),
            "piecewise.orbit.q_bits_max": (m("piecewise.orbit.q_bits_max", 0), "bits"),
            "piecewise.atoms.distinct": (c("piecewise.atoms.distinct", 0), "count"),
            "cli.exit_nonzero": (c("cli.exit_nonzero", 0), "count"),
            "cli.report_bytes": (c("cli.report_bytes", 0), "bytes"),
        })
        return out

    def ratio_bases(self) -> dict[str, str]:
        """The denominator behind each ratio, for the human-readable report."""
        c = self.counts.get
        return {
            "itm.attractor.stabilized_ratio": f"{self.calls_of('itm.attractor')} attractor calls",
            "measure.attractor_measure.cycle_ratio":
                f"{self.calls_of('measure.attractor_measure')} attractor measures",
            "measure.recurrence.found_ratio":
                f"{int(c('measure.recurrence.samples', 0))} sampled points",
            "approx.levels.measured_ratio": f"{int(c('approx.levels.count', 0))} levels",
        }

    def write_spans(self, path) -> int:
        """Write every span as one JSON line; returns the number written."""
        with open(path, "w", encoding="utf-8") as fh:
            for k in range(len(self.start)):
                fh.write(json.dumps({
                    "id": k,
                    "name": self.names[self.name_id[k]],
                    "start": self.start[k],
                    "end": self.end[k],
                    "parent": self.parent[k],
                    "item": self.item[k],
                }) + "\n")
        return len(self.start)


SPAN_NAMES = (
    "circle.arcset",
    "itm.attractor",
    "itm.image",
    "itm.preimage",
    "itm.evaluate",
    "itm.evaluate_one_sided",
    "measure.Measure",
    "measure.attractor_measure",
    "measure.pushforward",
    "measure.tv_distance",
    "measure.cdf_distance",
    "measure.invariance_residual_exact",
    "measure.find_recurrent_points",
    "conjugacy.induce_iem",
    "conjugacy.verify_iem",
    "approx.detect_relations",
    "approx.generate_approximants",
    "approx.orbit_collision_preservation",
    "approx.measure_sequence",
    "approx.detect_convergence",
    "approx.verify_limit_measure",
    "families.invariance_residual_functional",
    "piecewise.orbit",
    "piecewise.empirical_measure",
    "piecewise.verify_defect",
    "piecewise.visit_frequency",
    "serialize",
    "plots",
    "cli.main",
)
