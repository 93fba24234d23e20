"""End-to-end command runs: exit codes, report contents, artifacts."""

import contextlib
import copy
import io
import json
import re
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itmlib import cli, conjugacy, measure
from itmlib.catalog import golden_mean
from itmlib.cli import _MAX_STEPS, COMMANDS, main
from itmlib.plots import cdf_svg, density_svg
from itmlib.serialize import cdf_csv, measure_from_json


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = None
    if captured.out.strip().startswith("{"):
        report = json.loads(captured.out)
    return code, report, captured.err


DATA = Path(__file__).resolve().parent / "data"


def undated(path):
    """A report's lines without its generatedAt line."""
    lines = path.read_bytes().split(b"\n")
    return [line for line in lines if b'"generatedAt"' not in line]
HALF_COLLAPSE = {"breakpoints": ["0", "1/2"], "shifts": ["0", "1/2"]}
HALVING = {
    "domain": "segment",
    "pieces": [{"interval": ["0", "1"], "affine": {"a": "1/2", "b": "0"}}],
    "boundaryValues": {"0": "1"},
}


class TestValidate:
    def test_valid_itm(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"map": HALF_COLLAPSE})
        code, report, _ = run(capsys, "validate", "--config", cfg)
        assert code == 0
        assert report["valid"] is True
        assert report["kind"] == "itm"
        assert report["commonDenominator"] == 2

    def test_unsorted_breakpoints_name_the_index(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"breakpoints": ["1/2", "1/4"], "shifts": ["0", "0"]}
        )
        code, _, err = run(capsys, "validate", "--config", cfg)
        assert code == 1
        assert "index 1" in err

    def test_valid_piecewise(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"map": HALVING})
        code, report, _ = run(capsys, "validate", "--config", cfg)
        assert code == 0
        assert report["kind"] == "piecewise"
        assert report["discontinuities"] == ["0"]

    def test_unreadable_config(self, tmp_path, capsys):
        code, _, err = run(capsys, "validate", "--config", str(tmp_path / "no.json"))
        assert code == 1
        assert "cannot read config" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        code, _, err = run(capsys, "validate", "--config", str(path))
        assert code == 1
        assert "not valid JSON" in err


class TestAttractor:
    def test_half_collapse_stabilizes_at_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"map": HALF_COLLAPSE})
        code, report, _ = run(capsys, "attractor", "--config", cfg)
        assert code == 0
        assert report["finiteType"] == "yes"
        assert report["stabilizedAt"] == 1
        assert report["attractor"] == {
            "arcs": [{"start": "0", "length": "1/2"}]
        }

    def test_an_arc_through_0_counts_once(self, tmp_path, capsys):
        # both halves land on [3/4, 1/4), which the cut at 0 splits in two
        cfg = write_config(tmp_path, {"breakpoints": ["0", "1/2"], "shifts": ["3/4", "1/4"]})
        code, report, _ = run(capsys, "attractor", "--config", cfg)
        assert code == 0
        assert report["attractor"] == {"arcs": [{"start": "3/4", "length": "1/2"}]}
        assert report["arcCount"] == 1

    def test_exhausted_iteration_budget_is_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"map": HALF_COLLAPSE})
        code, _, err = run(capsys, "attractor", "--config", cfg, "--max-iter", "1")
        assert code == 2
        assert "itm.attractor" in err

    def test_plot_artifact(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"map": HALF_COLLAPSE})
        out = tmp_path / "out"
        code, _, _ = run(
            capsys, "attractor", "--config", cfg, "--out", str(out), "--plot"
        )
        assert code == 0
        assert (out / "report.json").exists()
        svg = (out / "attractor.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


class TestMeasure:
    def test_half_collapse_measure(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"map": HALF_COLLAPSE})
        out = tmp_path / "out"
        code, report, _ = run(capsys, "measure", "--config", cfg, "--out", str(out))
        assert code == 0
        assert report["invarianceResidualExact"] == "0"
        assert report["nonAtomic"] is True
        assert report["measure"]["density"] == [
            {"arc": {"start": "0", "length": "1/2"}, "weight": "2"}
        ]
        assert (out / "cdf.csv").read_text().startswith("x,F(x)\n")

    def test_reports_are_deterministic_modulo_timestamp(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"map": HALF_COLLAPSE})
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(capsys, "measure", "--config", cfg, "--out", str(out), "--plot")
            text = (out / "report.json").read_text()
            outputs.append(
                "\n".join(
                    line
                    for line in text.splitlines()
                    if '"generatedAt"' not in line
                )
            )
        assert outputs[0] == outputs[1]
        assert (tmp_path / "a" / "density.svg").read_bytes() == (
            tmp_path / "b" / "density.svg"
        ).read_bytes()


class TestHomtervals:
    def test_rational_rotation_has_periodic_domains(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"breakpoints": ["0"], "shifts": ["1/3"]})
        code, report, _ = run(
            capsys, "homtervals", "--config", cfg, "--depth", "3"
        )
        assert code == 0
        assert report["genericity"] == "not generic"
        assert len(report["homtervals"]) == 3
        assert all(h["resolved"] for h in report["homtervals"])


class TestRelations:
    def test_rotation_return_relation(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"breakpoints": ["0"], "shifts": ["1/3"]})
        code, report, _ = run(capsys, "relations", "--config", cfg, "--depth", "3")
        assert code == 0
        (rel,) = report["relations"]
        assert (rel["i"], rel["j"], rel["l"], rel["w"]) == (0, 0, [3], 1)
        assert rel["residual"] == "0"

    def test_witnesses_past_the_budget_exit_two(self, tmp_path, capsys):
        # at depth 8000 this map's witnesses would hold about 23M steps
        cfg = write_config(tmp_path, {"breakpoints": ["0", "1/2"], "shifts": ["1/3", "1/4"]})
        code, report, err = run(capsys, "relations", "--config", cfg, "--depth", "8000")
        assert code == 2
        assert report is None
        assert err.strip() == (
            "relations: relation witnesses at depth 8000 exceed the budget "
            "of 1048576 itinerary steps"
        )


class TestApproximate:
    def test_golden_rotation_levels_all_lebesgue(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "target": {
                    "breakpoints": ["0"],
                    "shifts": [str(golden_mean())],
                },
                "denominators": [2, 3, 5, 8, 13, 21],
            },
        )
        code, report, _ = run(
            capsys, "approximate", "--config", cfg, "--tol", "0"
        )
        assert code == 0
        assert len(report["levels"]) == 6
        lebesgue = [{"arc": {"start": "0", "length": "1"}, "weight": "1"}]
        for level in report["levels"]:
            assert level["measure"]["density"] == lebesgue
        conv = report["convergence"]
        assert conv["cauchyFrom"] == 0
        assert conv["limitCandidate"]["density"] == lebesgue

    def test_levels_flag_truncates(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "target": {"breakpoints": ["0"], "shifts": [str(golden_mean())]},
                "denominators": [2, 3, 5, 8],
            },
        )
        code, report, _ = run(
            capsys, "approximate", "--config", cfg, "--levels", "2"
        )
        assert code == 0
        assert [lvl["bound"] for lvl in report["levels"]] == [2, 3]

    def test_contradictory_relations_are_a_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "target": {"breakpoints": ["0", "1/2"], "shifts": ["1/3", "1/4"]},
                "declaredRelations": [{"i": 1, "j": 0, "l": [1, 0], "w": 0}],
                "denominators": [4],
            },
        )
        code, _, err = run(capsys, "approximate", "--config", cfg)
        assert code == 1
        assert "generate_approximants" in err


class TestConjugate:
    def test_half_collapse_induces_the_identity(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"map": HALF_COLLAPSE})
        out = tmp_path / "out"
        code, report, _ = run(
            capsys, "conjugate", "--config", cfg, "--out", str(out), "--plot"
        )
        assert code == 0
        assert report["induced"] == {"breakpoints": ["0"], "shifts": ["0"]}
        assert report["verification"]["lengthsOk"] is True
        assert report["verification"]["overlapLength"] == "0"
        assert report["semiConjugacy"]["clean"] is True
        assert (out / "conjugacy.csv").read_text().startswith("x,h(x)\n")
        assert (out / "h.svg").exists()

    def test_failing_certificate_is_exit_three_naming_the_cell(
        self, tmp_path, capsys, monkeypatch
    ):
        cell = (Fraction(1, 8), Fraction(1, 4))
        monkeypatch.setattr(conjugacy, "_semiconjugacy_failure", lambda *_: cell)
        cfg = write_config(tmp_path, {"map": HALF_COLLAPSE})
        code, report, err = run(capsys, "conjugate", "--config", cfg)
        assert code == 3
        assert report is None
        assert err.count("\n") == 1
        assert "(1/8,1/4)" in err
        assert "semiconjugacy_failure" in err

    def test_report_and_artifacts_match_the_stored_ones(self, tmp_path, capsys):
        # report.json, conjugacy.csv and h.svg as the sampled check wrote
        # them, before the certificate gave the verdict; the report is
        # compared without its generatedAt line
        stored = DATA / "conjugate_gaps"
        out = tmp_path / "out"
        code, _, _ = run(
            capsys, "conjugate", "--config", str(stored / "config.json"),
            "--out", str(out), "--plot",
        )
        assert code == 0

        assert undated(out / "report.json") == undated(stored / "report.json")
        for name in ("conjugacy.csv", "h.svg"):
            assert (out / name).read_bytes() == (stored / name).read_bytes()

    def test_conjugate_builds_no_samples(self, tmp_path, capsys, monkeypatch):
        # the table, the CSV and the report read h's integer rows: no sample
        # object and no h(x) query per grid point
        built = Counter()

        def sample(*args):
            built["samples"] += 1
            return original_sample(*args)

        def at(self, x):
            built["at"] += 1
            return original_at(self, x)

        original_sample, original_at = conjugacy.SemiConjugacySample, measure.Cdf.at
        monkeypatch.setattr(conjugacy, "SemiConjugacySample", sample)
        monkeypatch.setattr(measure.Cdf, "at", at)
        config = DATA / "conjugate_gaps" / "config.json"
        assert json.loads(config.read_text())["samples"] == 128
        code, report, _ = run(
            capsys, "conjugate", "--config", str(config), "--out", str(tmp_path), "--plot"
        )
        assert code == 0 and report["semiConjugacy"]["samples"] == 128
        assert (tmp_path / "conjugacy.csv").read_text().count("\n") == 129
        assert built == Counter()

    def test_non_invariant_supplied_measure_is_exit_three(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "map": HALF_COLLAPSE,
                "measure": {
                    "density": [
                        {"arc": {"start": "0", "length": "1"}, "weight": "1"}
                    ],
                    "atoms": [],
                },
            },
        )
        code, _, err = run(capsys, "conjugate", "--config", cfg)
        assert code == 3
        assert "induce_iem" in err


class TestEmpirical:
    def test_halving_orbit_report(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "map": HALVING,
                "x0": "1",
                "m": 64,
                "epsilons": ["1/4", "1/32"],
                "wandering": {"radii": ["1/8"], "horizon": 3},
            },
        )
        out = tmp_path / "out"
        code, report, _ = run(
            capsys, "empirical", "--config", cfg, "--out", str(out)
        )
        assert code == 0
        assert report["defect"] == "1/32"
        assert report["defectVerified"] is True
        assert report["visitFrequency"]["verdict"] == "violated"
        (probe,) = report["wandering"]
        assert probe["verdict"] == "return found"
        assert probe["returnTime"] == 1
        assert (out / "visit-frequency.csv").read_text().startswith("m,eps,f\n")

    @pytest.mark.parametrize("config, walks", [
        # a slope-1 orbit closes, so its walk serves every orbit length
        ({"map": {"breakpoints": ["0", "1/2"], "shifts": ["1/4", "1/2"]}, "x0": "1/7",
          "m": 100, "orbitLengths": [10, 1000]}, 1),
        # the halving orbit from 1/3 never closes: its walk of m points
        # serves lengths below m, and a longer one takes a walk of its own
        ({**HALVING, "x0": "1/3", "m": 64, "orbitLengths": [8, 63]}, 1),
        ({**HALVING, "x0": "1/3", "m": 64, "orbitLengths": [8, 64]}, 2),
    ])
    def test_empirical_walks_each_orbit_once(self, tmp_path, capsys, monkeypatch, config, walks):
        piecewise = sys.modules["itmlib.piecewise"]
        walk, called = piecewise._walk, []

        def counted(*args):
            called.append(args)
            return walk(*args)

        monkeypatch.setattr(piecewise, "_walk", counted)
        config = {**config, "epsilons": ["1/8", "1/64"]}
        code, report, _ = run(capsys, "empirical", "--config", write_config(tmp_path, config))
        assert code == 0 and len(report["visitFrequency"]["entries"]) == 4
        assert len(called) == walks

    def test_orbit_from_the_discontinuity_is_exit_three(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"map": HALVING, "x0": "0", "m": 4})
        code, _, err = run(capsys, "empirical", "--config", cfg)
        assert code == 3
        assert "piecewise.orbit" in err

    def test_missing_start_is_drawn_from_the_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"map": HALVING, "m": 4})
        code_a, report_a, _ = run(
            capsys, "empirical", "--config", cfg, "--seed", "7"
        )
        code_b, report_b, _ = run(
            capsys, "empirical", "--config", cfg, "--seed", "7"
        )
        assert code_a == code_b == 0
        assert report_a["config"]["x0"] == report_b["config"]["x0"]
        assert report_a["basePoint"] == report_a["config"]["x0"]


class TestVerifyLimit:
    def test_lebesgue_under_rotation_passes(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "map": {"breakpoints": ["0"], "shifts": ["1/4"]},
                "measure": {
                    "density": [
                        {"arc": {"start": "0", "length": "1"}, "weight": "1"}
                    ],
                    "atoms": [],
                },
            },
        )
        code, report, _ = run(capsys, "verify-limit", "--config", cfg)
        assert code == 0
        assert report["massOk"] is True
        assert report["residualOk"] is True
        assert report["failures"] == []

    def test_dirac_at_the_discontinuity_fails(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "map": HALVING,
                "measure": {
                    "density": [],
                    "atoms": [{"point": "0", "mass": "1"}],
                },
                "family": {"kind": "polynomial", "degree": 1},
            },
        )
        code, _, err = run(capsys, "verify-limit", "--config", cfg)
        assert code == 3
        assert "verify_limit_measure" in err

    def test_lebesgue_under_the_tent_map_has_zero_residual(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "map": {
                    "domain": "segment",
                    "pieces": [
                        {"interval": ["0", "1/2"], "affine": {"a": "2", "b": "0"}},
                        {"interval": ["1/2", "1"], "affine": {"a": "-2", "b": "2"}},
                    ],
                },
                "measure": LEBESGUE,
            },
        )
        code, report, _ = run(capsys, "verify-limit", "--config", cfg)
        assert code == 0
        assert report["residual"] == 0.0
        assert report["failures"] == []

    def test_a_flat_piece_is_exit_three(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "map": {
                    "domain": "segment",
                    "pieces": [
                        {"interval": ["0", "1/2"], "affine": {"a": "0", "b": "1/4"}},
                        {"interval": ["1/2", "1"], "affine": {"a": "1", "b": "0"}},
                    ],
                },
                "measure": LEBESGUE,
            },
        )
        code, _, err = run(capsys, "verify-limit", "--config", cfg)
        assert code == 3
        assert "residual exceeds tolerance" in err

    def test_unknown_family_kind_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "map": HALVING,
                "measure": {"density": [], "atoms": [{"point": "0", "mass": "1"}]},
                "family": {"kind": "splines"},
            },
        )
        code, _, err = run(capsys, "verify-limit", "--config", cfg)
        assert code == 1
        assert "family" in err


FLOAT_MAX = int(sys.float_info.max)


def density_of(start, length, weight) -> dict:
    return {"density": [{"arc": {"start": start, "length": length}, "weight": weight}]}


LEBESGUE = density_of("0", "1", "1")
QUARTER_ROTATION_LIMIT = {
    "map": {"breakpoints": ["0"], "shifts": ["1/4"]},
    "measure": LEBESGUE,
}
HALVING_ORBIT = {"map": HALVING, "x0": "1", "m": 64}

MALFORMED = {
    # name: (command, config, the key or field the message must name)
    "family-as-string": (
        "verify-limit", {**QUARTER_ROTATION_LIMIT, "family": "trig"}, "family"
    ),
    "tol-residual-junk": (
        "verify-limit", {**QUARTER_ROTATION_LIMIT, "tolResidual": "abc"}, "tolResidual"
    ),
    "tol-residual-inf": (
        "verify-limit", {**QUARTER_ROTATION_LIMIT, "tolResidual": "inf"}, "tolResidual"
    ),
    "tol-residual-nan": (
        "verify-limit", {**QUARTER_ROTATION_LIMIT, "tolResidual": "nan"}, "tolResidual"
    ),
    "tol-residual-negative": (
        "verify-limit", {**QUARTER_ROTATION_LIMIT, "tolResidual": -1}, "tolResidual"
    ),
    "tol-residual-boolean": (
        "verify-limit", {**QUARTER_ROTATION_LIMIT, "tolResidual": True}, "tolResidual"
    ),
    "density-start-overflow": (
        "verify-limit",
        {**QUARTER_ROTATION_LIMIT, "measure": density_of("1e999", "1", "1")},
        "density start",
    ),
    "density-length-overflow": (
        "verify-limit",
        {**QUARTER_ROTATION_LIMIT, "measure": density_of("0", "1e999", "1")},
        "density length",
    ),
    "density-length-negative": (
        "verify-limit",
        {
            **QUARTER_ROTATION_LIMIT,
            "measure": {"density": [
                *LEBESGUE["density"],
                {"arc": {"start": "1/2", "length": "-1/4"}, "weight": "5"},
            ]},
        },
        "measure",
    ),
    "density-length-zero": (
        "verify-limit",
        {
            **QUARTER_ROTATION_LIMIT,
            "measure": {"density": [
                *LEBESGUE["density"],
                {"arc": {"start": "1/2", "length": "0"}, "weight": "5"},
            ]},
        },
        "measure",
    ),
    "density-weight-overflow": (
        "verify-limit",
        {**QUARTER_ROTATION_LIMIT, "measure": density_of("0", "1", "1e999")},
        "measure",
    ),
    "density-weight-beyond-floats": (
        "verify-limit",
        {
            **QUARTER_ROTATION_LIMIT,
            "measure": density_of("0", "1/1" + "0" * 400, "1" + "0" * 400),
        },
        "float range",
    ),
    # x -> x/2 doubles the weight, which then leaves the float range
    "image-weight-beyond-floats": (
        "verify-limit",
        {"map": HALVING, "measure": density_of("0", f"1/{FLOAT_MAX}", str(FLOAT_MAX))},
        "float range",
    ),
    "increasing-deltas": (
        "verify-limit", {**QUARTER_ROTATION_LIMIT, "deltas": ["1/8", "1/4"]}, "deltas"
    ),
    "non-probability-measure": (
        "conjugate",
        {
            "map": HALF_COLLAPSE,
            "measure": {
                "density": [{"arc": {"start": "0", "length": "1/2"}, "weight": "1"}]
            },
        },
        "measure",
    ),
    "epsilons-as-string": (
        "empirical", {**HALVING_ORBIT, "epsilons": "1/8"}, "epsilons"
    ),
    "zero-wandering-radius": (
        "empirical",
        {**HALVING_ORBIT, "wandering": {"radii": ["0"], "horizon": 3}},
        "radii",
    ),
    "x0-junk": ("empirical", {**HALVING_ORBIT, "x0": "abc"}, "x0"),
    "orbit-lengths-junk": (
        "empirical",
        {**HALVING_ORBIT, "epsilons": ["1/8"], "orbitLengths": "x"},
        "orbitLengths",
    ),
    "retired-cycle-budget": (
        "measure", {"map": HALF_COLLAPSE, "cycleBudget": 4096}, "cycleBudget"
    ),
    "breakpoints-as-string": (
        "validate", {"breakpoints": "0", "shifts": ["0"]}, "breakpoints"
    ),
    "relations-for-declared-relations": (
        "approximate",
        {
            "target": {"breakpoints": ["0"], "shifts": ["1/3"]},
            "denominators": [2, 3],
            "relations": [],
        },
        "relations",
    ),
    # Python would read t_{-1} as the last breakpoint, and t_3 does not exist
    "relation-index-negative": (
        "approximate",
        {
            "target": {"breakpoints": ["0", "1/2"], "shifts": ["1/3", "1/5"]},
            "declaredRelations": [{"i": -1, "j": 1, "l": [0, 0], "w": 0}],
            "denominators": [8, 13],
        },
        "'declaredRelations'",
    ),
    "relation-index-past-the-pieces": (
        "approximate",
        {
            "target": {"breakpoints": ["0", "1/2"], "shifts": ["1/3", "1/5"]},
            "declaredRelations": [{"i": 0, "j": 3, "l": [0, 0], "w": 0}],
            "denominators": [8, 13],
        },
        "'declaredRelations'",
    ),
    "unknown-key": ("attractor", {"map": HALF_COLLAPSE, "maxIters": 5}, "maxIters"),
    "known-key-of-another-command": (
        "validate", {"map": HALF_COLLAPSE, "depth": 3}, "depth"
    ),
    "missing-measure": ("verify-limit", {"map": HALVING}, "measure"),
    "fractional-integer": (
        "attractor", {"map": HALF_COLLAPSE, "maxIter": 1.5}, "maxIter"
    ),
    "boolean-integer": ("homtervals", {"map": HALF_COLLAPSE, "depth": True}, "depth"),
    "null-x0": ("empirical", {**HALVING_ORBIT, "x0": None}, "x0"),
    "m-over-budget": ("empirical", {**HALVING_ORBIT, "m": _MAX_STEPS + 1}, "'m'"),
    "orbit-length-over-budget": (
        "empirical",
        {**HALVING_ORBIT, "epsilons": ["1/8"], "orbitLengths": [4, _MAX_STEPS + 1]},
        "orbitLengths",
    ),
    "depth-over-budget-relations": (
        "relations", {"map": HALF_COLLAPSE, "depth": _MAX_STEPS + 1}, "'depth'"
    ),
    "depth-over-budget-homtervals": (
        "homtervals", {"map": HALF_COLLAPSE, "depth": _MAX_STEPS + 1}, "'depth'"
    ),
    "samples-over-budget": (
        "conjugate", {"map": HALF_COLLAPSE, "samples": _MAX_STEPS + 1}, "samples"
    ),
    "wandering-horizon-over-budget": (
        "empirical",
        {**HALVING_ORBIT, "wandering": {"radii": ["1/8"], "horizon": _MAX_STEPS + 1}},
        "horizon",
    ),
    "deltas-empty": ("verify-limit", {**QUARTER_ROTATION_LIMIT, "deltas": []}, "'deltas'"),
    "deltas-negative": (
        "verify-limit", {**QUARTER_ROTATION_LIMIT, "deltas": ["1/4", "-1/8"]}, "'deltas'"
    ),
    # the JSON parsers check the kind of every list and object they read
    "relation-counts-as-string": (
        "approximate",
        {
            "target": {"breakpoints": ["0", "1/2"], "shifts": ["1/3", "1/5"]},
            "declaredRelations": [{"i": 0, "j": 0, "l": "00", "w": 0}],
            "denominators": [8, 13],
        },
        "'l' must be a list",
    ),
    "relation-index-float": (
        "approximate",
        {
            "target": {"breakpoints": ["0", "1/2"], "shifts": ["1/3", "1/5"]},
            "declaredRelations": [{"i": 0.7, "j": 0, "l": [0, 0], "w": 0}],
            "denominators": [8, 13],
        },
        "'i' must be an integer",
    ),
    "relation-winding-boolean": (
        "approximate",
        {
            "target": {"breakpoints": ["0", "1/2"], "shifts": ["1/3", "1/5"]},
            "declaredRelations": [{"i": 0, "j": 0, "l": [0, 0], "w": True}],
            "denominators": [8, 13],
        },
        "'w' must be an integer",
    ),
    "relation-count-float": (
        "approximate",
        {
            "target": {"breakpoints": ["0", "1/2"], "shifts": ["1/3", "1/5"]},
            "declaredRelations": [{"i": 0, "j": 0, "l": [1.9, 0], "w": 0}],
            "denominators": [8, 13],
        },
        "'l' must be an integer",
    ),
    "shifts-as-string": (
        "validate", {"breakpoints": ["0"], "shifts": "7"}, "'shifts' must be a list"
    ),
    "density-as-string": (
        "conjugate",
        {"map": HALF_COLLAPSE, "measure": {"density": "x"}},
        "'density' must be a list",
    ),
    "atoms-as-object": (
        "verify-limit",
        {**QUARTER_ROTATION_LIMIT, "measure": {"atoms": {"point": "0", "mass": "1"}}},
        "'atoms' must be a list",
    ),
    "density-arc-as-list": (
        "verify-limit",
        {
            **QUARTER_ROTATION_LIMIT,
            "measure": {"density": [{"arc": ["0", "1"], "weight": "1"}]},
        },
        "'arc' must be a JSON object",
    ),
    "piece-as-list": (
        "validate",
        {"map": {"domain": "segment", "pieces": [["0", "1"]]}},
        "'pieces' must list JSON objects",
    ),
    "interval-of-one-value": (
        "validate",
        {"map": {"domain": "segment", "pieces": [{**HALVING["pieces"][0], "interval": ["0"]}]}},
        "'interval' must list two values",
    ),
    "boundary-values-as-list": (
        "validate", {"map": {**HALVING, "boundaryValues": [["0", "1"]]}}, "'boundaryValues'"
    ),
    "discontinuities-as-string": (
        "validate", {"map": {**HALVING, "discontinuities": "0"}}, "'discontinuities'"
    ),
    "wandering-radii-as-string": (
        "empirical",
        {**HALVING_ORBIT, "wandering": {"radii": "1/8", "horizon": 3}},
        "'radii' must be a list",
    ),
    "wandering-horizon-float": (
        "empirical",
        {**HALVING_ORBIT, "wandering": {"radii": ["1/8"], "horizon": 3.5}},
        "'horizon' must be an integer",
    ),
    "family-degree-float": (
        "verify-limit",
        {**QUARTER_ROTATION_LIMIT, "family": {"kind": "trig", "degree": 2.5}},
        "'degree' must be an integer",
    ),
    "family-degree-over-budget": (
        "verify-limit",
        {**QUARTER_ROTATION_LIMIT, "family": {"kind": "trig", "degree": _MAX_STEPS + 1}},
        "'family'",
    ),
}


class TestParserReuse:
    def test_one_parser_serves_successive_calls(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"map": HALF_COLLAPSE})
        codes = [
            main(["validate", "--config", cfg]),
            main(["attractor", "--config", cfg]),
        ]
        capsys.readouterr()
        codes.append(main([]))
        err = capsys.readouterr().err
        assert codes == [0, 0, 1]
        assert cli._parser() is cli._parser()
        assert err.startswith(cli._parser.__wrapped__().format_usage())


class TestExitCodeContract:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_config_exits_one_naming_the_key(self, name, tmp_path, capsys):
        command, payload, key = MALFORMED[name]
        cfg = write_config(tmp_path, payload)
        code, report, err = run(capsys, command, "--config", cfg)
        assert code == 1
        assert report is None
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert key in err

    @pytest.mark.parametrize(
        "command, payload, message",
        [
            (
                "empirical",
                {**HALVING_ORBIT, "wandering": {"radii": ["1/8"]}},
                "empirical: 'wandering': missing key 'horizon'",
            ),
            (
                "validate",
                {"map": {"domain": "segment", "pieces": [{"interval": ["0", "1"]}]}},
                "validate: 'map': missing key 'affine'",
            ),
        ],
    )
    def test_a_missing_nested_key_is_named(self, command, payload, message, tmp_path, capsys):
        cfg = write_config(tmp_path, payload)
        code, report, err = run(capsys, command, "--config", cfg)
        assert code == 1
        assert report is None
        assert err.strip() == message

    def test_library_errors_exit_one_naming_their_origin(self, tmp_path, capsys):
        # t_0 - t_0 = c_0 fails at the target, whose shift is 1/3
        cfg = write_config(
            tmp_path,
            {
                "target": {"breakpoints": ["0"], "shifts": ["1/3"]},
                "declaredRelations": [{"i": 0, "j": 0, "l": [1], "w": 0}],
                "denominators": [2],
            },
        )
        code, _, err = run(capsys, "approximate", "--config", cfg)
        assert code == 1
        assert "(approx." in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "entry, reason",
        [
            ({"i": 0, "j": 3, "l": [0, 0], "w": 0}, "relation indices outside the piece range"),
            ({"i": 0, "j": 1, "l": [0, -1], "w": 0}, "visit counts must be nonnegative"),
            ({"i": 0, "j": 1, "l": [0, 0]}, "missing key 'w'"),
            ({"i": 0, "j": 1, "l": "01", "w": 0}, "'l' must be a list"),
            ({"i": 0, "j": 1.0, "l": [0, 0], "w": 0}, "'j' must be an integer: 1.0"),
        ],
    )
    def test_refused_relation_states_its_reason(self, entry, reason, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "target": {"breakpoints": ["0", "1/2"], "shifts": ["1/3", "1/5"]},
                "declaredRelations": [entry],
                "denominators": [8, 13],
            },
        )
        code, report, err = run(capsys, "approximate", "--config", cfg)
        assert code == 1
        assert report is None
        assert err.strip() == (
            f"approximate: 'declaredRelations': bad relation entry {entry!r}: {reason}"
        )

    def test_huge_decimal_exponent_is_refused_at_once(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"breakpoints": ["0"], "shifts": ["1e999999999"]})
        start = time.perf_counter()
        code, _, err = run(capsys, "validate", "--config", cfg)
        assert code == 1
        assert "'map': shift: decimal exponent" in err
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--config", "{cfg}", "--depth", "3"],
            ["attractor", "--config", "{cfg}", "--levels", "2"],
            ["verify-limit", "--config", "{cfg}", "--seed", "1"],
            ["attractor"],
            ["attractor", "--config", "{cfg}", "--max-iter", "abc"],
            ["attractor", "--config", "{cfg}", "--max-iter", "0"],
            ["approximate", "--config", "{cfg}", "--tol", "-1/2"],
            ["no-such-command", "--config", "{cfg}"],
            [],
            ["validate", "--config", "{cfg}", "--out", "{cfg}"],
        ],
    )
    def test_usage_errors_return_one(self, argv, tmp_path, capsys):
        cfg = write_config(tmp_path, {"map": HALF_COLLAPSE})
        code, report, err = run(capsys, *(a.format(cfg=cfg) for a in argv))
        assert code == 1
        assert report is None
        assert "Traceback" not in err

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["attractor", "--help"])
        assert exc.value.code == 0
        assert "--max-iter" in capsys.readouterr().out

    def test_each_subcommand_takes_only_the_flags_it_reads(self, capsys):
        flags = {}
        for name in COMMANDS:
            with pytest.raises(SystemExit):
                main([name, "--help"])
            flags[name] = sorted(set(re.findall(r"--[a-z-]+", capsys.readouterr().out)))
        common = ["--config", "--help", "--out", "--plot"]
        reads = {
            "validate": [],
            "attractor": ["--max-arcs", "--max-iter"],
            "measure": ["--max-arcs", "--max-iter"],
            "homtervals": ["--depth"],
            "relations": ["--depth"],
            "approximate": ["--levels", "--max-arcs", "--max-iter", "--tol"],
            "conjugate": [],
            "empirical": ["--seed"],
            "verify-limit": ["--tol"],
        }
        assert flags == {name: sorted(common + r) for name, r in reads.items()}

    def test_tol_flag_overrides_tol_mass_for_verify_limit(self, tmp_path, capsys):
        cfg = write_config(tmp_path, QUARTER_ROTATION_LIMIT)
        code, report, _ = run(capsys, "verify-limit", "--config", cfg, "--tol", "1/7")
        assert code == 0
        assert report["config"]["tolMass"] == "1/7"

    def test_seed_is_read_from_the_config(self, tmp_path, capsys):
        by_flag = write_config(tmp_path, {"map": HALVING, "m": 4}, "flag.json")
        by_key = write_config(tmp_path, {"map": HALVING, "m": 4, "seed": 7}, "key.json")
        _, flag_report, _ = run(capsys, "empirical", "--config", by_flag, "--seed", "7")
        _, key_report, _ = run(capsys, "empirical", "--config", by_key)
        assert key_report["config"] == flag_report["config"]
        assert key_report["config"]["seed"] == 7

    def test_conjugacy_failures_keep_exit_three(self, tmp_path, capsys):
        atomic = {"density": [], "atoms": [{"point": "0", "mass": "1"}]}
        cfg = write_config(tmp_path, {"map": HALF_COLLAPSE, "measure": atomic})
        code, _, err = run(capsys, "conjugate", "--config", cfg)
        assert code == 3
        assert "non-atomic" in err


VALID = {
    "validate": HALVING,
    "attractor": {"map": HALF_COLLAPSE, "maxIter": 8},
    "measure": {"breakpoints": ["0", "1/2"], "shifts": ["1/3", "1/4"]},
    "homtervals": {"breakpoints": ["0"], "shifts": ["1/3"], "depth": 3},
    "relations": {"map": {"breakpoints": ["0"], "shifts": ["1/3"]}, "depth": 3},
    "approximate": {
        "breakpoints": ["0"],
        "shifts": [str(golden_mean())],
        "denominators": [2, 3, 5],
    },
    "conjugate": {"map": HALF_COLLAPSE, "samples": 64},
    "empirical": {
        "map": HALVING,
        "m": 16,
        "epsilons": ["1/4"],
        "wandering": {"radii": ["1/8"], "horizon": 3},
    },
    "verify-limit": {
        **QUARTER_ROTATION_LIMIT,
        "deltas": ["1/512", "1/1024"],
        "family": {"kind": "trig", "degree": 8},
    },
}


def without_timestamp(report):
    return {k: v for k, v in report.items() if k != "generatedAt"}


@pytest.mark.parametrize("command", sorted(VALID))
def test_report_config_round_trips(command, tmp_path, capsys):
    first = write_config(tmp_path, VALID[command], "first.json")
    code, report, _ = run(capsys, command, "--config", first)
    assert code == 0
    again = write_config(tmp_path, report["config"], "again.json")
    code_again, report_again, _ = run(capsys, command, "--config", again)
    assert code_again == code
    assert without_timestamp(report_again) == without_timestamp(report)


MUTATIONS = [None, "", "x", "1/0", "1e999", [], {}, -1, 0, True, 1.5, 10**9]
NESTED = ("map", "measure", "wandering", "family", "target")


def leaf_paths(value, path=()) -> list:
    """The key paths to every leaf inside nested dicts and lists."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return [path]
    return [p for k, v in items for p in leaf_paths(v, path + (k,))]


@settings(max_examples=200)
@given(data=st.data())
def test_mutated_configs_keep_the_exit_code_contract(data):
    command = data.draw(st.sampled_from(sorted(VALID)))
    config = copy.deepcopy(VALID[command])
    table = {k.name for k in COMMANDS[command][1:] if not k.flag_only}
    keys = sorted(set(config) | table)
    nested = [p for k in NESTED if k in config for p in leaf_paths(config[k], (k,))]
    actions = ["drop", "add", "set"] + (["nest"] if nested else [])
    action = data.draw(st.sampled_from(actions))
    if action == "drop":
        config.pop(data.draw(st.sampled_from(sorted(config))))
    elif action == "add":
        config["notAKey"] = data.draw(st.sampled_from(MUTATIONS))
    elif action == "set":
        config[data.draw(st.sampled_from(keys))] = data.draw(st.sampled_from(MUTATIONS))
    else:
        *parents, leaf = data.draw(st.sampled_from(nested))
        inner = config
        for k in parents:
            inner = inner[k]
        inner[leaf] = data.draw(st.sampled_from(MUTATIONS))
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path)])
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in err.getvalue()


# the command behind each stored run under data/artifacts
STORED_RUNS = {
    "attractor_through_0": "attractor",
    "measure_through_0": "measure",
    "approximate": "approximate",
    "empirical_atoms_at_ends": "empirical",
}


class TestStoredArtifacts:
    """Every artifact the commands write, byte for byte as an earlier
    renderer wrote it: SVGs and CSVs drawn from a Fraction per value, now
    from the integer rows."""

    def test_the_stored_runs_cover_every_command_writing_a_chart_or_table(self):
        assert sorted(p.name for p in (DATA / "artifacts").iterdir()) == sorted(STORED_RUNS)
        names = {p.name for case in STORED_RUNS for p in (DATA / "artifacts" / case).iterdir()}
        assert names >= {
            "attractor.svg", "cdf.csv", "density.svg", "cdf.svg", "limit-cdf.svg",
            "empirical-cdf.svg", "visit-frequency.csv",
        }

    @pytest.mark.parametrize("case", sorted(STORED_RUNS))
    def test_report_and_artifacts_match_the_stored_ones(self, case, tmp_path, capsys):
        stored = DATA / "artifacts" / case
        code, _, _ = run(
            capsys, STORED_RUNS[case], "--config", str(stored / "config.json"),
            "--out", str(tmp_path), "--plot",
        )
        assert code == 0
        assert undated(tmp_path / "report.json") == undated(stored / "report.json")
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == sorted(p.name for p in stored.iterdir() if p.name != "config.json")
        for name in written:
            if name != "report.json":
                assert (tmp_path / name).read_bytes() == (stored / name).read_bytes(), name

    @pytest.mark.parametrize("case", ["atoms_on_cuts", "sub_ulp_atom"])
    def test_measure_charts_match_the_stored_ones(self, case):
        # atoms at 0, on a density cut and at 1; and an atom of mass 10^-20
        # on Lebesgue measure, whose jump the floats of F cannot see
        stored = DATA / "renderers" / case
        mu = measure_from_json(json.loads((stored / "measure.json").read_text()))
        renderers = {"cdf.csv": cdf_csv, "cdf.svg": cdf_svg, "density.svg": density_svg}
        for name, render in renderers.items():
            assert render(mu) == (stored / name).read_text(encoding="utf-8"), name
