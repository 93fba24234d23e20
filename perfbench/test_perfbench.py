"""Tiny runs of every workload: metric names and units, corruption detection.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import FAILED, WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _result(capsys, *argv):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, capsys, tmp_path):
    common = ["--workload", workload, "--seed", "7", "--seconds", "0.3"]

    lines, result = _result(capsys, *common, "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith("failed_ratio = 0.0 ratio") for line in lines)

    spans = tmp_path / "spans.jsonl"
    lines, result = _result(capsys, *common, "--trace", "1", "--spans", str(spans))
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert any("untraced pass agrees" in line for line in lines)
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    assert len(records) == result["metrics"]["trace.spans"]["value"]
    assert {"id", "name", "start", "end", "parent", "item"} <= set(records[0])


def _perturb_density(measure_cls, mu):
    (lo, hi, w), *rest = mu.density
    return measure_cls(((lo, hi, w * 2), *rest), mu.atoms)


def _corrupt_sweep(mods, monkeypatch):
    original = mods.measure.attractor_measure
    monkeypatch.setattr(
        mods.measure, "attractor_measure",
        lambda *a, **k: _perturb_density(mods.measure.Measure, original(*a, **k)),
    )


def _corrupt_orbits(mods, monkeypatch):
    original = mods.piecewise.empirical_measure

    def corrupted(*a, **k):
        emp = original(*a, **k)
        (p, m), *rest = emp.measure.atoms
        return dataclasses.replace(
            emp, measure=mods.measure.Measure((), ((p, m * 2), *rest))
        )

    monkeypatch.setattr(mods.piecewise, "empirical_measure", corrupted)


def _corrupt_approx(mods, monkeypatch):
    original = mods.approx.measure_sequence

    def corrupted(*a, **k):
        levels = list(original(*a, **k))
        for idx, lm in enumerate(levels):
            if lm.measure is not None:
                levels[idx] = dataclasses.replace(
                    lm, measure=_perturb_density(mods.measure.Measure, lm.measure)
                )
                break
        return tuple(levels)

    monkeypatch.setattr(mods.approx, "measure_sequence", corrupted)


def _corrupt_cli(mods, monkeypatch):
    original = mods.cli.attractor_measure
    monkeypatch.setattr(
        mods.cli, "attractor_measure",
        lambda *a, **k: _perturb_density(mods.measure.Measure, original(*a, **k)),
    )


CORRUPTIONS = {
    # workload: (items to run, how to corrupt one exact result)
    "sweep": (3, _corrupt_sweep),
    "orbits": (3, _corrupt_orbits),
    "approx": (3, _corrupt_approx),
    "cli": (9, _corrupt_cli),
}


@pytest.mark.parametrize("workload", sorted(CORRUPTIONS))
def test_corrupted_result_fails_and_changes_digest(workload, monkeypatch, tmp_path):
    items, corrupt = CORRUPTIONS[workload]
    clean, _ = run.set_up(workload, 7, str(tmp_path))
    baseline = run.run_pass(clean, count=items)
    again = run.run_pass(run.set_up(workload, 7, str(tmp_path))[0], count=items)
    assert baseline.failed == 0 and baseline.attempted >= 1
    assert again.digest == baseline.digest

    bad, _ = run.set_up(workload, 7, str(tmp_path))
    corrupt(bad.mods, monkeypatch)
    corrupted = run.run_pass(bad, count=items)
    assert corrupted.failed >= 1
    assert corrupted.digest != baseline.digest


def test_failed_check_is_counted_without_aborting(tmp_path):
    workload, _ = run.set_up("orbits", 7, str(tmp_path))
    outcomes = iter([(FAILED, None), ValueError("boom")])

    class Flaky:
        warmup = 0
        mods = workload.mods

        @staticmethod
        def run(i):
            step = next(outcomes, None)
            if isinstance(step, Exception):
                raise step
            return step if step is not None else workload.run(i)

        digest = staticmethod(lambda out: "" if out is None else workload.digest(out))

    result = run.run_pass(Flaky, count=3)
    assert (result.attempted, result.failed) == (3, 2)


def test_tracer_restores_the_library(tmp_path):
    workload, _ = run.set_up("sweep", 7, str(tmp_path))
    mods = workload.mods
    before = (mods.measure.attractor_measure, mods.cli.invariance_residual_exact,
              mods.circle.ArcSet.__dict__["from_segments"])
    tracer = run.Tracer()
    tracer.install(mods)
    assert mods.cli.invariance_residual_exact is mods.conjugacy.invariance_residual_exact
    assert mods.cli.invariance_residual_exact is not before[1]
    tracer.uninstall()
    after = (mods.measure.attractor_measure, mods.cli.invariance_residual_exact,
             mods.circle.ArcSet.__dict__["from_segments"])
    assert after == before


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert sorted(p.name for p in Path(tmp_path).iterdir()) == ["BENCHMARK.json", "perfbench"]
