"""Each demo script runs to completion against the library in src/, leaves
its temporary directory empty and writes nothing into demos/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def snapshot(directory: Path) -> dict:
    """Each file's name with its modification time, so rewrites show too."""
    return {p.name: p.stat().st_mtime_ns for p in directory.iterdir()}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path):
    before = snapshot(demo.parent)
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "PYTHONPATH": src if not path else src + os.pathsep + path,
        "TMPDIR": str(tmp_path),
    }
    done = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert list(tmp_path.iterdir()) == []
    assert snapshot(demo.parent) == before
