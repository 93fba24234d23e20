"""
Driving the toolkit from the command line
=========================================

Every pipeline stage is also a subcommand of the `itmlib` console script.
Configs are JSON with rationals written as strings like "1/3"; reports
are JSON on stdout, deterministic except for their timestamp; artifacts
(CSV tables, SVG plots) land in the --out directory.  This script runs
the same entry point in process, so the printed output is exactly what
the shell command would produce.
"""

import json
import tempfile
from pathlib import Path

from itmlib.cli import main

with tempfile.TemporaryDirectory(prefix="itmlib-demo-") as tmp:
    work = Path(tmp)

    # itmlib attractor --config map.json
    cfg = work / "map.json"
    cfg.write_text(json.dumps({
        "map": {"breakpoints": ["0", "1/2"], "shifts": ["1/3", "1/4"]}
    }), encoding="utf-8")
    print("$ itmlib attractor --config map.json")
    main(["attractor", "--config", str(cfg)])

    # itmlib measure --config map.json --out out/ --plot
    # writes report.json, cdf.csv, and density.svg into out/.
    out = work / "out"
    print("\n$ itmlib measure --config map.json --out out --plot")
    main(["measure", "--config", str(cfg), "--out", str(out), "--plot"])
    print("artifacts:", sorted(p.name for p in out.iterdir()))

    # itmlib empirical --config orbit.json
    # Orbit statistics for the halving map: exact defect, visit frequencies,
    # and a wandering probe around the discontinuity.
    orbit_cfg = work / "orbit.json"
    orbit_cfg.write_text(json.dumps({
        "map": {
            "domain": "segment",
            "pieces": [{"interval": ["0", "1"], "affine": {"a": "1/2", "b": "0"}}],
            "boundaryValues": {"0": "1"},
        },
        "x0": "1",
        "m": 64,
        "epsilons": ["1/4", "1/32"],
    }), encoding="utf-8")
    print("\n$ itmlib empirical --config orbit.json")
    main(["empirical", "--config", str(orbit_cfg)])

    # Config and usage errors exit 1 with a one-line message naming the
    # config key at fault; verification failures exit 3.  Exit codes arrive
    # as the return value here and as the process status in the shell.
    bad = work / "bad.json"
    bad.write_text(json.dumps({
        "map": {"breakpoints": ["1/2", "1/4"], "shifts": ["0", "0"]}
    }), encoding="utf-8")
    print("\n$ itmlib validate --config bad.json")
    code = main(["validate", "--config", str(bad)])
    print("exit code:", code)
