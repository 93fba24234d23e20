"""The benchmark's tracer still finds every name it rebinds in the library.

perfbench/tracing.py wraps itmlib functions and methods by name, so a
refactor that deletes or renames one of them breaks the traced benchmark
run.  This test installs the tracer on the itmlib modules already imported
and takes it off again, without re-importing the library.
"""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

from itmlib.catalog import half_collapse

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
LAYERS = (
    "circle", "itm", "measure", "families", "conjugacy", "approx",
    "piecewise", "serialize", "plots", "cli",
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def library_state() -> dict:
    """Every module attribute and class attribute of the loaded itmlib."""
    state = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "itmlib" or name.startswith("itmlib.")):
            continue
        for key, value in vars(mod).items():
            state[name, key] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    state[name, key, attr] = member
    return state


def test_tracer_installs_and_uninstalls_on_the_loaded_library():
    mods = SimpleNamespace(**{m: importlib.import_module(f"itmlib.{m}") for m in LAYERS})
    before = library_state()
    tracer = load_tracing().Tracer()
    try:
        tracer.install(mods)
        original = before["itmlib.itm", "Itm", "attractor"]
        assert mods.itm.Itm.__dict__["attractor"] is not original
        tracer.begin_item(0)
        res = half_collapse().attractor()
        # the sweep item's nesting check, a traced ArcSet method
        nested = res.iterates[1].is_subset_of(res.iterates[0])
        tracer.end_item()
    finally:
        tracer.uninstall()
    assert res.stabilized_at == 1 and nested
    assert tracer.calls_of("itm.attractor") == 1
    assert tracer.calls_of("circle.arcset") > 0
    after = library_state()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
