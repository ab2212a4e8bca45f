"""The benchmark tracer wraps library functions by name; a renamed or inlined
function would silently read as a 0-second layer.  Fail here instead."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_name_resolves():
    layers = _layers()
    assert {"cli.write_csv", "sde.distance"} <= set(layers)
    for layer, (modname, paths) in layers.items():
        assert modname.startswith("detcouple."), layer
        for path in paths:
            owner = importlib.import_module(modname)
            for name in path.split("."):
                assert hasattr(owner, name), f"{layer}: {modname}.{path} is gone"
                owner = getattr(owner, name)
            assert callable(owner), f"{layer}: {modname}.{path} is not callable"
