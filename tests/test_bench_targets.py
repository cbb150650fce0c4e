"""The benchmark tracer's targets still name functions of the program.

bench/tracer.py wraps each (layer, module, attribute) of its TARGETS by
looking the attribute up in the module's or the class's own namespace; a
target that was renamed or deleted would first fail there, at bench time.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_tracer_targets_resolve():
    missing = []
    for layer, modname, attr in _targets():
        module = importlib.import_module(modname)
        if "." in attr:
            cls_name, name = attr.split(".")
            space = vars(getattr(module, cls_name, object))  # the class's own
        else:
            name, space = attr, vars(module)
        if not callable(space.get(name)):
            missing.append(f"{layer}: {modname}.{attr}")
    assert not missing
