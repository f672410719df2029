"""The benchmark's tracer wraps library functions by name, and
`perfbench/tracing.py` `install` fails on a name the library no longer
has, so every name it lists must resolve."""

import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                       "tracing.py")


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for layer, attrs in tracing.TRACED.items():
        mod = importlib.import_module("spiderweb." + layer)
        for attr in attrs:
            obj = mod
            for part in attr.split("."):
                assert hasattr(obj, part), "spiderweb.%s.%s" % (layer, attr)
                obj = getattr(obj, part)
            assert callable(obj), "spiderweb.%s.%s" % (layer, attr)
