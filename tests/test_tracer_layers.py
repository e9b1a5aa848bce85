"""The benchmark's tracer wraps program functions by the names the program
calls them by; every one of those names must still resolve."""

import importlib
import os
import runpy

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def test_every_traced_layer_resolves():
    layers = runpy.run_path(TRACER)["LAYERS"]
    assert layers
    for name, module, attr, _ in layers:
        assert callable(getattr(importlib.import_module(module), attr)), name
