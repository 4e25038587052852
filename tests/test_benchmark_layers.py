"""The per-layer metric names of ``BENCHMARK.json`` against the package.

``perfbench/run.py --trace 1`` reads ``<layer>.<function>.<stat>`` from
the spans of the public functions that ``vacpol.<layer>`` itself defines;
a name whose function became a re-export from another module would read
0 there without failing.  This test fails instead.
"""

import importlib
import json
import pathlib

import pytest

_BENCHMARK = pathlib.Path(__file__).resolve().parents[1] / "BENCHMARK.json"
# order classes of the wrapped Bessel calls, not functions of their own
_SYNTHETIC = ("bessel_half_int", "bessel_general")


def _function_names():
    names = []
    for metric in json.loads(_BENCHMARK.read_text())["per_layer"]:
        layer, _, rest = metric["name"].partition(".")
        function = rest.rpartition(".")[0]
        # a roll-up <layer>.<stat> names no function, and neither do the
        # harness counters tracer.* and quadrature.evals*
        if function and layer != "tracer" and function not in _SYNTHETIC:
            if (layer, function) not in names:
                names.append((layer, function))
    return names


_NAMES = _function_names()


@pytest.mark.parametrize("layer, function", _NAMES, ids=[".".join(n) for n in _NAMES])
def test_per_layer_function_is_defined_in_its_layer(layer, function):
    module = importlib.import_module(f"vacpol.{layer}")
    value = getattr(module, function, None)
    assert callable(value), f"vacpol.{layer} has no function {function}"
    assert value.__module__ == f"vacpol.{layer}", (
        f"vacpol.{layer}.{function} is defined in {value.__module__}; its per-layer "
        "figures would be traced under that module and read 0 here"
    )
