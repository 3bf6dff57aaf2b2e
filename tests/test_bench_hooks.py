"""The benchmark's traced run wraps cl4kit functions by module and name
(``perfbench/spans.py`` ``LAYER_FUNCTIONS``); a renamed or moved function
makes it fail.  This guards those names without running the benchmark."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _layer_functions():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, name) for module, name, _ in spans.LAYER_FUNCTIONS]


LAYER_FUNCTIONS = _layer_functions()


@pytest.mark.parametrize(
    "module, name", LAYER_FUNCTIONS, ids=[f"{m}.{n}" for m, n in LAYER_FUNCTIONS]
)
def test_layer_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))
