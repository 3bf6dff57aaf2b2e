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


def test_hooked_results_keep_their_shape():
    """The traced run's hooks read results, not just names: kernel.max_atoms
    is the length of compile_program's atom list, the decide hook reads
    ``nodes`` and ``max_depth`` from the stats dict, and the to_cl4o hook
    counts ``.steps``."""
    from cl4kit.calculus import to_cl4o
    from cl4kit.decide import decide_blindfree
    from cl4kit.kernel import compile_program
    from cl4kit.syntax import parse

    program, atoms = compile_program(parse("(p(1) -> q) /\\ (T \\/ q) -> ~r \\/ p(1) \\/ F \\/ r"))
    assert isinstance(program, list) and all(type(op) is int for op in program)
    assert atoms == [parse("p(1)"), parse("q"), parse("r")]
    stats: dict = {}
    decision = decide_blindfree(parse("P -> P"), stats=stats)
    assert type(stats["nodes"]) is int and stats["nodes"] > 0
    assert type(stats["max_depth"]) is int and stats["max_depth"] > 0
    assert len(to_cl4o(decision.proof).steps) > 0
