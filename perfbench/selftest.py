"""Self-test of the benchmark: the independent evaluator, the generators
that decide-wide builds its answers from, and one short run of every
workload through all of its output checks.

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

The name does not start with ``test_`` so that the repository's own test
command does not collect it; the short runs take about half a minute.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import qfeval  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from cl4kit.classical import elementarize, tautology_qf  # noqa: E402
from cl4kit.syntax import parse  # noqa: E402

TAUTOLOGIES = [
    "p \\/ ~p",
    "p -> p",
    "((p -> q) -> p) -> p",
    "(p -> q) -> (~q -> ~p)",
    "p /\\ q -> p",
    "p -> (q -> p)",
    "(p -> (q -> r)) -> ((p -> q) -> (p -> r))",
    "~(p /\\ ~p)",
    "T",
    "F -> p",
]
NON_TAUTOLOGIES = [
    "p",
    "p -> q",
    "(p -> q) -> (q -> p)",
    "p \\/ q",
    "p /\\ ~p",
    "F",
    "(p -> q) -> (~p -> ~q)",
]


def test_evaluator_classical():
    for text in TAUTOLOGIES:
        assert qfeval.is_tautology(parse(text)), text
    for text in NON_TAUTOLOGIES:
        assert not qfeval.is_tautology(parse(text)), text
    f = parse("(p -> q) -> r")
    assert qfeval.evaluate(f, {"p": True, "q": False, "r": False}) is True
    assert qfeval.evaluate(f, {"p": False, "q": False, "r": False}) is False


def test_evaluator_exercise_clauses():
    # Elementarizations of the exercise clauses are quantifier-free and
    # elementary; the evaluator's truth table must agree with the kernel.
    for clause, (text, _) in workloads.EXERCISES.items():
        e = elementarize(parse(text))
        assert qfeval.is_tautology(e) == tautology_qf(e), clause


def test_valued_tree_has_its_value():
    rng = random.Random(5)
    for _ in range(200):
        names = [f"a{i}" for i in range(rng.randint(1, 12))]
        sigma = {n: rng.random() < 0.5 for n in names}
        value = rng.random() < 0.5
        f = workloads._valued_tree(rng, names + rng.choices(names, k=3), value, sigma)
        assert qfeval.evaluate(f, sigma) is value


def test_same_seed_same_inputs():
    for name, build in workloads.WORKLOADS.items():
        first = [item.run.args for item in build(3)]
        assert first == [item.run.args for item in build(3)], name
        assert first != [item.run.args for item in build(4)], name


def test_one_pass_of_every_workload():
    for name in workloads.WORKLOADS:
        result = run.run(name, seed=7, seconds=0, tracer=None)
        assert result["correct"], name
        assert result["failed"] == 0, name
        assert result["passes"] == 1, name
        assert all(value > 0 for value in result["metrics"].values()), (name, result["metrics"])


def test_traced_run_prints_every_layer_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "prove-play",
         "--seed", "7", "--seconds", "0", "--trace", "1"],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == set(spans.METRICS)
    assert line["metrics"]["strategy.plays"]["value"] > 0


if __name__ == "__main__":
    for test_name, test in list(globals().items()):
        if test_name.startswith("test_") and callable(test):
            test()
            print(f"PASS {test_name}")
