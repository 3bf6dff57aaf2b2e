"""Spans around the public functions of each cl4kit layer, kept in memory,
and the per-layer metrics computed from them.

Modules import functions by name, so a function is wrapped in every module
namespace that binds it: ``cl4kit.decide.elementarize`` as well as
``cl4kit.classical.elementarize``.  A span has a name, a start, an end and a
parent; a layer's self time is its spans' time minus the time of their
child spans.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from functools import wraps

# (module, function, span name).  Generator functions (subformulas, atoms)
# are left out: a wrapper would time only the creation of the generator.
LAYER_FUNCTIONS = [
    ("cl4kit.decide", "decide_blindfree", "decide.decide_blindfree"),
    ("cl4kit.syntax", "parse", "syntax.parse"),
    ("cl4kit.syntax", "pretty", "syntax.pretty"),
    ("cl4kit.syntax", "replace_at", "syntax.replace_at"),
    ("cl4kit.syntax", "substitute", "syntax.substitute"),
    ("cl4kit.syntax", "free_variables", "syntax.free_variables"),
    ("cl4kit.syntax", "surface_occurrences", "syntax.surface_occurrences"),
    ("cl4kit.syntax", "letter_names", "syntax.letter_names"),
    ("cl4kit.syntax", "letters", "syntax.letters"),
    ("cl4kit.syntax", "variables", "syntax.variables"),
    ("cl4kit.syntax", "constants", "syntax.constants"),
    ("cl4kit.syntax", "resolve", "syntax.resolve"),
    ("cl4kit.syntax", "apply_valuation", "syntax.apply_valuation"),
    ("cl4kit.syntax", "aggregate_complexity", "syntax.aggregate_complexity"),
    ("cl4kit.classical", "elementarize", "classical.elementarize"),
    ("cl4kit.classical", "tautology_qf", "classical.tautology_qf"),
    ("cl4kit.classical", "is_stable", "classical.is_stable"),
    ("cl4kit.kernel", "is_tautology", "kernel.is_tautology"),
    ("cl4kit.kernel", "falsifying_assignment", "kernel.falsifying_assignment"),
    ("cl4kit.kernel", "compile_program", "kernel.compile_program"),
    ("cl4kit._kernel_py", "falsifying", "kernel.sweep"),
    ("cl4kit.kernel", "_dpll_negation", "kernel.dpll"),
    ("cl4kit.calculus", "rule_a_premises", "calculus.rule_a_premises"),
    ("cl4kit.calculus", "b1_targets", "calculus.b1_targets"),
    ("cl4kit.calculus", "b2_targets", "calculus.b2_targets"),
    ("cl4kit.calculus", "c_pairs", "calculus.c_pairs"),
    ("cl4kit.calculus", "b2_scope_ok", "calculus.b2_scope_ok"),
    ("cl4kit.calculus", "check_proof", "calculus.check_proof"),
    ("cl4kit.calculus", "check_step", "calculus.check_step"),
    ("cl4kit.calculus", "to_cl4o", "calculus.to_cl4o"),
    ("cl4kit.calculus", "make_reasonable", "calculus.make_reasonable"),
    ("cl4kit.games", "residual", "games.residual"),
    ("cl4kit.games", "legal_moves", "games.legal_moves"),
    ("cl4kit.games", "is_unilegal", "games.is_unilegal"),
    ("cl4kit.games", "winner", "games.winner"),
    ("cl4kit.games", "is_manageable", "games.is_manageable"),
    ("cl4kit.strategy", "enumerate_plays", "strategy.enumerate_plays"),
    ("cl4kit.strategy", "extract_and_play", "strategy.extract_and_play"),
    ("cl4kit.strategy", "assert_claim1", "strategy.assert_claim1"),
    ("cl4kit.translate", "signature_for", "translate.signature_for"),
    ("cl4kit.translate", "lift", "translate.lift"),
    ("cl4kit.translate", "is_good", "translate.is_good"),
    ("cl4kit.translate", "floorify", "translate.floorify"),
]

WALKERS = (
    "syntax.replace_at",
    "syntax.substitute",
    "syntax.free_variables",
    "syntax.surface_occurrences",
    "syntax.letter_names",
    "syntax.letters",
    "syntax.variables",
    "syntax.constants",
    "syntax.resolve",
    "syntax.apply_valuation",
    "syntax.aggregate_complexity",
)
KERNEL = (
    "kernel.is_tautology",
    "kernel.falsifying_assignment",
    "kernel.compile_program",
    "kernel.sweep",
    "kernel.dpll",
)
RULE_TARGETS = (
    "calculus.rule_a_premises",
    "calculus.b1_targets",
    "calculus.b2_targets",
    "calculus.c_pairs",
    "calculus.b2_scope_ok",
)

# Per-layer metrics: name -> (unit, better, how it is computed).  "self"
# sums the self time of the named spans, "calls" counts them, "counter"
# reads a counter kept by the wrappers' hooks.
METRICS = {
    "decide.nodes": ("count", "lower", ("counter", "nodes")),
    "decide.distinct_formulas": ("count", "lower", ("counter", "distinct")),
    "decide.distinct_ratio": ("ratio", "higher", ("ratio", "distinct", "nodes")),
    "decide.max_depth": ("count", "lower", ("max", "max_depth")),
    "decide.self_s": ("s", "lower", ("self", ("decide.decide_blindfree",))),
    "syntax.pretty_calls": ("count", "lower", ("counter", "pretty_in_decide")),
    "syntax.pretty_s": ("s", "lower", ("self", ("syntax.pretty",))),
    "syntax.walk_s": ("s", "lower", ("self", WALKERS)),
    "syntax.replace_at_calls": ("count", "lower", ("calls", ("syntax.replace_at",))),
    "syntax.substitute_calls": ("count", "lower", ("calls", ("syntax.substitute",))),
    "syntax.free_variables_calls": ("count", "lower", ("calls", ("syntax.free_variables",))),
    "syntax.surface_occurrences_calls": (
        "count",
        "lower",
        ("calls", ("syntax.surface_occurrences",)),
    ),
    "syntax.letter_names_calls": ("count", "lower", ("calls", ("syntax.letter_names",))),
    "syntax.parse_s": ("s", "lower", ("self", ("syntax.parse",))),
    "classical.elementarize_calls": ("count", "lower", ("calls", ("classical.elementarize",))),
    "classical.elementarize_s": ("s", "lower", ("self", ("classical.elementarize",))),
    "classical.exact_checks": ("count", "lower", ("calls", ("classical.tautology_qf",))),
    "classical.budgeted_checks": ("count", "lower", ("calls", ("classical.is_stable",))),
    "classical.s": (
        "s",
        "lower",
        ("self", ("classical.elementarize", "classical.tautology_qf", "classical.is_stable")),
    ),
    "kernel.calls": ("count", "lower", ("calls", ("kernel.falsifying_assignment",))),
    "kernel.sweep_calls": ("count", "lower", ("calls", ("kernel.sweep",))),
    "kernel.dpll_calls": ("count", "lower", ("calls", ("kernel.dpll",))),
    "kernel.max_atoms": ("count", "lower", ("max", "max_atoms")),
    "kernel.compile_s": ("s", "lower", ("self", ("kernel.compile_program",))),
    "kernel.s": ("s", "lower", ("self", KERNEL)),
    "calculus.rule_targets_s": ("s", "lower", ("self", RULE_TARGETS)),
    "calculus.check_proof_s": (
        "s",
        "lower",
        ("self", ("calculus.check_proof", "calculus.check_step")),
    ),
    "calculus.checked_steps": ("count", "lower", ("calls", ("calculus.check_step",))),
    "calculus.to_cl4o_s": ("s", "lower", ("self", ("calculus.to_cl4o",))),
    "calculus.make_reasonable_s": ("s", "lower", ("self", ("calculus.make_reasonable",))),
    "calculus.cl4o_steps": ("count", "lower", ("counter", "cl4o_steps")),
    "games.residual_calls": ("count", "lower", ("calls", ("games.residual",))),
    "games.residual_s": ("s", "lower", ("self", ("games.residual",))),
    "games.legal_moves_s": ("s", "lower", ("self", ("games.legal_moves",))),
    "games.unilegal_s": ("s", "lower", ("self", ("games.is_unilegal",))),
    "games.winner_s": ("s", "lower", ("self", ("games.winner",))),
    "games.manageable_s": ("s", "lower", ("self", ("games.is_manageable",))),
    "strategy.plays": ("count", "higher", ("calls", ("strategy.extract_and_play",))),
    "strategy.play_s": (
        "s",
        "lower",
        ("self", ("strategy.extract_and_play", "strategy.enumerate_plays")),
    ),
    "strategy.claim1_s": ("s", "lower", ("self", ("strategy.assert_claim1",))),
    "translate.lift_s": ("s", "lower", ("self", ("translate.lift", "translate.signature_for"))),
    "translate.check_s": ("s", "lower", ("self", ("translate.is_good", "translate.floorify"))),
}


class Tracer:
    """Spans in parallel arrays: name id, parent index (-1 for a root),
    start and end in seconds since the tracer was made."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._origin = time.perf_counter()
        self.paused = False
        self.counters: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self._distinct: set | None = None

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter() - self._origin)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter() - self._origin
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span of the benchmark's own, such as set-up or one item."""
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    @contextmanager
    def pause(self):
        """Calls made inside, such as output checks, record no spans."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, fn, name: str, on_enter=None, on_exit=None):
        name_id = self._id(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if on_enter is not None:
                on_enter(args, kwargs)
            i = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if on_exit is not None:
                on_exit(args, kwargs, result)
            return result

        return wrapper

    # -- hooks that keep counters no span records ---------------------------

    def _enter_decide(self, args, kwargs) -> None:
        self._distinct = set()

    def _exit_decide(self, args, kwargs, result) -> None:
        stats = kwargs.get("stats") or {}
        self.count("nodes", stats.get("nodes", 0))
        self.maxima["max_depth"] = max(self.maxima.get("max_depth", 0), stats.get("max_depth", 0))
        self.count("distinct", len(self._distinct))
        self._distinct = None

    def _enter_elementarize(self, args, kwargs) -> None:
        if self._distinct is not None:
            self._distinct.add(args[0])

    def _enter_pretty(self, args, kwargs) -> None:
        if self._distinct is not None:
            self.count("pretty_in_decide")

    def _exit_compile(self, args, kwargs, result) -> None:
        self.maxima["max_atoms"] = max(self.maxima.get("max_atoms", 0), len(result[1]))

    def _exit_to_cl4o(self, args, kwargs, result) -> None:
        self.count("cl4o_steps", len(result.steps))

    def install(self, extra_modules=()) -> None:
        """Wrap every function of LAYER_FUNCTIONS wherever it is bound: in
        each loaded cl4kit module and in ``extra_modules``."""
        hooks = {
            "decide.decide_blindfree": (self._enter_decide, self._exit_decide),
            "classical.elementarize": (self._enter_elementarize, None),
            "syntax.pretty": (self._enter_pretty, None),
            "kernel.compile_program": (None, self._exit_compile),
            "calculus.to_cl4o": (None, self._exit_to_cl4o),
        }
        for module_name, _, _ in LAYER_FUNCTIONS:
            importlib.import_module(module_name)
        namespaces = [m for n, m in sys.modules.items() if n == "cl4kit" or n.startswith("cl4kit.")]
        namespaces += list(extra_modules)
        for module_name, attr, name in LAYER_FUNCTIONS:
            target = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(target, name, *hooks.get(name, (None, None)))
            for module in namespaces:
                for key, value in list(vars(module).items()):
                    if value is target:
                        setattr(module, key, wrapper)

    # -- results --------------------------------------------------------------

    def mark(self) -> tuple[int, dict[str, int]]:
        """Where the timed loop starts: span index and counters so far."""
        return len(self.start), dict(self.counters)

    def per_layer(self, mark: tuple[int, dict[str, int]], passes: int) -> dict[str, float]:
        """Every per-layer metric, for one set-up plus one pass: spans and
        counters of the set-up count once, those of the timed loop are
        divided by the number of passes over the inputs."""
        loop_from, setup_counters = mark
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_time: dict[str, float] = {}
        calls: dict[str, float] = {}
        for i in range(n):
            weight = 1.0 if i < loop_from else 1.0 / passes
            name = self.names[self.name_id[i]]
            self_time[name] = self_time.get(name, 0.0) + weight * (self.end[i] - self.start[i] - child[i])
            calls[name] = calls.get(name, 0.0) + weight

        def counter(key: str) -> float:
            before = setup_counters.get(key, 0)
            return before + (self.counters.get(key, 0) - before) / passes

        out: dict[str, float] = {}
        for metric, (_, _, how) in METRICS.items():
            kind = how[0]
            if kind == "self":
                value = sum(self_time.get(s, 0.0) for s in how[1])
            elif kind == "calls":
                value = sum(calls.get(s, 0.0) for s in how[1])
            elif kind == "counter":
                value = counter(how[1])
            elif kind == "max":
                value = self.maxima.get(how[1], 0)
            else:
                denominator = counter(how[2])
                value = counter(how[1]) / denominator if denominator else 0.0
            out[metric] = value
        return out

    def write(self, path) -> None:
        """All spans as gzip-compressed CSV: id, parent, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.parent[i]},{names[self.name_id[i]]},"
                    f"{self.start[i]:.9f},{self.end[i]:.9f}\n"
                )
