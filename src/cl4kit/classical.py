"""Elementarization and classical validity.

The quantifier-free propositional core is exact (it certifies the decision
procedure).  Blind-quantified elementary formulas get a budgeted two-sided
checker: a signed tableau hunts for a refutation of the negation (Valid),
finite-model search hunts for a countermodel (Invalid), and exhausting both
budgets yields Unknown.  Free variables are read as universally quantified.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import kernel
from .syntax import (
    BOT,
    QUASIATOM,
    TOP,
    Atom,
    BlindAll,
    Const,
    Formula,
    Term,
    Var,
    constants,
    elem_letter,
    is_blind_free,
    is_elementary,
    subformulas,
    substitute,
)


@dataclass(frozen=True)
class Budget:
    """(max tableau depth, max model domain size)."""

    depth: int = 8
    models: int = 3

    # internal guards so a single call stays desk-scale
    max_expansions: int = 50000
    max_model_bits: int = 18


@dataclass(frozen=True)
class Countermodel:
    """A finite model falsifying a formula: domain {0..size-1}, an
    interpretation of the constants and free variables, and a truth table
    for the ground atoms (entries default to false)."""

    size: int
    consts: dict[int, int] = field(default_factory=dict)
    freevars: dict[str, int] = field(default_factory=dict)
    table: dict[tuple[str, tuple[int, ...]], bool] = field(default_factory=dict)

    def term_value(self, t: Term, env: dict[str, int]) -> int:
        if isinstance(t, Const):
            return self.consts.get(t.value, 0)
        if t.name in env:
            return env[t.name]
        return self.freevars.get(t.name, 0)

    def evaluate(self, f: Formula, env: dict[str, int] | None = None) -> bool:
        env = env or {}
        if isinstance(f, Atom):
            if f.letter.logical:
                return f.letter.name == "T"
            key = (f.letter.name, tuple(self.term_value(t, env) for t in f.args))
            return self.table.get(key, False)
        if f.surface is QUASIATOM:  # a choice
            raise ValueError("countermodels only evaluate elementary formulas")
        if f.bound_var is not None:
            (body,) = f.children
            values = (self.evaluate(body, {**env, f.bound_var: d}) for d in range(self.size))
        else:
            values = (self.evaluate(c, env) == (s > 0) for c, s in zip(f.children, f.signs))
        return all(values) if f.conjunctive else any(values)

    def to_json(self) -> dict:
        return {
            "domain": self.size,
            "constants": {str(c): d for c, d in self.consts.items()},
            "variables": dict(self.freevars),
            "atoms": {
                f"{name}({', '.join(map(str, args))})" if args else name: value
                for (name, args), value in self.table.items()
            },
        }


@dataclass(frozen=True)
class Verdict:
    status: str  # "valid" | "invalid" | "unknown"
    countermodel: Countermodel | None = None
    reason: str = ""

    @property
    def is_valid(self) -> bool:
        return self.status == "valid"

    @property
    def is_invalid(self) -> bool:
        return self.status == "invalid"

    @property
    def is_unknown(self) -> bool:
        return self.status == "unknown"


VALID = Verdict("valid")


# ---------------------------------------------------------------------------
# Elementarization
# ---------------------------------------------------------------------------


def elementarize(f: Formula) -> Formula:
    """Collapse all interactive structure: surface choice subformulas go to
    T (caps) / F (cups), positive surface general atoms to F, negative ones
    to T, and hybrid letters to their elementary component."""

    def walk(node: Formula, pol: int) -> Formula:
        if isinstance(node, Atom):
            if node.letter.kind == "general":
                return BOT if pol > 0 else TOP
            if node.letter.kind == "hybrid":
                return Atom(elem_letter(node.letter.elementary, node.letter.arity), node.args)
            return node
        if node.surface is QUASIATOM:  # a choice
            return TOP if node.conjunctive else BOT
        return node.rebuild([walk(c, pol * s) for c, s in zip(node.children, node.signs)])

    return walk(f, 1)


# ---------------------------------------------------------------------------
# Quantifier-free validity (exact)
# ---------------------------------------------------------------------------


def tautology_qf(f: Formula) -> bool:
    """True iff f holds under every boolean assignment to its distinct
    atoms.  Rejects quantified input."""
    if not is_blind_free(f):
        raise ValueError("tautology_qf requires quantifier-free input")
    if not is_elementary(f):
        raise ValueError("tautology_qf requires elementary input")
    return kernel.is_tautology(f)


def _qf_countermodel(f: Formula) -> Countermodel | None:
    """Countermodel for a quantifier-free elementary formula, built from a
    falsifying atom assignment by letting each distinct term denote its own
    domain element."""
    assignment = kernel.falsifying_assignment(f)
    if assignment is None:
        return None
    terms: list[Term] = []
    seen = set()
    for atom in assignment:
        for t in atom.args:
            if t not in seen:
                seen.add(t)
                terms.append(t)
    consts = {t.value: i for i, t in enumerate(terms) if isinstance(t, Const)}
    freevars = {t.name: i for i, t in enumerate(terms) if isinstance(t, Var)}
    size = max(1, len(terms))
    model = Countermodel(size=size, consts=consts, freevars=freevars)
    for atom, value in assignment.items():
        key = (atom.letter.name, tuple(model.term_value(t, {}) for t in atom.args))
        model.table[key] = value
    return model


# ---------------------------------------------------------------------------
# Tableau refutation (Valid direction)
# ---------------------------------------------------------------------------


class _BudgetExhausted(Exception):
    pass


def _tableau_closes(f: Formula, budget: Budget) -> bool:
    """True iff the signed tableau for 'f is false' closes, i.e. f is valid.
    Raises _BudgetExhausted when the expansion budget runs out."""

    for x in sorted(f.free_variables):
        f = BlindAll(x, f)

    initial_params = tuple(sorted(constants(f))) or (0,)
    counter = itertools.count(max(initial_params) + 1)
    expansions = [0]

    def expand(agenda, betas, lits, gammas, params, uses) -> bool:
        expansions[0] += 1
        if expansions[0] > budget.max_expansions:
            raise _BudgetExhausted()
        agenda = list(agenda)
        betas = list(betas)
        lits = set(lits)
        gammas = list(gammas)
        params = list(params)
        uses = dict(uses)
        while agenda:
            sign, g = agenda.pop()
            if isinstance(g, Atom):
                if g.letter.logical:
                    if sign != (g.letter.name == "T"):
                        return True
                    continue
                if (not sign, g) in lits:
                    return True
                lits.add((sign, g))
            elif g.bound_var is not None:
                if sign == g.conjunctive:  # universal: instantiated later
                    gammas.append((sign, g))
                else:
                    p = next(counter)
                    params.append(p)
                    agenda.append((sign, substitute(g.body, g.var, Const(p))))
            else:
                signed = [(sign == (s > 0), c) for c, s in zip(g.children, g.signs)]
                if sign == g.conjunctive or len(signed) == 1:
                    agenda.extend(signed)
                else:
                    betas.append(signed)
        if betas:
            branch = betas.pop()
            return all(
                expand([alt], betas, lits, gammas, params, uses) for alt in branch
            )
        new = []
        for sf in gammas:
            for p in params:
                if (sf, p) in uses:
                    continue
                if sum(1 for key in uses if key[0] == sf) >= budget.depth:
                    break
                uses[(sf, p)] = True
                sign, g = sf
                new.append((sign, substitute(g.body, g.var, Const(p))))
        if new:
            return expand(new, betas, lits, gammas, params, uses)
        return False

    return expand([(False, f)], [], set(), [], list(initial_params), {})


# ---------------------------------------------------------------------------
# Finite-model search (Invalid direction)
# ---------------------------------------------------------------------------


def _find_countermodel(f: Formula, budget: Budget) -> tuple[Countermodel | None, bool]:
    """Search domains of size 1..budget.models.  Returns (model, exhausted)
    where exhausted means every size was fully searched."""
    f_consts = sorted(constants(f))
    f_vars = sorted(f.free_variables)
    letter_sigs = sorted(
        {
            (g.letter.name, g.letter.arity)
            for g in subformulas(f)
            if isinstance(g, Atom) and not g.letter.logical
        }
    )
    exhausted = True
    for size in range(1, budget.models + 1):
        keys: list[tuple[str, tuple[int, ...]]] = []
        for name, arity in letter_sigs:
            keys.extend(
                (name, combo) for combo in itertools.product(range(size), repeat=arity)
            )
        if len(keys) > budget.max_model_bits:
            exhausted = False
            continue
        maps = itertools.product(
            itertools.product(range(size), repeat=len(f_consts)),
            itertools.product(range(size), repeat=len(f_vars)),
        )
        for const_vals, var_vals in maps:
            consts = dict(zip(f_consts, const_vals))
            freevars = dict(zip(f_vars, var_vals))
            for bits in range(1 << len(keys)):
                table = {k: bool((bits >> i) & 1) for i, k in enumerate(keys)}
                model = Countermodel(size, consts, freevars, table)
                if not model.evaluate(f):
                    return model, exhausted
    return None, exhausted


# ---------------------------------------------------------------------------
# Public checkers
# ---------------------------------------------------------------------------


def fo_validity(f: Formula, budget: Budget = Budget()) -> Verdict:
    """Budgeted validity for elementary formulas.  Valid and Invalid are
    both certified; Unknown signals budget exhaustion."""
    if not is_elementary(f):
        raise ValueError("fo_validity requires elementary input")
    if is_blind_free(f):
        model = _qf_countermodel(f)
        return VALID if model is None else Verdict("invalid", model)
    try:
        if _tableau_closes(f, budget):
            return VALID
        tableau_exhausted = False
    except _BudgetExhausted:
        tableau_exhausted = True
    model, search_complete = _find_countermodel(f, budget)
    if model is not None:
        return Verdict("invalid", model)
    if tableau_exhausted or not search_complete:
        return Verdict("unknown", reason="tableau and model budgets exhausted")
    return Verdict(
        "unknown",
        reason=f"open tableau at depth {budget.depth}; no countermodel up to size {budget.models}",
    )


def is_stable(f: Formula, budget: Budget = Budget()) -> Verdict:
    """Classical validity of the elementarization.  Exact (never Unknown)
    when the elementarization is quantifier-free."""
    return fo_validity(elementarize(f), budget)
