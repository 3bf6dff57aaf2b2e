"""Truth value of a quantifier-free elementary formula under an assignment.

Written apart from ``cl4kit.kernel`` (no compiled programs, no sweep, no
DPLL) so that the benchmark can confirm the kernel's answers against an
evaluation it does not share code with.
"""

from __future__ import annotations

from collections.abc import Mapping

from cl4kit.syntax import Atom, Formula, Implies, Neg, ParAnd, ParOr


def evaluate(f: Formula, assignment: Mapping[str, bool]) -> bool:
    """Value of ``f``; every 0-ary elementary letter of ``f`` other than
    ``T`` and ``F`` must be a key of ``assignment``."""
    if isinstance(f, Atom):
        if f.letter.logical:
            return f.letter.name == "T"
        if f.letter.kind != "elementary" or f.args:
            raise ValueError(f"not a 0-ary elementary atom: {f!r}")
        return assignment[f.letter.name]
    if isinstance(f, Neg):
        return not evaluate(f.body, assignment)
    if isinstance(f, ParAnd):
        return all(evaluate(p, assignment) for p in f.parts)
    if isinstance(f, ParOr):
        return any(evaluate(p, assignment) for p in f.parts)
    if isinstance(f, Implies):
        return not evaluate(f.lhs, assignment) or evaluate(f.rhs, assignment)
    raise ValueError(f"not quantifier-free elementary: {type(f).__name__}")


def atom_names(f: Formula) -> set[str]:
    """Names of the non-logical atoms of a quantifier-free elementary formula."""
    if isinstance(f, Atom):
        return set() if f.letter.logical else {f.letter.name}
    if isinstance(f, Neg):
        return atom_names(f.body)
    if isinstance(f, (ParAnd, ParOr)):
        return set().union(*(atom_names(p) for p in f.parts))
    if isinstance(f, Implies):
        return atom_names(f.lhs) | atom_names(f.rhs)
    raise ValueError(f"not quantifier-free elementary: {type(f).__name__}")


def is_tautology(f: Formula) -> bool:
    """Truth-table validity by enumerating every assignment; for small
    formulas only."""
    names = sorted(atom_names(f))
    for bits in range(1 << len(names)):
        assignment = {n: bool((bits >> i) & 1) for i, n in enumerate(names)}
        if not evaluate(f, assignment):
            return False
    return True
