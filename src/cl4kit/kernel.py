"""Propositional validity kernel: compile a quantifier-free elementary
formula to a postfix program and sweep the assignment space.

Up to ``MAX_SWEEP_ATOMS`` distinct atoms, one bigint sweep
(``cl4kit._kernel_py``) evaluates the program on every assignment at once.
Beyond that, a DPLL search over the clausified negation takes over.

Opcodes: 0 LOAD, 1 FALSE, 2 TRUE, 3 NOT, 4 AND, 5 OR, 6 IMP.
"""

from __future__ import annotations

from .syntax import (
    Atom,
    BlindAll,
    BlindEx,
    Formula,
    Implies,
    Neg,
    ParAnd,
    ParOr,
    is_choice,
)

from . import _kernel_py

MAX_SWEEP_ATOMS = 22

OP_LOAD, OP_FALSE, OP_TRUE, OP_NOT, OP_AND, OP_OR, OP_IMP = range(7)


def compile_program(f: Formula) -> tuple[list[int], list[Atom]]:
    """Flattened postfix program plus the atom table it indexes.

    The input must be quantifier-free and elementary; ``T``/``F`` compile to
    constants, every other atom (letter plus exact argument tuple) gets an
    independent input bit.
    """
    atom_index: dict[Atom, int] = {}
    atom_list: list[Atom] = []
    ops: list[int] = []

    def emit(node: Formula) -> None:
        if isinstance(node, Atom):
            if node.letter.logical:
                ops.extend((OP_TRUE if node.letter.name == "T" else OP_FALSE, 0))
                return
            if node.letter.kind != "elementary":
                raise ValueError("kernel input must be elementary")
            idx = atom_index.get(node)
            if idx is None:
                idx = len(atom_list)
                atom_index[node] = idx
                atom_list.append(node)
            ops.extend((OP_LOAD, idx))
        elif isinstance(node, Neg):
            emit(node.body)
            ops.extend((OP_NOT, 0))
        elif isinstance(node, (ParAnd, ParOr)):
            fold = OP_AND if isinstance(node, ParAnd) else OP_OR
            emit(node.parts[0])
            for part in node.parts[1:]:
                emit(part)
                ops.extend((fold, 0))
        elif isinstance(node, Implies):
            emit(node.lhs)
            emit(node.rhs)
            ops.extend((OP_IMP, 0))
        elif isinstance(node, (BlindAll, BlindEx)) or is_choice(node):
            raise ValueError("kernel input must be quantifier-free and elementary")
        else:  # pragma: no cover
            raise TypeError(f"unknown node {node!r}")

    emit(f)
    return ops, atom_list


def falsifying_assignment(f: Formula) -> dict[Atom, bool] | None:
    """An atom assignment under which f is false, or None when f is a
    tautology (distinct atoms are independent)."""
    ops, atom_list = compile_program(f)
    n = len(atom_list)
    if n <= MAX_SWEEP_ATOMS:
        idx = _kernel_py.falsifying(ops, n)
        if idx is None:
            return None
        return {a: bool((idx >> i) & 1) for i, a in enumerate(atom_list)}
    model = _dpll_negation(ops, n)
    if model is None:
        return None
    return {a: model.get(i, False) for i, a in enumerate(atom_list)}


def is_tautology(f: Formula) -> bool:
    return falsifying_assignment(f) is None


# ---------------------------------------------------------------------------
# Wide-formula fallback: Tseitin clausification of the negation plus DPLL
# ---------------------------------------------------------------------------


def _clausify_negation(ops: list[int], n_atoms: int) -> tuple[list[list[int]], int]:
    """CNF equisatisfiable with NOT(program).  Variables 1..n_atoms are the
    atoms; higher variables label subformulas."""
    clauses: list[list[int]] = []
    next_var = n_atoms + 1
    stack: list[int] = []

    def fresh() -> int:
        nonlocal next_var
        v = next_var
        next_var += 1
        return v

    for k in range(0, len(ops), 2):
        op, arg = ops[k], ops[k + 1]
        if op == OP_LOAD:
            stack.append(arg + 1)
        elif op == OP_FALSE:
            v = fresh()
            clauses.append([-v])
            stack.append(v)
        elif op == OP_TRUE:
            v = fresh()
            clauses.append([v])
            stack.append(v)
        elif op == OP_NOT:
            stack[-1] = -stack[-1]
        elif op in (OP_AND, OP_OR, OP_IMP):
            b = stack.pop()
            a = stack.pop()
            if op == OP_IMP:
                a, op = -a, OP_OR
            v = fresh()
            if op == OP_AND:
                clauses.extend(([-v, a], [-v, b], [v, -a, -b]))
            else:
                clauses.extend(([-v, a, b], [v, -a], [v, -b]))
            stack.append(v)
    clauses.append([-stack.pop()])
    return clauses, next_var - 1


def _dpll_negation(ops: list[int], n_atoms: int) -> dict[int, bool] | None:
    """Satisfying assignment (atom index -> bool) of the negated program, or
    None when the program is a tautology."""
    clauses, _ = _clausify_negation(ops, n_atoms)

    def solve(cnf: list[list[int]], assign: dict[int, bool]) -> dict[int, bool] | None:
        while True:
            unit = next((c[0] for c in cnf if len(c) == 1), None)
            if unit is None:
                break
            cnf = _force(cnf, unit)
            assign[abs(unit)] = unit > 0
            if any(not c for c in cnf):
                return None
        if not cnf:
            return assign
        lit = cnf[0][0]
        for choice in (lit, -lit):
            trial = _force(cnf, choice)
            if not any(not c for c in trial):
                result = solve(trial, {**assign, abs(choice): choice > 0})
                if result is not None:
                    return result
        return None

    model = solve(clauses, {})
    if model is None:
        return None
    return {v - 1: val for v, val in model.items() if 1 <= v <= n_atoms}


def _force(cnf: list[list[int]], lit: int) -> list[list[int]]:
    out = []
    for clause in cnf:
        if lit in clause:
            continue
        out.append([l for l in clause if l != -lit])
    return out
