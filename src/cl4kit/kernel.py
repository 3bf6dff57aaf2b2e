"""Propositional validity kernel: compile a quantifier-free elementary
formula to a postfix program and decide whether it is a tautology.

Up to ``MAX_SWEEP_ATOMS`` distinct atoms, one bigint sweep
(``cl4kit._kernel_py``) evaluates the program on every assignment at once.
Beyond that, an iterative CDCL solver (watched literals, first-UIP clause
learning, backjumping, activity-ordered decisions) searches for a model of
the Tseitin clauses of the negation.  Neither path recurses, so neither is
limited by Python's stack depth.  ``MAX_SWEEP_ATOMS`` is the measured
crossover: at 18 atoms the two take about the same time per call, and from
19 atoms on the sweep, which doubles with each atom, is the slower.

Opcodes: 0 LOAD, 1 FALSE, 2 TRUE, 3 NOT, 4 AND, 5 OR, 6 IMP.
"""

from __future__ import annotations

import heapq

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

MAX_SWEEP_ATOMS = 18

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
    return {a: model[i] for i, a in enumerate(atom_list)}


def is_tautology(f: Formula) -> bool:
    return falsifying_assignment(f) is None


# ---------------------------------------------------------------------------
# Wide formulas: Tseitin clausification of the negation plus CDCL
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
    """Satisfying assignment (atom index -> bool, every atom) of the negated
    program, or None when the program is a tautology.

    An iterative CDCL search over the Tseitin clauses: two watched literals
    per clause, a trail split into decision levels, first-UIP conflict
    analysis with a backjump to the second-highest level of the learnt
    clause, and the most active unassigned variable as the next decision.
    Nothing recurses, so the number of decisions is not bounded by Python's
    stack.  Literal ``l`` of variable ``v`` is coded ``2v`` when positive and
    ``2v + 1`` when negative, so ``code ^ 1`` negates it.
    """
    raw, n_vars = _clausify_negation(ops, n_atoms)
    value = [0] * (2 * n_vars + 2)  # by literal code: 1 true, -1 false, 0 free
    level = [0] * (n_vars + 1)
    reason: list[int | None] = [None] * (n_vars + 1)
    activity = [0.0] * (n_vars + 1)
    seen = [False] * (n_vars + 1)
    watches: list[list[int]] = [[] for _ in value]
    clauses: list[list[int]] = []
    trail: list[int] = []
    trail_lim: list[int] = []  # trail length when each decision level began
    order = [(0.0, v) for v in range(1, n_vars + 1)]  # (-activity, var), lazy heap
    bump = 1.0
    qhead = 0

    def assign(lit: int, why: int | None) -> None:
        value[lit] = 1
        value[lit ^ 1] = -1
        v = lit >> 1
        level[v] = len(trail_lim)
        reason[v] = why
        trail.append(lit)

    def attach(clause: list[int]) -> int:
        ci = len(clauses)
        clauses.append(clause)
        watches[clause[0]].append(ci)
        watches[clause[1]].append(ci)
        return ci

    def propagate() -> int | None:
        """Index of a conflicting clause, or None once the trail is closed
        under unit propagation.  The literal a clause implies is its first."""
        nonlocal qhead
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            watching = watches[false_lit]
            kept: list[int] = []
            for k, ci in enumerate(watching):
                c = clauses[ci]
                if c[0] == false_lit:
                    c[0], c[1] = c[1], false_lit
                first = c[0]
                if value[first] == 1:
                    kept.append(ci)
                    continue
                for m in range(2, len(c)):
                    if value[c[m]] != -1:
                        c[1], c[m] = c[m], false_lit
                        watches[c[1]].append(ci)
                        break
                else:
                    kept.append(ci)
                    if value[first] == -1:
                        kept.extend(watching[k + 1 :])
                        watches[false_lit] = kept
                        return ci
                    assign(first, ci)
            watches[false_lit] = kept
        return None

    def analyze(confl: int) -> tuple[list[int], int]:
        """First-UIP learnt clause, asserting literal first and a literal of
        the backjump level second, and that level."""
        nonlocal bump
        current = len(trail_lim)
        learnt = [0]
        pending = 0
        clause = clauses[confl]
        skip = 0  # a reason clause's first literal is the one it implied
        i = len(trail)
        while True:
            for lit in clause[skip:]:
                v = lit >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    activity[v] += bump
                    if level[v] == current:
                        pending += 1
                    else:
                        learnt.append(lit)
            i -= 1
            while not seen[trail[i] >> 1]:
                i -= 1
            p = trail[i]
            seen[p >> 1] = False
            pending -= 1
            if pending == 0:
                break
            clause = clauses[reason[p >> 1]]
            skip = 1
        learnt[0] = p ^ 1
        for lit in learnt[1:]:
            seen[lit >> 1] = False
        bump /= 0.95
        if bump > 1e100:
            for v in range(1, n_vars + 1):
                activity[v] *= 1e-100
            bump *= 1e-100
            order[:] = [(-activity[v], v) for v in range(1, n_vars + 1) if not value[2 * v]]
            heapq.heapify(order)
        if len(learnt) == 1:
            return learnt, 0
        top = max(range(1, len(learnt)), key=lambda j: level[learnt[j] >> 1])
        learnt[1], learnt[top] = learnt[top], learnt[1]
        return learnt, level[learnt[1] >> 1]

    def backjump(target: int) -> None:
        nonlocal qhead
        start = trail_lim[target]
        for lit in trail[start:]:
            v = lit >> 1
            value[lit] = value[lit ^ 1] = 0
            heapq.heappush(order, (-activity[v], v))
        del trail[start:], trail_lim[target:]
        qhead = start

    for signed in raw:
        clause = list(dict.fromkeys(2 * abs(l) + (l < 0) for l in signed))
        if any(lit ^ 1 in clause for lit in clause):
            continue
        if len(clause) > 1:
            attach(clause)
        elif value[clause[0]] == -1:
            return None
        elif not value[clause[0]]:
            assign(clause[0], None)

    while True:
        confl = propagate()
        if confl is not None:
            if not trail_lim:
                return None
            learnt, target = analyze(confl)
            backjump(target)
            assign(learnt[0], attach(learnt) if len(learnt) > 1 else None)
            continue
        while order and value[2 * order[0][1]]:
            heapq.heappop(order)
        if not order:
            return {v - 1: value[2 * v] == 1 for v in range(1, n_atoms + 1)}
        trail_lim.append(len(trail))
        assign(2 * heapq.heappop(order)[1] + 1, None)
