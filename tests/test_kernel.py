import random

import pytest

from cl4kit import kernel
from cl4kit import _kernel_py
from cl4kit.syntax import BOT, TOP, Atom, Implies, Neg, ParAnd, ParOr, elem_letter, parse, pretty

from helpers import random_qf_elementary


def ev(node, assignment):
    """Truth value of a quantifier-free elementary formula, by recursion."""
    if isinstance(node, Atom):
        if node.letter.logical:
            return node.letter.name == "T"
        return assignment[node]
    if isinstance(node, Neg):
        return not ev(node.body, assignment)
    if isinstance(node, ParAnd):
        return all(ev(p, assignment) for p in node.parts)
    if isinstance(node, ParOr):
        return any(ev(p, assignment) for p in node.parts)
    return (not ev(node.lhs, assignment)) or ev(node.rhs, assignment)


def chain(n, drop=None):
    """(p0 /\\ (p0->p1) /\\ ... /\\ (p(n-2)->p(n-1))) -> p(n-1), with the link
    out of p(drop) left out when drop is given."""
    atoms = [Atom(elem_letter(f"p{i}")) for i in range(n)]
    links = tuple(Implies(atoms[i], atoms[i + 1]) for i in range(n - 1) if i != drop)
    return Implies(ParAnd((atoms[0],) + links), atoms[-1])


@pytest.mark.parametrize(
    "text,taut",
    [
        ("p \\/ ~p", True),
        ("p -> p", True),
        ("p \\/ ~q", False),
        ("T", True),
        ("F", False),
        ("F \\/ ~q \\/ (q /\\ T /\\ (r \\/ ~r))", True),
        ("(p /\\ q) \\/ (r /\\ s) -> (p \\/ r) /\\ (q \\/ s)", True),
        ("p(y) -> p(z)", False),
    ],
)
def test_fixtures(text, taut):
    assert kernel.is_tautology(parse(text)) is taut


def test_distinct_atoms_are_independent():
    # same letter, different argument tuples
    assert not kernel.is_tautology(parse("p(0) -> p(1)"))
    assert kernel.is_tautology(parse("p(0) -> p(0)"))


def test_falsifying_assignment_falsifies():
    rng = random.Random(5)
    for _ in range(200):
        f = random_qf_elementary(rng, max_atoms=6, depth=4)
        assignment = kernel.falsifying_assignment(f)
        if assignment is None:
            continue
        assert ev(f, assignment) is False


def test_sweep_returns_lowest_falsifying_index():
    rng = random.Random(17)
    for _ in range(300):
        f = random_qf_elementary(rng, max_atoms=8, depth=4)
        ops, atoms = kernel.compile_program(f)
        expected = next(
            (
                idx
                for idx in range(2 ** len(atoms))
                if not ev(f, {a: bool((idx >> i) & 1) for i, a in enumerate(atoms)})
            ),
            None,
        )
        assert _kernel_py.falsifying(ops, len(atoms)) == expected, pretty(f)


@pytest.mark.parametrize("n", [kernel.MAX_SWEEP_ATOMS - 1, kernel.MAX_SWEEP_ATOMS])
def test_sweep_top_of_range(n):
    taut = chain(n)
    assert len(kernel.compile_program(taut)[1]) == n
    assert kernel.is_tautology(taut)
    for drop in (0, n // 2, n - 2):
        open_f = chain(n, drop)
        assert len(kernel.compile_program(open_f)[1]) == n
        assignment = kernel.falsifying_assignment(open_f)
        assert assignment is not None
        assert ev(open_f, assignment) is False


def negated_3cnf(rng, n):
    """~(C1 /\\ ... /\\ Cm) for m of about 4.3 n random three-literal
    clauses over n atoms: near that ratio the clause set is satisfiable about
    as often as not, and the solver needs conflicts and backjumps."""
    atoms = [Atom(elem_letter(f"p{i}")) for i in range(n)]
    clauses = tuple(
        ParOr(tuple(a if rng.random() < 0.5 else Neg(a) for a in rng.sample(atoms, 3)))
        for _ in range(round(4.3 * n))
    )
    return Neg(ParAnd(clauses))


def test_dpll_agrees_with_sweep():
    rng = random.Random(23)
    formulas = [random_qf_elementary(rng, max_atoms=6, depth=4) for _ in range(200)]
    cnfs = [negated_3cnf(rng, rng.randint(10, 16)) for _ in range(400)]
    constants = [
        random_qf_elementary(rng, max_atoms=rng.randint(1, 6), depth=4, constants=True)
        for _ in range(300)
    ]
    constants += [parse(t) for t in ("T", "F", "~T", "p /\\ p", "p -> p", "F \\/ p", "T /\\ ~p")]
    verdicts = []
    for f in formulas + cnfs + constants:
        ops, atoms = kernel.compile_program(f)
        sweep = _kernel_py.falsifying(ops, len(atoms))
        dpll = kernel._dpll_negation(ops, len(atoms))
        assert (sweep is None) == (dpll is None), pretty(f)
        if dpll is not None:
            assert ev(f, {a: dpll[i] for i, a in enumerate(atoms)}) is False, pretty(f)
        verdicts.append(dpll is None)
    assert set(verdicts[len(formulas) : len(formulas) + len(cnfs)]) == {True, False}
    assert set(verdicts[len(formulas) + len(cnfs) :]) == {True, False}


def test_wide_formula_falls_back_to_dpll():
    n = kernel.MAX_SWEEP_ATOMS + 3
    atoms = [Atom(elem_letter(f"p{i}")) for i in range(n)]
    taut = ParOr(tuple(atoms) + (Neg(atoms[0]),))
    assert kernel.is_tautology(taut)
    open_f = ParOr(tuple(atoms))
    assignment = kernel.falsifying_assignment(open_f)
    assert assignment is not None
    assert not any(assignment[a] for a in atoms)


def test_wide_formula_with_constants_takes_dpll():
    n = kernel.MAX_SWEEP_ATOMS + 3
    atoms = tuple(Atom(elem_letter(f"p{i}")) for i in range(n))
    # a tautology only through its T disjunct, and F among falsifiable disjuncts
    assert kernel.is_tautology(ParOr((TOP,) + atoms))
    assert kernel.is_tautology(Implies(ParAnd(atoms + (BOT,)), atoms[0]))
    open_f = ParOr(atoms + (BOT,))
    assignment = kernel.falsifying_assignment(open_f)
    assert assignment is not None and not any(assignment.values())
    assert ev(open_f, assignment) is False


def test_wide_flat_disjunction_has_no_recursion_limit():
    # about one decision per disjunct: more frames than Python allows if
    # each decision took one
    n = 1200
    parts = tuple(
        ParAnd((Atom(elem_letter(f"a{i}")), Atom(elem_letter(f"b{i}")))) for i in range(n)
    )
    f = ParOr(parts)
    assignment = kernel.falsifying_assignment(f)
    assert assignment is not None
    assert len(assignment) == 2 * n
    assert ev(f, assignment) is False
