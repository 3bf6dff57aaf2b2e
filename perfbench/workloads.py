"""Inputs, timed work and output checks of the benchmark's workloads.

A workload is built from a seed into a list of items.  An item's ``run``
is the timed work; its ``check`` runs afterwards, untimed, and raises
``CheckFailed`` when the output is wrong.  Every check compares against
the paper's exercise table, a property the method must have, or a
computation made apart from the program; none compares against a saved
copy of earlier output.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from cl4kit.calculus import CL4O, check_proof, make_reasonable, to_cl4o
from cl4kit.decide import decide_blindfree
from cl4kit.games import GeneralDef, Interpretation
from cl4kit.strategy import assert_claim1, enumerate_plays
from cl4kit.syntax import (
    Atom,
    ChoAnd,
    ChoOr,
    Formula,
    Implies,
    Neg,
    ParAnd,
    ParOr,
    Var,
    aggregate_complexity,
    elem_letter,
    gen_letter,
    is_reasonable,
    letters,
    parse,
    subformulas,
)
from cl4kit.translate import floorify, is_good, lift, signature_for

import qfeval

# The paper's exercise table for blind-free formulas.  Clauses 6, 8 and 16
# are provable but their lifted forms take 17 s or more to decide, so
# decide-lifted uses only the clauses whose lifted forms finish.
EXERCISES = {
    1: ("P \\/ ~P", "provable"),
    2: ("P !\\/ ~P", "unprovable"),
    3: ("P /\\ P -> P", "provable"),
    4: ("P -> P /\\ P", "unprovable"),
    5: ("P -> P !/\\ P", "provable"),
    6: ("(P !\\/ Q) /\\ (P !\\/ R) -> P !\\/ (Q /\\ R)", "provable"),
    7: ("P !\\/ (Q /\\ R) -> (P !\\/ Q) /\\ (P !\\/ R)", "unprovable"),
    8: ("p !\\/ (Q /\\ R) -> (p !\\/ Q) /\\ (p !\\/ R)", "provable"),
    9: ("p !/\\ (Q /\\ R) -> (p !/\\ Q) /\\ (p !/\\ R)", "unprovable"),
    15: ("(!A x. (P(x) /\\ Q(x))) -> (!A x. P(x)) /\\ (!A x. Q(x))", "unprovable"),
    16: (
        "(!A x. ((P(x) /\\ (!A x. Q(x))) !/\\ ((!A x. P(x)) /\\ Q(x))))"
        " -> (!A x. P(x)) /\\ (!A x. Q(x))",
        "provable",
    ),
}

# Every workload has two items per pass, each a second or more, so that
# item_p50_ms, the mean of the two items' medians, covers the whole pass:
# on a host whose speed wanders over seconds, a median item of 0.1 to 1 s
# read up to 30% apart between runs.  decide-lifted: clause 15 (about
# 6.5 s), and the other clauses with the random formulas (about 4 s).
LIFTED_ITEMS = ((1, 2, 3, 4, 5, 7, 9), (15,))
# prove-play: clauses 1, 3, 5, 6 and 8 (about 0.6 s), and clause 16.
PLAY_ITEMS = ((1, 3, 5, 6, 8), (16,))

# decide-lifted's seeded random formulas have exactly two general-atom
# occurrences: lifted forms with three or more take from milliseconds to
# minutes, so one seed would draw a slow one and the next would not.  They
# are also drawn unprovable, so that proof_steps counts the exercise proofs
# and does not swing with how many random formulas happen to be provable.
RANDOM_FORMULAS = 32
RANDOM_DEPTH = 3
RANDOM_GENERAL_OCCURRENCES = 2

MAX_ENV_MOVES = 4

# decide-wide atom counts: kernel.MAX_SWEEP_ATOMS is 22, so inputs of up to
# 20 atoms go to the bigint sweep and wider ones to DPLL.  Left out: 22
# atoms, where the sweep takes about 22 s, and syllogisms wider than the
# sweep, which DPLL takes from 0.03 s to over 8 s to decide at 24 to 32
# atoms depending on the seed.  Two items: the narrow inputs (up to 20
# atoms) and the wide ones.
CHAIN_ATOMS = (16, 18, 20, 24, 64, 128, 256)
SYLLOGISM_ATOMS = (10, 16, 19)
FALSIFIED_ATOMS = (10, 16, 19, 40, 200, 300)
NARROW_ATOMS = 20
SPOT_ASSIGNMENTS = 8


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Item:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    steps: Callable[[Any], int]


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


def _renaming(rng: random.Random) -> dict[str, str]:
    """Fresh names for the exercise letters P, Q, R (general) and p
    (elementary), so that no two seeds decide the same input text."""
    numbers = rng.sample(range(10, 100), 4)
    return {
        "P": f"K{numbers[0]}",
        "Q": f"K{numbers[1]}",
        "R": f"K{numbers[2]}",
        "p": f"k{numbers[3]}",
    }


def _rename(text: str, names: dict[str, str]) -> str:
    return re.sub(r"\b[PQRp]\b", lambda m: names[m.group(0)], text)


def _label(clauses: tuple[int, ...]) -> str:
    return ("clause-" if len(clauses) == 1 else "clauses-") + "-".join(map(str, clauses))


def _decide(f: Formula) -> tuple[Any, dict]:
    stats: dict = {}
    return decide_blindfree(f, stats=stats), stats


def _decide_all(formulas: list[Formula]) -> list:
    return [_decide(f) for f in formulas]


def _proof_steps(out: list) -> int:
    return sum(len(d.proof.steps) for d, _ in out if d.is_provable)


def _check_decision(
    f: Formula, decision, stats: dict, expected: str, what: str, accepted: dict
) -> None:
    """Check one verdict.  `accepted` maps inputs to the proofs that
    check_proof has accepted for them in earlier passes: a proof equal to
    one of those is not checked again, since checking a wide proof takes as
    long as finding it and would crowd timed work out of a run."""
    require(decision.status == expected, f"{what}: {decision.status}, expected {expected}")
    bound = aggregate_complexity(f) + 1
    require(stats["depth_bound"] == bound, f"{what}: depth bound {stats['depth_bound']} != {bound}")
    require(stats["max_depth"] <= bound, f"{what}: depth {stats['max_depth']} exceeds {bound}")
    if decision.is_provable:
        require(decision.proof.conclusion == f, f"{what}: proof concludes another formula")
        if accepted.get(f) != decision.proof:
            result = check_proof(decision.proof)
            require(result.ok, f"{what}: proof fails at step {result.step_id}: {result.message}")
            accepted[f] = decision.proof


def _lift_checked(f: Formula) -> Formula:
    sig = signature_for(f)
    lifted = lift(f, sig)
    require(bool(is_good(lifted, sig)), "lifted formula is not good")
    require(floorify(lifted, sig) == f, "floorify(lift(f)) != f")
    return lifted


def _general_occurrences(f: Formula) -> int:
    return sum(1 for g in subformulas(f) if isinstance(g, Atom) and g.letter.kind == "general")


def random_blindfree(rng: random.Random, leaves: list[Formula], depth: int) -> Formula:
    """Closed blind-free formula mixing parallel and choice structure."""

    def build(d: int) -> Formula:
        if d == 0 or rng.random() < 0.35:
            return rng.choice(leaves)
        kind = rng.randrange(6)
        if kind == 0:
            return Neg(build(d - 1))
        pair = (build(d - 1), build(d - 1))
        if kind == 1:
            return ParAnd(pair)
        if kind == 2:
            return ParOr(pair)
        if kind == 3:
            return Implies(*pair)
        if kind == 4:
            return ChoAnd(pair)
        return ChoOr(pair)

    return build(depth)


# ---------------------------------------------------------------------------
# decide-lifted
# ---------------------------------------------------------------------------


def _check_lifted(
    cases: list[tuple[Formula, Formula, str]], reference: dict, accepted: dict, out
) -> None:
    for (f, lifted, expected), (decision, stats) in zip(cases, out):
        if f not in reference:
            reference[f] = decide_blindfree(f).status
        require(reference[f] == expected, f"unlifted: {reference[f]}, expected {expected}")
        _check_decision(lifted, decision, stats, expected, "lifted", accepted)


def build_decide_lifted(seed: int) -> list[Item]:
    rng = random.Random(seed)
    names = _renaming(rng)
    groups = []
    for clauses in LIFTED_ITEMS:
        cases = []
        for clause in clauses:
            text, expected = EXERCISES[clause]
            f = parse(_rename(text, names))
            cases.append((f, _lift_checked(f), expected))
        groups.append([_label(clauses), cases, {}])
    leaves = [Atom(gen_letter(names["P"])), Atom(gen_letter(names["Q"]))]
    leaves += [Atom(elem_letter(names["p"])), Atom(elem_letter("k0"))]
    randoms = []
    while len(randoms) < RANDOM_FORMULAS:
        f = random_blindfree(rng, leaves, RANDOM_DEPTH)
        if _general_occurrences(f) != RANDOM_GENERAL_OCCURRENCES:
            continue
        # Drawn unprovable, and lifting keeps unprovability.
        if _decide(f)[0].status != "unprovable":
            continue
        randoms.append((f, _lift_checked(f), "unprovable"))
    groups[0][0] += "-random"
    groups[0][1] += randoms
    groups[0][2].update((f, "unprovable") for f, _, _ in randoms)
    items = [
        Item(
            label,
            partial(_decide_all, [lifted for _, lifted, _ in cases]),
            partial(_check_lifted, cases, reference, {}),
            _proof_steps,
        )
        for label, cases, reference in groups
    ]
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# prove-play
# ---------------------------------------------------------------------------


def _interpretations(f: Formula, names: dict[str, str]) -> list[Interpretation]:
    """Three desk-scale interpretations of the letters of f: general letters
    defined as an elementary atom, as a choice disjunction of two, and as a
    choice conjunction of two.  Truth values follow the letters' places in
    the exercise table (P, Q, R), not their seeded names, so every seed
    plays the same games."""
    place = {new: i for i, new in enumerate(names[old] for old in "PQR")}
    gens = sorted({(lt.name, lt.arity) for lt in letters(f) if lt.kind == "general"})
    elems = sorted(
        {(lt.name, lt.arity) for lt in letters(f) if lt.kind == "elementary" and not lt.logical}
    )

    def atom(name: str, arity: int) -> Atom:
        return Atom(elem_letter(name, arity), tuple(Var(f"x{i}") for i in range(arity)))

    shapes = [
        (1, True, lambda g, ar: atom(g, ar)),
        (2, True, lambda g, ar: ChoOr((atom(g + "1", ar), atom(g + "2", ar)))),
        (2, False, lambda g, ar: ChoAnd((atom(g + "1", ar), atom(g + "2", ar)))),
    ]
    out = []
    for universe, first, body in shapes:
        general = {}
        elementary = {}
        for name, arity in gens:
            g = f"g{name.lower()}"
            general[name] = GeneralDef(tuple(f"x{i}" for i in range(arity)), body(g, arity))
            value = first == (place[name] % 2 == 0)
            for combo in _combos(universe, arity):
                elementary[(g, combo)] = value
                elementary[(g + "1", combo)] = value
                elementary[(g + "2", combo)] = not value
        for name, arity in elems:
            for combo in _combos(universe, arity):
                elementary[(name, combo)] = True
        out.append(Interpretation(universe=universe, elementary=elementary, general=general))
    return out


def _combos(universe: int, arity: int) -> list[tuple[int, ...]]:
    combos: list[tuple[int, ...]] = [()]
    for _ in range(arity):
        combos = [c + (v,) for c in combos for v in range(universe)]
    return combos


def _prove_and_play(f: Formula, interps: list[Interpretation]):
    decision, stats = _decide(f)
    proof = make_reasonable(to_cl4o(decision.proof))
    checked = check_proof(proof)
    plays = []
    for interp in interps:
        for script, transcript in enumerate_plays(proof, interp, MAX_ENV_MOVES):
            plays.append((script, transcript, assert_claim1(transcript, proof, interp)))
    return decision, stats, proof, checked, plays


def _prove_and_play_all(cases: list[tuple[Formula, list[Interpretation]]]) -> list:
    return [_prove_and_play(f, interps) for f, interps in cases]


def _check_play(formulas: list[Formula], accepted: dict, out) -> None:
    for f, (decision, stats, proof, checked, plays) in zip(formulas, out):
        _check_decision(f, decision, stats, "provable", "decide", accepted)
        require(proof.system == CL4O, f"transformed proof is {proof.system}, not CL4o")
        require(checked.ok, f"transformed proof fails at step {checked.step_id}: {checked.message}")
        require(proof.conclusion == f, "transformed proof concludes another formula")
        require(
            all(is_reasonable(s.formula) for s in proof.steps), "transformed proof is not reasonable"
        )
        require(bool(plays), "no plays enumerated")
        for script, transcript, claim in plays:
            require(
                transcript.verdict in ("machine-wins", "environment-illegal"),
                f"play {script}: {transcript.verdict} ({transcript.reason})",
            )
            require(claim.ok, f"play {script}: Claim 1 fails at iteration {claim.iteration}")


def build_prove_play(seed: int) -> list[Item]:
    rng = random.Random(seed)
    names = _renaming(rng)
    items = []
    for group in PLAY_ITEMS:
        formulas = [parse(_rename(EXERCISES[clause][0], names)) for clause in group]
        items.append(
            Item(
                _label(group),
                partial(_prove_and_play_all, [(f, _interpretations(f, names)) for f in formulas]),
                partial(_check_play, formulas, {}),
                lambda out: sum(len(proof.steps) for _, _, proof, _, _ in out),
            )
        )
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# decide-wide
# ---------------------------------------------------------------------------


def _atom(name: str) -> Atom:
    return Atom(elem_letter(name))


def _names(rng: random.Random, n: int) -> list[str]:
    return [f"a{j}" for j in rng.sample(range(10 * n), n)]


def _chain(names: list[str], drop: int | None) -> Formula:
    """(a0 /\\ (a0->a1) /\\ ... ) -> a(n-1), without link drop->drop+1 when
    drop is given."""
    hyps: list[Formula] = [_atom(names[0])]
    hyps += [
        Implies(_atom(names[i]), _atom(names[i + 1]))
        for i in range(len(names) - 1)
        if i != drop
    ]
    return Implies(ParAnd(tuple(hyps)), _atom(names[-1]))


def _random_tree(rng: random.Random, leaves: list[Formula]) -> Formula:
    """Random formula over the leaves, each used once, in order."""
    if len(leaves) == 1:
        node = leaves[0]
    else:
        cut = rng.randint(1, len(leaves) - 1)
        pair = (_random_tree(rng, leaves[:cut]), _random_tree(rng, leaves[cut:]))
        node = rng.choice((ParAnd(pair), ParOr(pair), Implies(*pair)))
    return Neg(node) if rng.random() < 0.15 else node


def _valued_tree(rng: random.Random, leaves: list[str], value: bool, sigma: dict) -> Formula:
    """Random formula over the leaves, each used once, whose value under
    sigma is `value` by construction."""
    if len(leaves) == 1:
        atom = _atom(leaves[0])
        return atom if sigma[leaves[0]] == value else Neg(atom)
    if rng.random() < 0.1:
        return Neg(_valued_tree(rng, leaves, not value, sigma))
    cut = rng.randint(1, len(leaves) - 1)
    left, right = leaves[:cut], leaves[cut:]
    kind = rng.randrange(3)
    free = rng.random() < 0.5
    if kind == 0:  # conjunction: true iff both parts are
        targets = (True, True) if value else rng.choice(((False, free), (free, False)))
    elif kind == 1:  # disjunction: false iff both parts are
        targets = (False, False) if not value else rng.choice(((True, free), (free, True)))
    else:  # implication: false iff lhs true and rhs false
        targets = (True, False) if not value else rng.choice(((False, free), (free, True)))
    pair = (_valued_tree(rng, left, targets[0], sigma), _valued_tree(rng, right, targets[1], sigma))
    if kind == 2:
        return Implies(*pair)
    return (ParAnd, ParOr)[kind](pair)


def _syllogism(rng: random.Random, names: list[str]) -> Formula:
    """(g->h)->((h->k)->(g->k)) over random g, h, k that together use every
    name."""
    pool = names[:]
    rng.shuffle(pool)
    parts = []
    for i in range(3):
        leaves = pool[i::3] + rng.sample(names, len(names) // 6)
        rng.shuffle(leaves)
        parts.append(_random_tree(rng, [_atom(n) for n in leaves]))
    g, h, k = parts
    return Implies(Implies(g, h), Implies(Implies(h, k), Implies(g, k)))


def _check_wide(cases: list, accepted: dict, out) -> None:
    for (f, expected, sigma, spot), (decision, stats) in zip(cases, out):
        if expected == "unprovable":
            require(qfeval.evaluate(f, sigma) is False, "stated assignment does not falsify the input")
        for assignment in spot:
            require(qfeval.evaluate(f, assignment), "tautology by construction evaluates false")
        _check_decision(f, decision, stats, expected, "decide", accepted)


def build_decide_wide(seed: int) -> list[Item]:
    rng = random.Random(seed)
    cases = []  # (atom count, formula, expected status, falsifying assignment)
    for n in CHAIN_ATOMS:
        names = _names(rng, n)
        cases.append((n, _chain(names, None), "provable", {}))
        drop = n // 2
        sigma = {name: i <= drop for i, name in enumerate(names)}
        cases.append((n, _chain(names, drop), "unprovable", sigma))
    for n in SYLLOGISM_ATOMS:
        cases.append((n, _syllogism(rng, _names(rng, n)), "provable", {}))
    for n in FALSIFIED_ATOMS:
        names = _names(rng, n)
        sigma = {name: rng.random() < 0.5 for name in names}
        leaves = names + rng.choices(names, k=n // 2)
        rng.shuffle(leaves)
        cases.append((n, _valued_tree(rng, leaves, False, sigma), "unprovable", sigma))
    groups: dict[str, list] = {}
    for n, f, expected, sigma in cases:
        spot = []
        if expected == "provable":
            names = sorted(qfeval.atom_names(f))
            spot = [{name: rng.random() < 0.5 for name in names} for _ in range(SPOT_ASSIGNMENTS)]
        label = "narrow" if n <= NARROW_ATOMS else "wide"
        groups.setdefault(label, []).append((f, expected, sigma, spot))
    items = [
        Item(
            label,
            partial(_decide_all, [f for f, _, _, _ in group]),
            partial(_check_wide, group, {}),
            _proof_steps,
        )
        for label, group in groups.items()
    ]
    rng.shuffle(items)
    return items


WORKLOADS = {
    "decide-lifted": build_decide_lifted,
    "prove-play": build_prove_play,
    "decide-wide": build_decide_wide,
}
