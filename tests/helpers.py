"""Shared generators for randomized suites.

Everything is driven by an explicit random.Random so failures reproduce
from the seed printed by the test.
"""

from __future__ import annotations

import random
import re

from cl4kit.games import (
    BOT_PLAYER,
    GeneralDef,
    Interpretation,
    LabMove,
    Run,
    TOP_PLAYER,
    choice_mover,
    legal_moves,
    negate_run,
)
from cl4kit.syntax import (
    QUASIATOM,
    TRANSPARENT,
    Atom,
    BlindAll,
    BlindEx,
    ChoAll,
    ChoAnd,
    ChoEx,
    ChoOr,
    Const,
    Formula,
    Implies,
    Neg,
    Occurrence,
    ParAnd,
    ParOr,
    Var,
    elem_letter,
    gen_letter,
    hybrid_letter,
    substitute,
)

ELEM_NAMES = ["p", "q", "r", "s"]
GEN_NAMES = ["P", "Q", "R"]


def random_qf_elementary(rng: random.Random, max_atoms: int = 8, depth: int = 4) -> Formula:
    """Quantifier-free elementary formula over 0-ary letters."""
    atoms = [Atom(elem_letter(f"p{i}")) for i in range(max_atoms)]

    def build(d: int) -> Formula:
        if d == 0 or rng.random() < 0.3:
            return rng.choice(atoms)
        kind = rng.randrange(4)
        if kind == 0:
            return Neg(build(d - 1))
        if kind == 1:
            return ParAnd(tuple(build(d - 1) for _ in range(rng.randint(2, 3))))
        if kind == 2:
            return ParOr(tuple(build(d - 1) for _ in range(rng.randint(2, 3))))
        return Implies(build(d - 1), build(d - 1))

    return build(depth)


def random_syllogism(rng: random.Random, n_atoms: int) -> Formula:
    """Hypothetical syllogism (g->h)->((h->k)->(g->k)), a tautology, over
    random trees g, h and k that together use all n_atoms 0-ary elementary
    atoms and share about a sixth of them each."""
    atoms = [Atom(elem_letter(f"a{i}")) for i in range(n_atoms)]

    def tree(leaves: list[Formula]) -> Formula:
        if len(leaves) == 1:
            node = leaves[0]
        else:
            cut = rng.randint(1, len(leaves) - 1)
            pair = (tree(leaves[:cut]), tree(leaves[cut:]))
            node = rng.choice((ParAnd(pair), ParOr(pair), Implies(*pair)))
        return Neg(node) if rng.random() < 0.15 else node

    pool = atoms[:]
    rng.shuffle(pool)
    parts = []
    for i in range(3):
        leaves = pool[i::3] + rng.sample(atoms, n_atoms // 6)
        rng.shuffle(leaves)
        parts.append(tree(leaves))
    g, h, k = parts
    return Implies(Implies(g, h), Implies(Implies(h, k), Implies(g, k)))


def random_blindfree(rng: random.Random, depth: int = 3, n_general: int = 2) -> Formula:
    """Closed blind-free formula mixing parallel and choice structure with
    general and elementary 0-ary atoms."""
    leaves = [Atom(gen_letter(GEN_NAMES[i])) for i in range(n_general)]
    leaves += [Atom(elem_letter(n)) for n in ELEM_NAMES[:2]]

    def build(d: int) -> Formula:
        if d == 0 or rng.random() < 0.35:
            return rng.choice(leaves)
        kind = rng.randrange(6)
        if kind == 0:
            return Neg(build(d - 1))
        if kind == 1:
            return ParAnd(tuple(build(d - 1) for _ in range(2)))
        if kind == 2:
            return ParOr(tuple(build(d - 1) for _ in range(2)))
        if kind == 3:
            return Implies(build(d - 1), build(d - 1))
        if kind == 4:
            return ChoAnd(tuple(build(d - 1) for _ in range(2)))
        return ChoOr(tuple(build(d - 1) for _ in range(2)))

    return build(depth)


def random_game_formula(
    rng: random.Random,
    depth: int = 3,
    universe: int = 2,
    with_hybrids: bool = False,
    with_blind: bool = False,
) -> tuple[Formula, Interpretation]:
    """A closed formula paired with an interpretation defining its letters.
    General letters get small interactive defining formulas so both players
    have moves inside atoms."""
    defs = {
        "P": GeneralDef(("x",), ChoOr((Atom(elem_letter("l1", 1), (Var("x"),)),
                                       Atom(elem_letter("l2", 1), (Var("x"),))))),
        "Q": GeneralDef((), ChoAnd((Atom(elem_letter("l3")), Atom(elem_letter("l4"))))),
        "R": GeneralDef((), Atom(elem_letter("l5"))),
    }
    elementary = {}
    for c in range(universe):
        elementary[("l1", (c,))] = rng.random() < 0.5
        elementary[("l2", (c,))] = rng.random() < 0.5
    for name in ("l3", "l4", "l5", "e1", "e2"):
        elementary[(name, ())] = rng.random() < 0.5
    interp = Interpretation(universe=universe, elementary=elementary, general=defs)

    def const() -> Const:
        return Const(rng.randrange(universe))

    def leaf() -> Formula:
        k = rng.randrange(4)
        if k == 0:
            return Atom(gen_letter("P", 1), (const(),))
        if k == 1:
            return Atom(gen_letter("Q"))
        if k == 2:
            return Atom(elem_letter("e1"))
        return Atom(elem_letter("e2"))

    def build(d: int) -> Formula:
        if d == 0 or rng.random() < 0.3:
            return leaf()
        kinds = ["neg", "and", "or", "imp", "cand", "cor", "call", "cex"]
        if with_blind:
            kinds += ["ball", "bex"]
        kind = rng.choice(kinds)
        if kind == "neg":
            return Neg(build(d - 1))
        if kind == "and":
            return ParAnd(tuple(build(d - 1) for _ in range(2)))
        if kind == "or":
            return ParOr(tuple(build(d - 1) for _ in range(2)))
        if kind == "imp":
            return Implies(build(d - 1), build(d - 1))
        if kind == "cand":
            return ChoAnd(tuple(build(d - 1) for _ in range(2)))
        if kind == "cor":
            return ChoOr(tuple(build(d - 1) for _ in range(2)))
        if kind == "call":
            return ChoAll("x", Atom(gen_letter("P", 1), (Var("x"),)))
        if kind == "cex":
            return ChoEx("x", Atom(elem_letter("l1", 1), (Var("x"),)))
        if kind == "ball":
            return BlindAll("x", Atom(elem_letter("l1", 1), (Var("x"),)))
        return BlindEx("x", Atom(elem_letter("l2", 1), (Var("x"),)))

    f = build(depth)
    if with_hybrids:
        c = const()
        pair = ParOr(
            (
                Atom(hybrid_letter("P", "h1", 1), (c,)),
                Neg(Atom(hybrid_letter("P", "h1", 1), (c,))),
            )
        )
        f = ParAnd((pair, f)) if rng.random() < 0.5 else ParOr((f, pair))
    return f, interp


def all_legal_runs(
    f: Formula, interp: Interpretation, max_len: int, cap: int = 20000
) -> list[Run]:
    """Every legal run of the game up to max_len moves (both players)."""
    out: list[Run] = [()]
    frontier: list[Run] = [()]
    for _ in range(max_len):
        nxt: list[Run] = []
        for run in frontier:
            for player in (TOP_PLAYER, BOT_PLAYER):
                for move in legal_moves(f, interp, run, player):
                    extended = run + (LabMove(player, move),)
                    nxt.append(extended)
                    if len(out) + len(nxt) > cap:
                        raise AssertionError("run enumeration exploded; shrink the game")
        out.extend(nxt)
        frontier = nxt
    return out


def random_legal_run(
    rng: random.Random, f: Formula, interp: Interpretation, max_len: int
) -> Run:
    run: Run = ()
    for _ in range(max_len):
        options = []
        for player in (TOP_PLAYER, BOT_PLAYER):
            options.extend((player, m) for m in legal_moves(f, interp, run, player))
        if not options or rng.random() < 0.25:
            break
        player, move = rng.choice(options)
        run = run + (LabMove(player, move),)
    return run


def interleavings(tops: list[LabMove], bots: list[LabMove]) -> list[Run]:
    """All merges of two move sequences keeping each one's internal order."""
    if not tops:
        return [tuple(bots)]
    if not bots:
        return [tuple(tops)]
    first_top = [(tops[0],) + rest for rest in interleavings(tops[1:], bots)]
    first_bot = [(bots[0],) + rest for rest in interleavings(tops, bots[1:])]
    return first_top + first_bot


def rearrangements(run: Run) -> list[Run]:
    tops = [m for m in run if m.player == TOP_PLAYER]
    bots = [m for m in run if m.player == BOT_PLAYER]
    return interleavings(tops, bots)


# ---------------------------------------------------------------------------
# A reference evaluator of runs, independent of games.advance
# ---------------------------------------------------------------------------

_INDEX_RE = re.compile(r"(\d+)\.")


def _number(digits: str) -> int | None:
    try:
        return int(digits)
    except ValueError:  # more digits than int() reads
        return None


def _component(qa: Formula, m: LabMove, universe: int) -> Formula | None:
    """The component of a choice that m, read in the choice's positive view,
    selects; None when m is illegal there."""
    n = _number(m.move) if re.fullmatch(r"\d+", m.move) else None
    if m.player != choice_mover(qa, 1) or n is None:
        return None
    if qa.bound_var is not None:
        return substitute(qa.body, qa.bound_var, Const(n)) if n < universe else None
    return qa.children[n - 1] if 1 <= n <= len(qa.children) else None


def _route(node: Formula, run: Run) -> list[Run] | None:
    """Split a run among the children of a parallel node by each move's
    leading `i.` token, or hand all of it to the body of a transparent one.
    Every subrun comes back in its child's view.  None when a move does not
    route."""
    if node.surface is TRANSPARENT:
        groups = [run]
    else:
        groups = [[] for _ in node.children]
        for m in run:
            im = _INDEX_RE.match(m.move)
            i = _number(im.group(1)) if im else None
            if i is None or not 1 <= i <= len(groups):
                return None
            groups[i - 1].append(LabMove(m.player, m.move[im.end():]))
    return [negate_run(g) if s < 0 else tuple(g) for g, s in zip(groups, node.signs)]


def reference_play(f: Formula, run: Run, interp: Interpretation) -> bool | None:
    """Whether the machine wins the run in the closed game f, or None when
    the run is illegal there.  One descent that routes the whole run down
    the formula's structure: a parallel connective splits it among its
    children, a negation hands its body the negated run, a blind quantifier
    plays its body at every constant, a general or hybrid atom plays its
    defining game, and a choice's first move picks the component the rest
    of the run is played in."""
    if isinstance(f, Atom):
        lt = f.letter
        if lt.kind != "elementary":
            name = lt.general if lt.kind == "hybrid" else lt.name
            game = interp.expand_general(name, tuple(t.value for t in f.args))
            return reference_play(game, run, interp)
        if run:
            return None
        if lt.logical:
            return lt.name == "T"
        return interp.atom_value(lt.name, tuple(t.value for t in f.args))
    if f.surface is QUASIATOM:  # a choice never made is lost by its mover
        if not run:
            return choice_mover(f, 1) == BOT_PLAYER
        component = _component(f, run[0], interp.universe)
        return None if component is None else reference_play(component, run[1:], interp)
    if f.bound_var is not None:
        games = [
            (substitute(f.body, f.bound_var, Const(c)), run, 1) for c in range(interp.universe)
        ]
    else:
        subruns = _route(f, run)
        if subruns is None:
            return None
        games = zip(f.children, subruns, f.signs)
    values = []
    for game, sub, sign in games:
        won = reference_play(game, sub, interp)
        if won is None:
            return None
        values.append(won if sign > 0 else not won)
    return all(values) if f.conjunctive else any(values)


# ---------------------------------------------------------------------------
# Reference walkers of the facts a node caches, uncached and written by node
# class rather than from the node shape
# ---------------------------------------------------------------------------

_QUANTIFIERS = (BlindAll, BlindEx, ChoAll, ChoEx)


def _subformulas_of(f: Formula) -> list[Formula]:
    if isinstance(f, (Neg, *_QUANTIFIERS)):
        return [f.body]
    if isinstance(f, Implies):
        return [f.lhs, f.rhs]
    if isinstance(f, (ParAnd, ParOr, ChoAnd, ChoOr)):
        return list(f.parts)
    return []


def reference_variables(f: Formula) -> set[str]:
    """Every variable name in f, free or bound."""
    if isinstance(f, Atom):
        return {t.name for t in f.args if isinstance(t, Var)}
    out = set().union(*map(reference_variables, _subformulas_of(f)))
    if isinstance(f, _QUANTIFIERS):
        out.add(f.var)
    return out


def reference_free_variables(f: Formula) -> set[str]:
    if isinstance(f, Atom):
        return reference_variables(f)
    out = set().union(*map(reference_free_variables, _subformulas_of(f)))
    if isinstance(f, _QUANTIFIERS):
        out.discard(f.var)
    return out


def reference_surface_occurrences(
    f: Formula, addr: tuple[int, ...] = (), pol: int = 1
) -> list[Occurrence]:
    """The quasiatoms of f, left to right: negations flip the polarity and
    blind quantifiers pass it on; the parallel connectives add one address
    index, and an implication's antecedent is negative."""
    if isinstance(f, Neg):
        return reference_surface_occurrences(f.body, addr, -pol)
    if isinstance(f, (BlindAll, BlindEx)):
        return reference_surface_occurrences(f.body, addr, pol)
    if isinstance(f, Implies):
        return reference_surface_occurrences(
            f.lhs, addr + (1,), -pol
        ) + reference_surface_occurrences(f.rhs, addr + (2,), pol)
    if isinstance(f, (ParAnd, ParOr)):
        return [
            occ
            for i, part in enumerate(f.parts, start=1)
            for occ in reference_surface_occurrences(part, addr + (i,), pol)
        ]
    return [Occurrence(addr, f, pol)]
