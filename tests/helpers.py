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
    BOT,
    QUASIATOM,
    TOP,
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
    is_reasonable,
    letters,
    replace_letter,
    substitute,
)

ELEM_NAMES = ["p", "q", "r", "s"]
GEN_NAMES = ["P", "Q", "R"]


def random_qf_elementary(
    rng: random.Random, max_atoms: int = 8, depth: int = 4, constants: bool = False
) -> Formula:
    """Quantifier-free elementary formula over 0-ary letters; with constants,
    T and F leaves too, and nodes whose two operands are one subformula
    (``g /\\ g``, ``g -> g``)."""
    atoms = [Atom(elem_letter(f"p{i}")) for i in range(max_atoms)]
    if constants:
        atoms += [TOP, BOT]

    def build(d: int) -> Formula:
        if d == 0 or rng.random() < 0.3:
            return rng.choice(atoms)
        kind = rng.randrange(6 if constants else 4)
        if kind >= 4:
            g = build(d - 1)
            return ParAnd((g, g)) if kind == 4 else Implies(g, g)
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


def reference_unreasonable_letters(f: Formula) -> dict:
    """The unreasonable hybrid letters of f, by name, found by asking
    is_reasonable about each hybrid letter with every other one turned back
    into its general letter (is_reasonable reports only the first)."""
    out = {}
    hybrids = [lt for lt in letters(f) if lt.kind == "hybrid"]
    for lt in hybrids:
        g = f
        for other in hybrids:
            if other != lt:
                g = replace_letter(g, other, gen_letter(other.general, other.arity))
        r = is_reasonable(g)
        if r.status == "unreasonable" and r.detail == lt.name:
            out[lt.name] = lt
    return out


# ---------------------------------------------------------------------------
# Reference printer, written by node class rather than from the notation the
# node classes state
# ---------------------------------------------------------------------------

_REFERENCE_SYMBOLS = {BlindAll: "A", BlindEx: "E", ChoAll: "!A", ChoEx: "!E"}


def reference_pretty(g: Formula) -> str:
    if isinstance(g, Atom):
        args = ", ".join(str(t) for t in g.args)
        return f"{g.letter.name}({args})" if g.args else g.letter.name
    if isinstance(g, Neg):
        inner = reference_pretty(g.body)
        return f"~{inner}" if isinstance(g.body, (Atom, Neg)) else f"~({inner})"
    if isinstance(g, (ParAnd, ChoAnd)):
        op = " /\\ " if isinstance(g, ParAnd) else " !/\\ "
        return op.join(
            reference_pretty(p) if isinstance(p, (Atom, Neg)) else f"({reference_pretty(p)})"
            for p in g.parts
        )
    if isinstance(g, (ParOr, ChoOr)):
        op = " \\/ " if isinstance(g, ParOr) else " !\\/ "
        return op.join(
            reference_pretty(p)
            if isinstance(p, (Atom, Neg, ParAnd, ChoAnd))
            else f"({reference_pretty(p)})"
            for p in g.parts
        )
    if isinstance(g, Implies):
        lhs = reference_pretty(g.lhs)
        if isinstance(g.lhs, (Implies, *_QUANTIFIERS)):
            lhs = f"({lhs})"
        return f"{lhs} -> {reference_pretty(g.rhs)}"
    body = reference_pretty(g.body)
    if isinstance(g.body, (ParAnd, ParOr, ChoAnd, ChoOr, Implies)):
        body = f"({body})"
    return f"{_REFERENCE_SYMBOLS[type(g)]} {g.var}. {body}"


# ---------------------------------------------------------------------------
# Reference strategy engine: the loop over closures that played each script
# from the empty run, and the enumeration that replayed every prefix and
# folded the root game again for the environment's moves
# ---------------------------------------------------------------------------


def _reference_step(proof, step_id: int):
    for s in proof.steps:
        if s.id == step_id:
            return s
    raise KeyError(f"no step {step_id}")


def _reference_restrict(valuation: dict[str, int], f: Formula) -> None:
    for z in set(valuation) - f.free_variables:
        del valuation[z]


def reference_extract_and_play(
    proof, interp: Interpretation, env_moves: list[str], max_steps: int = 1000, check: bool = True
):
    from cl4kit.calculus import check_proof, match_a_premise, rule_a_premises
    from cl4kit.games import ResidualState, _wins, advance, parse_move, project, residual
    from cl4kit.strategy import (
        ABORTED,
        ENVIRONMENT_ILLEGAL,
        MACHINE_LOSES,
        MACHINE_WINS,
        MachineState,
        PlayEvent,
        PlayTranscript,
        StrategyError,
        _hybrid_pair,
    )
    from cl4kit.syntax import addr_str, is_blind_free, is_choice, pretty

    if check:
        result = check_proof(proof)
        if not result:
            raise StrategyError(f"proof fails at step {result.step_id}: {result.message}")
        for s in proof.steps:
            if not is_reasonable(s.formula):
                raise StrategyError(f"step {s.id} is not reasonable")
    conclusion = proof.conclusion
    if conclusion.free_variables:
        raise StrategyError("the played formula must be closed")
    if not is_blind_free(conclusion):
        raise StrategyError("certified play requires a blind-free formula")

    current = proof.steps[-1]
    valuation: dict[str, int] = {}
    omega: list[LabMove] = []
    theta: list[LabMove] = []
    events: list = []
    script = list(env_moves)
    position = ResidualState(conclusion)

    def play(*moves: LabMove) -> None:
        nonlocal position
        for m in moves:
            theta.append(m)
            position = position and advance(position, interp, m)

    def snapshot():
        assert set(valuation) == current.formula.free_variables
        return MachineState(current.formula, tuple(omega), tuple(sorted(valuation.items())))

    def record(loop, case, state, before, new) -> None:
        events.append(PlayEvent(loop, case, state, before, tuple(new)))

    def finish(verdict: str, reason: str = ""):
        return PlayTranscript(tuple(theta), events, verdict, reason)

    steps_taken = 0
    while True:
        steps_taken += 1
        if steps_taken > max_steps:
            break
        state = snapshot()
        theta_before = tuple(theta)
        tag = current.rule.tag

        if tag == "B1":
            addr, i = current.rule.addr, current.rule.index
            move = LabMove(TOP_PLAYER, f"{addr_str(addr)}{i}")
            play(move)
            premise = _reference_step(proof, current.premises[0])
            _reference_restrict(valuation, premise.formula)
            current = premise
            record("main", "B1", state, theta_before, [move])
            continue

        if tag == "B2":
            addr, t = current.rule.addr, current.rule.term
            c = t.value if isinstance(t, Const) else valuation.get(t.name, 0)
            move = LabMove(TOP_PLAYER, f"{addr_str(addr)}{c}")
            play(move)
            premise = _reference_step(proof, current.premises[0])
            if isinstance(t, Var) and t.name in premise.formula.free_variables:
                valuation[t.name] = c
            current = premise
            record("main", "B2", state, theta_before, [move])
            continue

        if tag == "Co":
            premise = _reference_step(proof, current.premises[0])
            pos, neg = _hybrid_pair(premise.formula, current.rule.hybrid)
            pi, nu = pos.address, neg.address
            omega_run = tuple(omega)
            pi_payloads = [m.move for m in project(omega_run, pi, "raw")]
            nu_payloads = [m.move for m in project(omega_run, nu, "raw")]
            new_moves = [
                LabMove(TOP_PLAYER, f"{addr_str(pi)}{payload}") for payload in nu_payloads
            ] + [
                LabMove(TOP_PLAYER, f"{addr_str(nu)}{payload}") for payload in pi_payloads
            ]
            play(*new_moves)
            omega.extend(new_moves)
            current = premise
            record("main", "Co", state, theta_before, new_moves)
            continue

        if tag != "A":
            return finish(ABORTED, f"step {current.id} has unsupported rule {tag}")

        if not script:
            break
        entry = script.pop(0)
        if entry == "pass":
            record("inner", "pass", state, theta_before, [])
            break
        env_move = LabMove(BOT_PLAYER, entry)
        after = position and advance(position, interp, env_move)
        if after is None:
            theta.append(env_move)
            record("inner", "env-illegal", state, theta_before, [env_move])
            return finish(ENVIRONMENT_ILLEGAL, f"environment move {entry!r} is illegal")
        parsed = parse_move(current.formula, entry)
        if parsed is None:
            theta.append(env_move)
            record("inner", "env-illegal", state, theta_before, [env_move])
            return finish(ENVIRONMENT_ILLEGAL, f"environment move {entry!r} does not resolve")
        position = after
        occ, payload = parsed
        qa = occ.quasiatom

        if isinstance(qa, Atom) and qa.letter.kind == "general":
            theta.append(env_move)
            omega.append(env_move)
            record("inner", "env-general", state, theta_before, [env_move])
            continue

        if isinstance(qa, Atom) and qa.letter.kind == "hybrid":
            pos, neg = _hybrid_pair(current.formula, qa.letter.name)
            sigma = neg.address if occ.address == pos.address else pos.address
            reply = LabMove(TOP_PLAYER, f"{addr_str(sigma)}{payload}")
            theta.append(env_move)
            play(reply)
            omega.append(env_move)
            omega.append(reply)
            record("inner", "env-hybrid", state, theta_before, [env_move, reply])
            continue

        if is_choice(qa):
            if env_move.player != choice_mover(qa, occ.polarity):
                theta.append(env_move)
                return finish(ENVIRONMENT_ILLEGAL, f"move {entry!r} at a machine choice")
            required = [
                r for r in rule_a_premises(current.formula) if r.occurrence.address == occ.address
            ]
            req = required[int(payload) - 1 if qa.bound_var is None else 0]
            premises = [_reference_step(proof, pid) for pid in current.premises]
            found = match_a_premise(current.formula, req, [p.formula for p in premises])
            if found is None:
                return finish(
                    ABORTED, f"no premise of step {current.id} matches {pretty(req.formula)}"
                )
            premise, y = premises[found[0]], found[1]
            theta.append(env_move)
            if y is None:
                _reference_restrict(valuation, premise.formula)
            elif y in premise.formula.free_variables:
                valuation[y] = int(payload)
            current = premise
            case = "env-choice" if y is None else "env-choice-const"
            record("inner", case, state, theta_before, [env_move])
            continue

        theta.append(env_move)
        return finish(ENVIRONMENT_ILLEGAL, f"move {entry!r} fits no subcase")

    record("main", "final", snapshot(), tuple(theta), [])
    won = _wins(position or residual(conclusion, interp, tuple(theta)), interp)
    return finish(MACHINE_WINS if won else MACHINE_LOSES)


def reference_enumerate_plays(
    proof, interp: Interpretation, max_env_moves: int, max_steps: int = 1000
) -> list:
    from cl4kit.calculus import check_proof
    from cl4kit.strategy import ABORTED, ENVIRONMENT_ILLEGAL, StrategyError

    result = check_proof(proof)
    if not result:
        raise StrategyError(f"proof fails at step {result.step_id}: {result.message}")
    root = proof.conclusion
    out: list = []

    def explore(prefix: list[str]) -> None:
        transcript = reference_extract_and_play(
            proof, interp, prefix + ["pass"], max_steps, check=False
        )
        out.append((prefix + ["pass"], transcript))
        if len(prefix) >= max_env_moves:
            return
        if transcript.verdict in (ENVIRONMENT_ILLEGAL, ABORTED):
            return
        for move in legal_moves(root, interp, transcript.final_run, BOT_PLAYER):
            explore(prefix + [move])

    explore([])
    return out
