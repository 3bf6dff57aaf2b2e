"""Runs and formula-shaped finite constant games: projections, top-delay,
manageability, legality and winner, and residual states.

A labmove is a player tag ("T" for the machine, "B" for the environment)
plus a move string.  Move strings are read against a formula by walking
from the root: dot-separated numeric tokens index children of parallel
nodes (negation and blind quantifiers are transparent), and the walk stops
at the first quasiatom; whatever remains is the payload.

Games are finite: choice quantifiers range over the interpretation's
universe {0..U-1}, and blind quantifiers evaluate as conjunction or
disjunction over it.

Legality and winner come from one descent over the formula, which states
each operator's rule once: a parallel connective splits the run among its
children, a negation hands its body the negated run, a blind quantifier
plays its body at every constant, a general or hybrid atom plays its
defining game, and a choice's first move picks the component the rest of
the run is played in.  `residual` replays the run once, move by move.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from itertools import takewhile

from .syntax import (
    Address,
    Atom,
    PARALLEL,
    QUASIATOM,
    TRANSPARENT,
    BlindAll,
    ChoAll,
    ChoAnd,
    ChoEx,
    ChoOr,
    Const,
    Formula,
    Occurrence,
    ParAnd,
    addr_str,
    apply_valuation,
    atoms,
    free_variables,
    is_blind_free,
    is_reasonable,
    parse,
    pretty,
    replace_at,
    resolve,
    substitute,
    substitute_all,
    surface_occurrences,
    surface_path,
)

TOP_PLAYER = "T"
BOT_PLAYER = "B"


def flip(player: str) -> str:
    """The other player; a tag that names neither is kept."""
    return BOT_PLAYER if player == TOP_PLAYER else TOP_PLAYER if player == BOT_PLAYER else player


@dataclass(frozen=True)
class LabMove:
    player: str
    move: str

    def __str__(self) -> str:
        return f"{self.player}:{self.move}"


Run = tuple[LabMove, ...]


def run_of(*moves: tuple[str, str]) -> Run:
    return tuple(LabMove(p, m) for p, m in moves)


def negate_run(run: Run) -> Run:
    return tuple(LabMove(flip(m.player), m.move) for m in run)


def project(run: Run, addr: Address, mode: str = "raw", of: Formula | None = None) -> Run:
    """raw: keep addr-prefixed moves, prefix stripped.  delete: drop them.
    signed: raw, negated when the quasiatom at addr is negative in `of`."""
    prefix = addr_str(addr)
    if mode == "raw":
        return tuple(
            LabMove(m.player, m.move[len(prefix):])
            for m in run
            if m.move.startswith(prefix)
        )
    if mode == "delete":
        return tuple(m for m in run if not m.move.startswith(prefix))
    if mode == "signed":
        if of is None:
            raise ValueError("signed projection needs the enclosing formula")
        occ = resolve(of, addr)
        raw = project(run, addr, "raw")
        return negate_run(raw) if occ.polarity < 0 else raw
    raise ValueError(f"unknown projection mode {mode!r}")


# ---------------------------------------------------------------------------
# Interpretations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneralDef:
    """Defining formula of a general letter over its canonical parameters."""

    params: tuple[str, ...]
    body: Formula

    def __post_init__(self) -> None:
        if len(set(self.params)) != len(self.params):
            raise ValueError(f"repeated parameter in {list(self.params)}")
        if not is_blind_free(self.body):
            raise ValueError("defining formulas must be blind-free")
        for a in atoms(self.body):
            if a.letter.kind != "elementary":
                raise ValueError("defining formulas range over elementary letters only")
        extra = free_variables(self.body) - set(self.params)
        if extra:
            raise ValueError(f"defining formula uses non-parameter variables {sorted(extra)}")


@dataclass
class Interpretation:
    """A finite constant game for every letter: a universe {0..U-1}, a
    truth table for ground elementary atoms (default false), and a
    defining formula per general letter."""

    universe: int = 1
    elementary: dict[tuple[str, tuple[int, ...]], bool] = field(default_factory=dict)
    general: dict[str, GeneralDef] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.universe < 1:
            raise ValueError("universe must have at least one constant")

    def atom_value(self, name: str, args: tuple[int, ...]) -> bool:
        return self.elementary.get((name, args), False)

    def expand_general(self, name: str, args: tuple[int, ...]) -> Formula:
        if name not in self.general:
            raise KeyError(f"general letter {name} has no interpretation")
        d = self.general[name]
        if len(args) != len(d.params):
            raise ValueError(f"letter {name} applied to {len(args)} arguments")
        return substitute_all(d.body, {p: Const(c) for p, c in zip(d.params, args)})

    def to_json(self) -> dict:
        return {
            "universe": self.universe,
            "elementary": {
                (f"{name}({', '.join(map(str, args))})" if args else name): value
                for (name, args), value in self.elementary.items()
            },
            "general": {
                name: {"params": list(d.params), "body": pretty(d.body)}
                for name, d in self.general.items()
            },
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Interpretation":
        """Raises ValueError on a malformed document."""
        if not isinstance(doc, dict):
            raise ValueError("an interpretation must be a JSON object")
        try:
            elementary: dict[tuple[str, tuple[int, ...]], bool] = {}
            for key, value in doc.get("elementary", {}).items():
                m = re.fullmatch(r"([a-z][A-Za-z0-9_]*)(?:\(([\d,\s]*)\))?", key.strip())
                if not m:
                    raise ValueError(f"bad elementary atom key {key!r}")
                name, argstr = m.group(1), m.group(2)
                args = tuple(int(s) for s in argstr.split(",")) if argstr else ()
                elementary[(name, args)] = bool(value)
            general = {
                name: GeneralDef(tuple(entry["params"]), parse(entry["body"]))
                for name, entry in doc.get("general", {}).items()
            }
            universe = doc.get("universe", 1)
        except KeyError as ex:
            raise ValueError(f"malformed interpretation: missing {ex}") from None
        except (AttributeError, TypeError) as ex:
            raise ValueError(f"malformed interpretation: {ex}") from None
        if type(universe) is not int:
            raise ValueError(f"universe must be an integer, not {universe!r}")
        return cls(universe, elementary, general)


def load_interpretation(path: str) -> Interpretation:
    with open(path) as fh:
        return Interpretation.from_json(json.load(fh))


def run_from_json(doc: list) -> Run:
    """Raises ValueError unless doc is a list of {"player", "move"} objects
    with string values."""
    if not isinstance(doc, list) or not all(
        isinstance(entry, dict)
        and isinstance(entry.get("player"), str)
        and isinstance(entry.get("move"), str)
        for entry in doc
    ):
        raise ValueError('a run must be a JSON list of {"player": ..., "move": ...} strings')
    return tuple(LabMove(entry["player"], entry["move"]) for entry in doc)


def load_run(path: str) -> Run:
    with open(path) as fh:
        return run_from_json(json.load(fh))


# ---------------------------------------------------------------------------
# Move parsing
# ---------------------------------------------------------------------------


_INDEX_RE = re.compile(r"(\d+)\.")


def parse_move(f: Formula, move: str) -> tuple[Occurrence, str] | None:
    """Resolve a move string against f: walk parallel structure by its
    leading `i.` tokens, stop at the first quasiatom, return it plus the
    remaining payload.  None when the string does not resolve."""
    indices = map(int, takewhile(str.isdecimal, move.split(".")[:-1]))
    try:
        _, occ = surface_path(f, indices)
    except (KeyError, ValueError):  # ValueError: more digits than int() reads
        return None
    return occ, move.split(".", len(occ.address))[-1]


def choice_mover(qa: Formula, polarity: int) -> str:
    """Which player resolves this choice quasiatom at this polarity."""
    if isinstance(qa, (ChoAnd, ChoAll)):
        return BOT_PLAYER if polarity > 0 else TOP_PLAYER
    if isinstance(qa, (ChoOr, ChoEx)):
        return TOP_PLAYER if polarity > 0 else BOT_PLAYER
    raise ValueError("not a choice quasiatom")


def _natural(digits: str) -> int | None:
    """The number a move's digit string spells; None when it has more digits
    than int() reads (sys.get_int_max_str_digits), so the move is illegal."""
    try:
        return int(digits)
    except ValueError:
        return None


def _instance(q: Formula, c: int) -> Formula:
    """A quantifier's body at the constant c."""
    return substitute(q.body, q.var, Const(c))


def _choice_component(qa: Formula, m: LabMove, universe: int) -> Formula | None:
    """The component of the choice quasiatom qa that the move m selects, m
    read in qa's positive view; None when m is illegal there: the wrong
    player or a bad payload."""
    if m.player != choice_mover(qa, 1) or not re.fullmatch(r"\d+", m.move):
        return None
    n = _natural(m.move)
    if n is None:
        return None
    if qa.bound_var is not None:
        return _instance(qa, n) if n < universe else None
    return qa.parts[n - 1] if 1 <= n <= len(qa.parts) else None


# ---------------------------------------------------------------------------
# Legality and winner
# ---------------------------------------------------------------------------


def _expansion(atom: Atom, interp: Interpretation) -> Formula:
    """The game a closed general or hybrid atom stands for."""
    lt = atom.letter
    name = lt.general if lt.kind == "hybrid" else lt.name
    return interp.expand_general(name, tuple(t.value for t in atom.args))


def _route(node: Formula, run: Run) -> list[Run] | None:
    """Split a run among the children of a parallel node by each move's
    leading `i.` token, or hand all of it to the body of a transparent one.
    Every subrun comes back in its child's view: negated where the child's
    sign is -1.  None when some move does not route."""
    if node.surface is TRANSPARENT:
        groups = [run]
    else:
        width = len(node.children)
        groups = [[] for _ in range(width)]
        for m in run:
            im = _INDEX_RE.match(m.move)
            if not im:
                return None
            i = _natural(im.group(1))
            if i is None or not 1 <= i <= width:
                return None
            groups[i - 1].append(LabMove(m.player, m.move[im.end():]))
    return [negate_run(g) if s < 0 else tuple(g) for g, s in zip(groups, node.signs)]


def _play(f: Formula, run: Run, interp: Interpretation) -> bool | None:
    """Whether the machine wins the run in the closed game f, or None when
    the run is not legal there."""
    if isinstance(f, Atom):
        if f.letter.kind != "elementary":
            return _play(_expansion(f, interp), run, interp)
        if run:
            return None
        if f.letter.logical:
            return f.letter.name == "T"
        return interp.atom_value(f.letter.name, tuple(t.value for t in f.args))
    if f.surface is QUASIATOM:
        # a choice: its first move picks the component the rest of the run
        # is played in; a choice never made is lost by the player who owed it
        if not run:
            return choice_mover(f, 1) == BOT_PLAYER
        component = _choice_component(f, run[0], interp.universe)
        if component is None:
            return None
        return _play(component, run[1:], interp)
    if f.bound_var is not None:  # blind: the body is played at every constant
        games = [(_instance(f, c), run, 1) for c in range(interp.universe)]
    else:
        subruns = _route(f, run)
        if subruns is None:
            return None
        games = zip(f.children, subruns, f.signs)
    values = []
    for game, sub, sign in games:
        won = _play(game, sub, interp)
        if won is None:
            return None
        values.append(won if sign > 0 else not won)
    # parallel and blind conjunctions need every game won; the rest need one
    return all(values) if isinstance(f, (ParAnd, BlindAll)) else any(values)


def is_unilegal(
    f: Formula, interp: Interpretation, run: Run, valuation: dict[str, int] | None = None
) -> bool:
    """Legality of the run in the game f denotes (an unresolvable move
    makes the run illegal rather than raising)."""
    return _play(apply_valuation(f, valuation or {}), run, interp) is not None


def winner(
    f: Formula, interp: Interpretation, run: Run, valuation: dict[str, int] | None = None
) -> str:
    """Who wins the (unilegal) run: "T" or "B"."""
    won = _play(apply_valuation(f, valuation or {}), run, interp)
    if won is None:
        raise ValueError("winner is defined for unilegal runs only")
    return TOP_PLAYER if won else BOT_PLAYER


# ---------------------------------------------------------------------------
# Top-delay
# ---------------------------------------------------------------------------


def is_top_delay(d: Run, g: Run) -> bool:
    """Is d a rescheduling of g in which the machine moves no earlier?
    Both players keep their own move subsequences; no machine move may jump
    before an environment move it followed in g."""
    d_top = [m.move for m in d if m.player == TOP_PLAYER]
    g_top = [m.move for m in g if m.player == TOP_PLAYER]
    d_bot = [m.move for m in d if m.player == BOT_PLAYER]
    g_bot = [m.move for m in g if m.player == BOT_PLAYER]
    if d_top != g_top or d_bot != g_bot:
        return False

    def positions(run: Run, player: str) -> list[int]:
        return [i for i, m in enumerate(run) if m.player == player]

    d_top_pos, d_bot_pos = positions(d, TOP_PLAYER), positions(d, BOT_PLAYER)
    g_top_pos, g_bot_pos = positions(g, TOP_PLAYER), positions(g, BOT_PLAYER)
    for n, gt in enumerate(g_top_pos):
        for k, gb in enumerate(g_bot_pos):
            if gt > gb and d_top_pos[n] < d_bot_pos[k]:
                return False
    return True


# ---------------------------------------------------------------------------
# Manageability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Manageability:
    ok: bool
    clause: int | None = None
    address: str = ""
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def hybrid_pairs(e: Formula) -> list[tuple[Occurrence, Occurrence]]:
    """(positive, negative) surface occurrence pairs per hybrid letter."""
    by_letter: dict[str, list[Occurrence]] = {}
    for occ in surface_occurrences(e):
        if isinstance(occ.quasiatom, Atom) and occ.quasiatom.letter.kind == "hybrid":
            by_letter.setdefault(occ.quasiatom.letter.name, []).append(occ)
    out = []
    for name, occs in sorted(by_letter.items()):
        pos = next(o for o in occs if o.polarity > 0)
        neg = next(o for o in occs if o.polarity < 0)
        out.append((pos, neg))
    return out


def is_manageable(e: Formula, run: Run) -> Manageability:
    """The three manageability clauses: play confined to general/hybrid
    quasiatoms, matched hybrid subplays mutual delays, no machine moves in
    unmatched general atoms."""
    if not is_reasonable(e):
        raise ValueError("manageability is defined for reasonable hyperformulas")
    for m in run:
        parsed = parse_move(e, m.move)
        if parsed is None:
            return Manageability(False, 1, m.move, "move does not resolve")
        occ, _payload = parsed
        qa = occ.quasiatom
        if not (isinstance(qa, Atom) and qa.letter.kind in ("general", "hybrid")):
            return Manageability(
                False, 1, addr_str(occ.address), "move outside general/hybrid quasiatoms"
            )
    for pos, neg in hybrid_pairs(e):
        d = project(run, pos.address, "raw")
        g = negate_run(project(run, neg.address, "raw"))
        if not is_top_delay(d, g):
            return Manageability(
                False, 2, addr_str(pos.address), "hybrid subplays are not mutual delays"
            )
    for occ in surface_occurrences(e):
        qa = occ.quasiatom
        if isinstance(qa, Atom) and qa.letter.kind == "general":
            sub = project(run, occ.address, "raw")
            if any(m.player == TOP_PLAYER for m in sub):
                return Manageability(
                    False, 3, addr_str(occ.address), "machine moved in a general quasiatom"
                )
    return Manageability(True)


# ---------------------------------------------------------------------------
# Residual states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidualState:
    """What remains of a game after a unilegal run: the rewritten formula
    plus the moves accumulated inside general/hybrid quasiatoms."""

    formula: Formula
    stored: tuple[tuple[Address, Run], ...] = ()

    def stored_dict(self) -> dict[Address, Run]:
        return dict(self.stored)


def residual(
    f: Formula, interp: Interpretation, run: Run, valuation: dict[str, int] | None = None
) -> ResidualState:
    """What remains of the game f after the run.  The run is replayed once,
    move by move: a choice move rewrites its quasiatom into the component it
    picks, and a move inside a general or hybrid quasiatom is stored there.
    Each stored subrun is then checked in its quasiatom's own game.  Raises
    ValueError when the run is not unilegal."""
    stored: dict[Address, tuple[Occurrence, list[LabMove]]] = {}
    current = apply_valuation(f, valuation or {})
    for m in run:
        parsed = parse_move(current, m.move)
        if parsed is None:
            raise ValueError(f"move {m.move!r} does not resolve")
        occ, payload = parsed
        qa = occ.quasiatom
        if isinstance(qa, Atom):
            if qa.letter.kind == "elementary":
                raise ValueError(f"move {m.move!r} lands in an elementary atom")
            stored.setdefault(occ.address, (occ, []))[1].append(LabMove(m.player, payload))
            continue
        player = m.player if occ.polarity > 0 else flip(m.player)
        component = _choice_component(qa, LabMove(player, payload), interp.universe)
        if component is None:
            raise ValueError(f"move {m} is illegal at a choice")
        current = replace_at(current, occ.address, component)
    for occ, moves in stored.values():
        # read in the atom's own view, its blind-bound arguments at 0 as the
        # descent instantiates them
        sub = negate_run(moves) if occ.polarity < 0 else tuple(moves)
        if _play(apply_valuation(occ.quasiatom, {}), sub, interp) is None:
            raise ValueError(f"the moves at {pretty(occ.quasiatom)} are illegal there")
    return ResidualState(
        current, tuple(sorted((a, tuple(ms)) for a, (_, ms) in stored.items()))
    )


# ---------------------------------------------------------------------------
# Move enumeration (for scripted play and exhaustive tests)
# ---------------------------------------------------------------------------


def legal_moves(
    f: Formula,
    interp: Interpretation,
    run: Run,
    player: str,
    valuation: dict[str, int] | None = None,
) -> list[str]:
    """All single moves the player may legally add after `run`.  Raises
    ValueError when the run is not unilegal."""

    def collect(node: Formula, sub: Run, who: str) -> list[str]:
        if isinstance(node, Atom):
            if node.letter.kind != "elementary":
                return collect(_expansion(node, interp), sub, who)
            if sub:
                raise ValueError("a move lands in an elementary atom")
            return []
        if node.surface is QUASIATOM:
            if sub:
                component = _choice_component(node, sub[0], interp.universe)
                if component is None:
                    raise ValueError(f"move {sub[0]} is illegal at a choice")
                return collect(component, sub[1:], who)
            if choice_mover(node, 1) != who:
                return []
            picks = range(interp.universe) if node.bound_var else range(1, len(node.children) + 1)
            return list(map(str, picks))
        if node.bound_var is not None:  # blind: every constant gives the same moves
            return collect(_instance(node, 0), sub, who)
        subruns = _route(node, sub)
        if subruns is None:
            raise ValueError("a move does not route")
        out = []
        for i, (child, r, sign) in enumerate(zip(node.children, subruns, node.signs), start=1):
            tag = f"{i}." if node.surface is PARALLEL else ""
            out.extend(tag + m for m in collect(child, r, who if sign > 0 else flip(who)))
        return out

    return collect(apply_valuation(f, valuation or {}), run, player)
