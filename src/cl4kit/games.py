"""Runs and formula-shaped finite constant games: projections, top-delay,
manageability, and the positions a run reaches.

A labmove is a player tag ("T" for the machine, "B" for the environment)
plus a move string.  Move strings are read against a formula by walking
from the root: dot-separated numeric tokens index children of parallel
nodes (negation and blind quantifiers are transparent), and the walk stops
at the first quasiatom; whatever remains is the payload.  Index tokens and
choice payloads are read only as canonical ASCII decimals, the spellings
`legal_moves` lists: "01", "02.x" and "١" name no child, "01" no choice.

Games are finite: choice quantifiers range over the interpretation's
universe {0..U-1}, and blind quantifiers evaluate as conjunction or
disjunction over it.

A run is read in one place, `advance`, which plays one move on a position
(a `ResidualState`): a choice move rewrites its choice into the component
it picks, and a move inside a general or hybrid atom is stored there and
must keep the stored run legal in that atom's game.  `residual`,
`is_unilegal`, `winner` and `legal_moves` fold `advance` over the run from
the game's formula, then read the position reached: the winner off its
surface, the legal moves (`legal_moves_at`) off its unmade choices and its
atoms' games.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .syntax import (
    Address,
    Atom,
    PARALLEL,
    QUASIATOM,
    Const,
    Formula,
    Occurrence,
    _read_int,
    addr_str,
    apply_valuation,
    atoms,
    is_blind_free,
    is_reasonable,
    parse,
    pretty,
    replace_at,
    resolve,
    substitute,
    substitute_all,
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
        extra = self.body.free_variables - set(self.params)
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
                args = tuple(_read_int(s, "atom key") for s in argstr.split(",")) if argstr else ()
                if type(value) is not bool:
                    raise ValueError(f"elementary atom {key!r} must be true or false: {value!r}")
                elementary[(name, args)] = value
            general = {}
            for name, entry in doc.get("general", {}).items():
                params = entry["params"]
                if not (isinstance(params, list) and all(isinstance(x, str) for x in params)):
                    raise ValueError(f"general letter {name!r}: params must be a list of strings")
                general[name] = GeneralDef(tuple(params), parse(entry["body"]))
            universe = doc.get("universe", 1)
        except KeyError as ex:
            raise ValueError(f"malformed interpretation: missing {ex}") from None
        except (AttributeError, TypeError) as ex:
            raise ValueError(f"malformed interpretation: {ex}") from None
        if type(universe) is not int:
            raise ValueError(f"universe must be an integer, not {universe!r}")
        return cls(universe, elementary, general)


def read_json(path: str, text: str | None = None):
    """The JSON document in the file at path, or in text when it is given
    (path then only names the document).  An integer with more digits than
    int() reads (sys.get_int_max_str_digits) raises ValueError naming the
    document and the number."""
    if text is None:
        with open(path) as fh:
            text = fh.read()
    return json.loads(text, parse_int=lambda digits: _read_int(digits, path))


def load_interpretation(path: str) -> Interpretation:
    return Interpretation.from_json(read_json(path))


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
    return run_from_json(read_json(path))


# ---------------------------------------------------------------------------
# Move parsing
# ---------------------------------------------------------------------------


_INDICES = re.compile(r"(?:[1-9][0-9]*\.)*")  # the leading `i.` tokens
_CHOICE = re.compile(r"0|[1-9][0-9]*")


def parse_move(f: Formula, move: str) -> tuple[Occurrence, str] | None:
    """Resolve a move string against f: walk parallel structure by its
    leading `i.` tokens, stop at the first quasiatom, return it plus the
    remaining payload.  None when the string does not resolve."""
    indices = map(int, _INDICES.match(move)[0].split(".")[:-1])
    try:
        _, occ = surface_path(f, indices)
    except (KeyError, ValueError):  # ValueError: more digits than int() reads
        return None
    return occ, move.split(".", len(occ.address))[-1]


def choice_mover(qa: Formula, polarity: int) -> str:
    """Which player resolves this choice quasiatom at this polarity: the
    environment a positive conjunctive choice or a negative disjunctive one."""
    return BOT_PLAYER if qa.conjunctive == (polarity > 0) else TOP_PLAYER


def _instance(q: Formula, c: int) -> Formula:
    """A quantifier's body at the constant c."""
    return substitute(q.body, q.var, Const(c))


def _choice_component(qa: Formula, m: LabMove, universe: int) -> Formula | None:
    """The component of the choice quasiatom qa that the move m selects, m
    read in qa's positive view; None when m is illegal there: the wrong
    player or a bad payload."""
    if m.player != choice_mover(qa, 1) or not _CHOICE.fullmatch(m.move):
        return None
    try:
        n = int(m.move)
    except ValueError:  # more digits than int() reads
        return None
    if qa.bound_var is not None:
        return _instance(qa, n) if n < universe else None
    return qa.parts[n - 1] if 1 <= n <= len(qa.parts) else None


# ---------------------------------------------------------------------------
# Positions: the one reader of runs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidualState:
    """A position: what remains of a game after a unilegal run, the formula
    with its resolved choices rewritten plus the moves stored inside
    general/hybrid quasiatoms, by address, as the run labels them."""

    formula: Formula
    stored: tuple[tuple[Address, Run], ...] = ()

    def stored_dict(self) -> dict[Address, Run]:
        return dict(self.stored)


def _expansion(atom: Atom, interp: Interpretation) -> Formula:
    """The game a general or hybrid atom stands for, the variables bound by
    blind quantifiers read as 0 (legality does not depend on them)."""
    lt = atom.letter
    name = lt.general if lt.kind == "hybrid" else lt.name
    args = tuple(t.value if isinstance(t, Const) else 0 for t in atom.args)
    return interp.expand_general(name, args)


def _own_view(run: Run, polarity: int) -> Run:
    """A quasiatom's stored run as its own game reads it."""
    return negate_run(run) if polarity < 0 else run


def advance(state: ResidualState, interp: Interpretation, move: LabMove) -> ResidualState | None:
    """The position after one more move, or None when the move is illegal
    there.  A choice move rewrites its quasiatom into the component it
    picks; a move inside a general or hybrid quasiatom is stored there and
    must keep the stored run legal in that atom's game."""
    parsed = parse_move(state.formula, move.move)
    if parsed is None:
        return None
    occ, payload = parsed
    qa = occ.quasiatom
    if isinstance(qa, Atom):
        if qa.letter.kind == "elementary":
            return None
        stored = dict(state.stored)
        run = stored.get(occ.address, ()) + (LabMove(move.player, payload),)
        # a defining formula has elementary letters only: one level deep
        if _fold(_expansion(qa, interp), interp, _own_view(run, occ.polarity))[1]:
            return None
        stored[occ.address] = run
        return ResidualState(state.formula, tuple(sorted(stored.items())))
    player = move.player if occ.polarity > 0 else flip(move.player)
    component = _choice_component(qa, LabMove(player, payload), interp.universe)
    if component is None:
        return None
    return ResidualState(replace_at(state.formula, occ.address, component), state.stored)


def _fold(f: Formula, interp: Interpretation, run: Run) -> tuple[ResidualState, Run]:
    """Advance the game f, its free variables read as 0, through the run:
    the position after the run's longest legal prefix, and the moves left
    over (the first of them illegal)."""
    state = ResidualState(apply_valuation(f, {}))
    for i, m in enumerate(run):
        after = advance(state, interp, m)
        if after is None:
            return state, run[i:]
        state = after
    return state, ()


def residual(f: Formula, interp: Interpretation, run: Run) -> ResidualState:
    """The position the run reaches in the game f.  Raises ValueError naming
    the first illegal move when the run is not unilegal."""
    state, rest = _fold(f, interp, run)
    if rest:
        raise ValueError(f"move {len(run) - len(rest) + 1} of the run, {rest[0]}, is illegal")
    return state


def is_unilegal(f: Formula, interp: Interpretation, run: Run) -> bool:
    """Legality of the run in the game f denotes (an unresolvable move
    makes the run illegal rather than raising).  Free variables read as 0."""
    return not _fold(f, interp, run)[1]


def _wins(state: ResidualState, interp: Interpretation) -> bool:
    """Whether the machine wins a final position, read off its surface."""
    stored = state.stored_dict()

    def wins(node: Formula, addr: Address, pol: int) -> bool:
        if isinstance(node, Atom):
            if node.letter.kind != "elementary":
                run = _own_view(stored.get(addr, ()), pol)
                return _wins(_fold(_expansion(node, interp), interp, run)[0], interp)
            if node.letter.logical:
                return node.letter.name == "T"
            return interp.atom_value(node.letter.name, tuple(t.value for t in node.args))
        if node.surface is QUASIATOM:  # a choice never made is lost by its mover
            return choice_mover(node, 1) == BOT_PLAYER
        if node.bound_var is not None:  # blind: the body is played at every constant
            parts = [(_instance(node, c), addr, 1) for c in range(interp.universe)]
        else:
            parts = [
                (child, addr + (i,) if node.surface is PARALLEL else addr, sign)
                for i, (child, sign) in enumerate(zip(node.children, node.signs), start=1)
            ]
        # a part of sign -1 counts when the machine loses it
        values = ((sign > 0) == wins(part, a, pol * sign) for part, a, sign in parts)
        # conjunctions need every part; the rest need one
        return all(values) if node.conjunctive else any(values)

    return wins(state.formula, (), 1)


def winner(f: Formula, interp: Interpretation, run: Run) -> str:
    """Who wins the run: "T" or "B".  Raises ValueError when the run is not
    unilegal."""
    return TOP_PLAYER if _wins(residual(f, interp, run), interp) else BOT_PLAYER


def legal_moves(f: Formula, interp: Interpretation, run: Run, player: str) -> list[str]:
    """All single moves the player may legally add after `run` in the game
    f.  Raises ValueError when the run is not unilegal."""
    return legal_moves_at(residual(f, interp, run), interp, player)


def legal_moves_at(state: ResidualState, interp: Interpretation, player: str) -> list[str]:
    """All single moves the player may legally make at a position: the
    choices the player owes on its surface, and the legal moves inside each
    general or hybrid quasiatom's game."""
    stored = state.stored_dict()
    out = []
    for occ in state.formula.surface_occurrences:
        qa, prefix = occ.quasiatom, addr_str(occ.address)
        who = player if occ.polarity > 0 else flip(player)
        if isinstance(qa, Atom):
            if qa.letter.kind != "elementary":
                sub = _own_view(stored.get(occ.address, ()), occ.polarity)
                # a stored run is legal in its atom's game
                at = _fold(_expansion(qa, interp), interp, sub)[0]
                out.extend(prefix + m for m in legal_moves_at(at, interp, who))
        elif choice_mover(qa, 1) == who:
            picks = range(interp.universe) if qa.bound_var else range(1, len(qa.children) + 1)
            out.extend(prefix + str(n) for n in picks)
    return out


# ---------------------------------------------------------------------------
# Top-delay
# ---------------------------------------------------------------------------


def is_top_delay(d: Run, g: Run) -> bool:
    """Is d a rescheduling of g in which the machine moves no earlier?
    Both players keep their own move subsequences, and each machine move
    follows at least as many environment moves in d as in g."""

    def split(run: Run) -> tuple[list[tuple[str, int]], list[str]]:
        tops, bots = [], []
        for m in run:
            if m.player == TOP_PLAYER:
                tops.append((m.move, len(bots)))
            elif m.player == BOT_PLAYER:
                bots.append(m.move)
        return tops, bots

    (d_tops, d_bots), (g_tops, g_bots) = split(d), split(g)
    return d_bots == g_bots and len(d_tops) == len(g_tops) and all(
        dm == gm and dn >= gn for (dm, dn), (gm, gn) in zip(d_tops, g_tops)
    )


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
    for occ in e.surface_occurrences:
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
    for occ in e.surface_occurrences:
        qa = occ.quasiatom
        if isinstance(qa, Atom) and qa.letter.kind == "general":
            sub = project(run, occ.address, "raw")
            if any(m.player == TOP_PLAYER for m in sub):
                return Manageability(
                    False, 3, addr_str(occ.address), "machine moved in a general quasiatom"
                )
    return Manageability(True)
