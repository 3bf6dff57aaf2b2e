"""Runs and formula-shaped finite constant games: projections, top-delay,
manageability, legality, winner evaluation, and residual states.

A labmove is a player tag ("T" for the machine, "B" for the environment)
plus a move string.  Move strings are read against a formula by walking
from the root: dot-separated numeric tokens index children of parallel
nodes (negation and blind quantifiers are transparent), and the walk stops
at the first quasiatom; whatever remains is the payload.

Games are finite: choice quantifiers range over the interpretation's
universe {0..U-1}, and blind quantifiers evaluate as conjunction or
disjunction over it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from itertools import takewhile

from .syntax import (
    Address,
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
    return BOT_PLAYER if player == TOP_PLAYER else TOP_PLAYER


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
    except KeyError:
        return None
    return occ, move.split(".", len(occ.address))[-1]


def choice_mover(qa: Formula, polarity: int) -> str:
    """Which player resolves this choice quasiatom at this polarity."""
    if isinstance(qa, (ChoAnd, ChoAll)):
        return BOT_PLAYER if polarity > 0 else TOP_PLAYER
    if isinstance(qa, (ChoOr, ChoEx)):
        return TOP_PLAYER if polarity > 0 else BOT_PLAYER
    raise ValueError("not a choice quasiatom")


def _choice_component(qa: Formula, payload: str, universe: int) -> Formula | None:
    """The component a choice move selects, or None for a bad payload."""
    if not re.fullmatch(r"\d+", payload):
        return None
    n = int(payload)
    if isinstance(qa, (ChoAnd, ChoOr)):
        if not 1 <= n <= len(qa.parts):
            return None
        return qa.parts[n - 1]
    if 0 <= n < universe:
        return substitute(qa.body, qa.var, Const(n))
    return None


# ---------------------------------------------------------------------------
# Legality and winner
# ---------------------------------------------------------------------------


def _ground(f: Formula, valuation: dict[str, int] | None) -> Formula:
    g = apply_valuation(f, valuation or {})
    if free_variables(g):
        raise ValueError("the formula must be closed under the valuation")
    return g


def _route(node: Formula, run: Run) -> list[Run] | None:
    """Split a run among the children of a parallel node; None when some
    move does not route.  Antecedent subruns come back negated."""
    width = len(node.children)
    groups: list[list[LabMove]] = [[] for _ in range(width)]
    for m in run:
        im = _INDEX_RE.match(m.move)
        if not im:
            return None
        i = int(im.group(1))
        if not 1 <= i <= width:
            return None
        groups[i - 1].append(LabMove(m.player, m.move[im.end():]))
    result = [tuple(g) for g in groups]
    if isinstance(node, Implies):
        result[0] = negate_run(result[0])
    return result


def _legal(f: Formula, run: Run, interp: Interpretation) -> bool:
    if isinstance(f, Atom):
        if f.letter.kind == "elementary":
            return len(run) == 0
        name = f.letter.general if f.letter.kind == "hybrid" else f.letter.name
        args = tuple(t.value for t in f.args)
        return _legal(interp.expand_general(name, args), run, interp)
    if isinstance(f, Neg):
        return _legal(f.body, negate_run(run), interp)
    if isinstance(f, (ParAnd, ParOr, Implies)):
        routed = _route(f, run)
        if routed is None:
            return False
        return all(_legal(c, r, interp) for c, r in zip(f.children, routed))
    if isinstance(f, (BlindAll, BlindEx)):
        return _legal(substitute(f.body, f.var, Const(0)), run, interp)
    # choice node, positive view: the environment resolves caps, the
    # machine resolves cups
    if not run:
        return True
    head, rest = run[0], run[1:]
    expected = BOT_PLAYER if isinstance(f, (ChoAnd, ChoAll)) else TOP_PLAYER
    if head.player != expected:
        return False
    component = _choice_component(f, head.move, interp.universe)
    if component is None:
        return False
    return _legal(component, rest, interp)


def is_unilegal(
    f: Formula, interp: Interpretation, run: Run, valuation: dict[str, int] | None = None
) -> bool:
    """Legality of the run in the game f denotes (an unresolvable move
    makes the run illegal rather than raising)."""
    return _legal(_ground(f, valuation), run, interp)


def _win(f: Formula, run: Run, interp: Interpretation) -> bool:
    if isinstance(f, Atom):
        if f.letter.logical:
            return f.letter.name == "T"
        if f.letter.kind == "elementary":
            return interp.atom_value(f.letter.name, tuple(t.value for t in f.args))
        name = f.letter.general if f.letter.kind == "hybrid" else f.letter.name
        args = tuple(t.value for t in f.args)
        return _win(interp.expand_general(name, args), run, interp)
    if isinstance(f, Neg):
        return not _win(f.body, negate_run(run), interp)
    if isinstance(f, (ParAnd, ParOr, Implies)):
        routed = _route(f, run)
        values = [_win(c, r, interp) for c, r in zip(f.children, routed)]
        if isinstance(f, ParAnd):
            return all(values)
        if isinstance(f, ParOr):
            return any(values)
        return (not values[0]) or values[1]
    if isinstance(f, BlindAll):
        return all(
            _win(substitute(f.body, f.var, Const(c)), run, interp)
            for c in range(interp.universe)
        )
    if isinstance(f, BlindEx):
        return any(
            _win(substitute(f.body, f.var, Const(c)), run, interp)
            for c in range(interp.universe)
        )
    # choice node, positive view: unresolved caps go to the machine,
    # unresolved cups to the environment
    if not run:
        return isinstance(f, (ChoAnd, ChoAll))
    component = _choice_component(f, run[0].move, interp.universe)
    return _win(component, run[1:], interp)


def winner(
    f: Formula, interp: Interpretation, run: Run, valuation: dict[str, int] | None = None
) -> str:
    """Who wins the (unilegal) run: "T" or "B"."""
    g = _ground(f, valuation)
    if not _legal(g, run, interp):
        raise ValueError("winner is defined for unilegal runs only")
    return TOP_PLAYER if _win(g, run, interp) else BOT_PLAYER


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
    g = _ground(f, valuation)
    if not _legal(g, run, interp):
        raise ValueError("residual is defined for unilegal runs only")
    stored: dict[Address, list[LabMove]] = {}
    current = g
    for m in run:
        parsed = parse_move(current, m.move)
        if parsed is None:
            raise ValueError(f"move {m.move!r} does not resolve")
        occ, payload = parsed
        qa = occ.quasiatom
        if isinstance(qa, Atom):
            if qa.letter.kind == "elementary":
                raise ValueError(f"move {m.move!r} lands in an elementary atom")
            stored.setdefault(occ.address, []).append(LabMove(m.player, payload))
        else:
            if m.player != choice_mover(qa, occ.polarity):
                raise ValueError(f"move {m.move!r} made by the wrong player")
            component = _choice_component(qa, payload, interp.universe)
            if component is None:
                raise ValueError(f"move {m.move!r} selects no component")
            current = replace_at(current, occ.address, component)
    return ResidualState(
        current, tuple(sorted((a, tuple(ms)) for a, ms in stored.items()))
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
    """All single moves the player may legally add after `run`."""
    g = _ground(f, valuation)

    def collect(node: Formula, sub: Run, who: str) -> list[str]:
        if isinstance(node, Atom):
            if node.letter.kind == "elementary":
                return []
            name = node.letter.general if node.letter.kind == "hybrid" else node.letter.name
            args = tuple(t.value for t in node.args)
            return collect(interp.expand_general(name, args), sub, who)
        if isinstance(node, Neg):
            return collect(node.body, negate_run(sub), flip(who))
        if isinstance(node, (ParAnd, ParOr, Implies)):
            routed = _route(node, sub)
            out = []
            for i, (child, r) in enumerate(zip(node.children, routed), start=1):
                w = flip(who) if isinstance(node, Implies) and i == 1 else who
                out.extend(f"{i}.{m}" for m in collect(child, r, w))
            return out
        if isinstance(node, (BlindAll, BlindEx)):
            return collect(substitute(node.body, node.var, Const(0)), sub, who)
        if sub:
            component = _choice_component(node, sub[0].move, interp.universe)
            return collect(component, sub[1:], who)
        mover = BOT_PLAYER if isinstance(node, (ChoAnd, ChoAll)) else TOP_PLAYER
        if mover != who:
            return []
        if isinstance(node, (ChoAnd, ChoOr)):
            return [str(i) for i in range(1, len(node.parts) + 1)]
        return [str(c) for c in range(interp.universe)]

    return collect(g, run, player)
