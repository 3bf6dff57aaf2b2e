"""Formulas and hyperformulas: AST, parser, printer, occurrence analysis.

The operator vocabulary has three families:

* parallel: ``~`` (negation), ``/\\`` (conjunction), ``\\/`` (disjunction),
  ``->`` (implication);
* choice: ``!/\\`` and ``!\\/`` (connectives), ``!A x.`` and ``!E x.``
  (quantifiers) -- resolved by a single move of one player;
* blind: ``A x.`` and ``E x.`` -- classical quantifiers with no moves.

Atoms are built from three sorts of letters.  Elementary letters are
lowercase identifiers (``p``, ``q1``), general letters are uppercase
identifiers (``P``, ``Chess``), and a hybrid letter ``P#q`` pairs a general
letter with the elementary letter that stands in for it inside a proof.
``T`` and ``F`` are the logical 0-ary elementary letters (truth / falsehood).

Identifiers from {u,v,w,x,y,z} with an optional digit suffix are variables,
never letters.  Terms are variables or natural-number constants.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from operator import attrgetter, is_
from typing import Callable, Iterable, Iterator, Union

ELEMENTARY = "elementary"
GENERAL = "general"
HYBRID = "hybrid"

_VAR_RE = re.compile(r"[uvwxyz][0-9]*\Z")
_IDENT = r"[A-Za-z][A-Za-z0-9_]*"


def is_variable_name(name: str) -> bool:
    return bool(_VAR_RE.match(name))


# ---------------------------------------------------------------------------
# Terms and letters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    value: int

    def __str__(self) -> str:
        return str(self.value)


Term = Union[Var, Const]


@dataclass(frozen=True)
class Letter:
    """A letter: elementary, general, or hybrid (general # elementary)."""

    kind: str
    name: str
    arity: int
    general: str | None = None
    elementary: str | None = None

    @property
    def logical(self) -> bool:
        return self.kind == ELEMENTARY and self.name in ("T", "F") and self.arity == 0

    def __str__(self) -> str:
        return self.name


def elem_letter(name: str, arity: int = 0) -> Letter:
    return Letter(ELEMENTARY, name, arity)


def gen_letter(name: str, arity: int = 0) -> Letter:
    return Letter(GENERAL, name, arity)


def hybrid_letter(general: str, elementary: str, arity: int = 0) -> Letter:
    return Letter(HYBRID, f"{general}#{elementary}", arity, general, elementary)


# ---------------------------------------------------------------------------
# Hyperformula nodes
# ---------------------------------------------------------------------------


# A node's role on the surface, the part of a formula outside every choice
# subformula: quasiatoms (atoms and choice nodes) end the surface, negations
# and blind quantifiers are transparent, and each parallel connective
# consumes one address index to pick its child.
QUASIATOM = "quasiatom"
TRANSPARENT = "transparent"
PARALLEL = "parallel"

# Binding strengths, loosest first; atoms bind tightest.  The parser reads
# an operand at the strength its slot asks for; the printer brackets an
# operand that binds more loosely than that.
_IMPLICATION, _DISJUNCTION, _CONJUNCTION, _QUANTIFIER, _NEGATION = range(5)


class Formula:
    """Base class for hyperformula nodes.

    Every node class states its shape, which the generic walkers read
    instead of testing node kinds: ``children`` (the immediate subformulas,
    in address order), ``rebuild(children)`` (the same node over new
    children), ``signs`` (each child's polarity relative to the node's: -1
    for a negation's body and an implication's antecedent, else 1),
    ``bound_var`` (the variable a quantifier binds, else None),
    ``surface`` (its surface role) and ``conjunctive`` (True for the
    conjunctive member of each dual pair: parallel and choice conjunction,
    blind and choice universal quantification).

    Every operator class also states its notation, which the tokenizer,
    the parser and the printer all read: ``spellings`` (the ASCII spelling
    that ``pretty`` writes, then the Unicode one that ``parse`` also
    reads) and ``binding`` (its binding strength).

    A node computes its hash, ``variables`` (free or bound) and
    ``free_variables`` (frozensets built from its children's) and
    ``surface_occurrences`` (a tuple) on first use and keeps them in the
    slots below, so that its ``__dict__`` holds its dataclass fields alone.
    """

    __slots__ = ("_hash", "_variables", "_free_variables", "_surface_occurrences")
    children: tuple[Formula, ...] = ()
    signs: tuple[int, ...] = ()
    bound_var: str | None = None
    surface = QUASIATOM
    conjunctive = False
    spellings: tuple[str, ...]
    binding: int

    def rebuild(self, children: Iterable[Formula]) -> Formula:
        return self

    def _keep(self, slot: str, value):
        object.__setattr__(self, slot, value)
        return value

    # The dataclass-generated comparison and hash: __dict__ is the fields.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            return self._keep("_hash", hash(tuple(self.__dict__.values())))

    def __getstate__(self) -> dict:
        # the fields alone: a kept hash holds only in the process that made it
        return self.__dict__

    @property
    def variables(self) -> frozenset[str]:
        try:
            return self._variables
        except AttributeError:
            found = _union(c.variables for c in self.children) if self.children else self.free_variables
            if self.bound_var is not None and self.bound_var not in found:
                found |= {self.bound_var}
            return self._keep("_variables", found)

    @property
    def free_variables(self) -> frozenset[str]:
        try:
            return self._free_variables
        except AttributeError:
            found = _union(c.free_variables for c in self.children)
            if isinstance(self, Atom):
                found = frozenset(t.name for t in self.args if isinstance(t, Var)) or found
            elif self.bound_var in found:
                found -= {self.bound_var}
            return self._keep("_free_variables", found)

    @property
    def surface_occurrences(self) -> tuple[Occurrence, ...]:
        # Kept on the node asked only, not on its descendants (their
        # addresses differ); a quasiatom's would refer back to it.
        if self.surface is QUASIATOM:
            return (Occurrence((), self, 1),)
        try:
            return self._surface_occurrences
        except AttributeError:
            found: list[Occurrence] = []
            # an explicit stack, so no depth exhausts Python's recursion limit
            stack: list[tuple[Formula, Address, int]] = [(self, (), 1)]
            while stack:
                node, addr, pol = stack.pop()
                if node.surface is QUASIATOM:
                    found.append(Occurrence(addr, node, pol))
                elif node.surface is TRANSPARENT:
                    stack.append((node.children[0], addr, pol * node.signs[0]))
                else:
                    children, signs = node.children, node.signs
                    stack.extend(
                        (children[i - 1], addr + (i,), pol * signs[i - 1])
                        for i in range(len(children), 0, -1)
                    )
            return self._keep("_surface_occurrences", tuple(found))


_NO_NAMES: frozenset[str] = frozenset()


def _union(sets: Iterable[frozenset[str]]) -> frozenset[str]:
    """The union, sharing an operand that holds all the others."""
    out = _NO_NAMES
    for s in sets:
        if not s <= out:
            out = s if out <= s else out | s
    return out


@dataclass(frozen=True, eq=False)
class Atom(Formula):
    letter: Letter
    args: tuple[Term, ...] = ()

    def __post_init__(self) -> None:
        if len(self.args) != self.letter.arity:
            raise ValueError(
                f"letter {self.letter.name} has arity {self.letter.arity}, "
                f"got {len(self.args)} argument(s)"
            )


@dataclass(frozen=True, eq=False)
class Neg(Formula):
    body: Formula

    signs = (-1,)
    surface = TRANSPARENT
    spellings = ("~", "¬")
    binding = _NEGATION

    @property
    def children(self) -> tuple[Formula, ...]:
        return (self.body,)

    def rebuild(self, children: Iterable[Formula]) -> Formula:
        (body,) = children
        return Neg(body)


@dataclass(frozen=True, eq=False)
class _Chain(Formula):
    """An n-ary connective; its parts are its children."""

    parts: tuple[Formula, ...]

    _name = "connective"

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise ValueError(f"{self._name} needs at least 2 parts")

    children = property(attrgetter("parts"))

    @property
    def signs(self) -> tuple[int, ...]:
        return (1,) * len(self.parts)

    def rebuild(self, children: Iterable[Formula]) -> Formula:
        return type(self)(tuple(children))


@dataclass(frozen=True, eq=False)
class ParAnd(_Chain):
    _name = "parallel conjunction"
    surface = PARALLEL
    conjunctive = True
    spellings = ("/\\", "∧")
    binding = _CONJUNCTION


@dataclass(frozen=True, eq=False)
class ParOr(_Chain):
    _name = "parallel disjunction"
    surface = PARALLEL
    spellings = ("\\/", "∨")
    binding = _DISJUNCTION


@dataclass(frozen=True, eq=False)
class Implies(Formula):
    lhs: Formula
    rhs: Formula

    signs = (-1, 1)
    surface = PARALLEL
    spellings = ("->", "→")
    binding = _IMPLICATION

    @property
    def children(self) -> tuple[Formula, ...]:
        return (self.lhs, self.rhs)

    def rebuild(self, children: Iterable[Formula]) -> Formula:
        lhs, rhs = children
        return Implies(lhs, rhs)


@dataclass(frozen=True, eq=False)
class ChoAnd(_Chain):
    _name = "choice conjunction"
    conjunctive = True
    spellings = ("!/\\", "⊓")
    binding = _CONJUNCTION


@dataclass(frozen=True, eq=False)
class ChoOr(_Chain):
    _name = "choice disjunction"
    spellings = ("!\\/", "⊔")
    binding = _DISJUNCTION


@dataclass(frozen=True, eq=False)
class _Quantifier(Formula):
    var: str
    body: Formula

    signs = (1,)
    bound_var = property(attrgetter("var"))
    binding = _QUANTIFIER

    @property
    def children(self) -> tuple[Formula, ...]:
        return (self.body,)

    def rebuild(self, children: Iterable[Formula]) -> Formula:
        (body,) = children
        return type(self)(self.var, body)


@dataclass(frozen=True, eq=False)
class BlindAll(_Quantifier):
    surface = TRANSPARENT
    conjunctive = True
    spellings = ("A", "∀")


@dataclass(frozen=True, eq=False)
class BlindEx(_Quantifier):
    surface = TRANSPARENT
    spellings = ("E", "∃")


@dataclass(frozen=True, eq=False)
class ChoAll(_Quantifier):
    conjunctive = True
    spellings = ("!A", "⊓")


@dataclass(frozen=True, eq=False)
class ChoEx(_Quantifier):
    spellings = ("!E", "⊔")


TOP = Atom(elem_letter("T"))
BOT = Atom(elem_letter("F"))


def is_choice(f: Formula) -> bool:
    return f.surface is QUASIATOM and not isinstance(f, Atom)


# ---------------------------------------------------------------------------
# Addresses and occurrences
# ---------------------------------------------------------------------------

Address = tuple[int, ...]


def addr_str(addr: Address) -> str:
    return "".join(f"{i}." for i in addr)


def _read_int(text: str, source: str) -> int:
    """int(text).  An integer with more digits than int() reads
    (sys.get_int_max_str_digits) raises ValueError naming the source and
    the number."""
    try:
        return int(text)
    except ValueError:
        digits = text.strip()
        if len(digits) <= sys.get_int_max_str_digits():
            raise
        raise ValueError(
            f"{source}: the integer {digits[:8]}...{digits[-8:]} has {len(digits)} "
            f"digits, more than the {sys.get_int_max_str_digits()} that can be read"
        ) from None


def parse_addr(s: str) -> Address:
    s = s.strip()
    if not s:
        return ()
    if not re.fullmatch(r"(\d+\.)+", s):
        raise ValueError(f"bad address {s!r}")
    return tuple(_read_int(tok, "address") for tok in s.split(".")[:-1])


@dataclass(frozen=True, slots=True)
class Occurrence:
    address: Address
    quasiatom: Formula
    polarity: int  # +1 positive, -1 negative


def surface_path(
    f: Formula, indices: Iterator[int]
) -> tuple[list[tuple[Formula, int]], Occurrence]:
    """Descend the surface of f to a quasiatom, taking the next index from
    `indices` at every parallel node.  Returns the nodes passed, each with
    the child taken, and the quasiatom reached with its address and
    polarity; indices past the quasiatom stay in the iterator.  Raises
    KeyError when the indices run out at a parallel node or name no child."""
    node, pol, addr, steps = f, 1, (), []
    while node.surface is not QUASIATOM:
        children, i = node.children, 1
        if node.surface is PARALLEL:
            i = next(indices, None)
            if i is None:
                raise KeyError("stops at a parallel node")
            if not 1 <= i <= len(children):
                raise KeyError("does not resolve")
            addr += (i,)
        steps.append((node, i))
        node, pol = children[i - 1], pol * node.signs[i - 1]
    return steps, Occurrence(addr, node, pol)


def surface_occurrences(f: Formula) -> list[Occurrence]:
    """All quasiatoms of f with address and polarity, left to right."""
    return list(f.surface_occurrences)


def _follow(f: Formula, addr: Address) -> tuple[list[tuple[Formula, int]], Occurrence]:
    """surface_path along exactly the indices of addr."""
    rest = iter(addr)
    try:
        steps, occ = surface_path(f, rest)
    except KeyError as ex:
        raise KeyError(f"address {addr_str(addr)} {ex.args[0]}") from None
    if next(rest, None) is not None:
        raise KeyError(f"address {addr_str(addr)} overshoots a quasiatom")
    return steps, occ


def resolve(f: Formula, addr: Address) -> Occurrence:
    """The quasiatom addressed by addr (negation and blind quantifiers are
    transparent; only parallel connectives consume indices)."""
    return _follow(f, addr)[1]


def replace_at(f: Formula, addr: Address, new: Formula) -> Formula:
    """f with the quasiatom at addr replaced by new."""
    steps, _ = _follow(f, addr)
    for node, i in reversed(steps):
        children = list(node.children)
        children[i - 1] = new
        new = node.rebuild(children)
    return new


def rewrite(f: Formula, fn: Callable[[Formula], Formula | None]) -> Formula:
    """Top-down map over f: fn(node) returns the node's replacement, or
    None to keep the node and rewrite its children.  A node whose children
    all come back unchanged is kept, not rebuilt."""

    def walk(node: Formula) -> Formula:
        new = fn(node)
        if new is not None:
            return new
        children = node.children
        new_children = tuple(map(walk, children))
        if all(map(is_, new_children, children)):
            return node
        return node.rebuild(new_children)

    return walk(f)


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------


def subformulas(f: Formula) -> Iterator[Formula]:
    """Every subformula occurrence of f, in pre-order, walked with an
    explicit stack so that no depth exhausts Python's."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack.extend(reversed(g.children))


def atoms(f: Formula) -> Iterator[Atom]:
    for g in subformulas(f):
        if isinstance(g, Atom):
            yield g


def letters(f: Formula) -> set[Letter]:
    return {a.letter for a in atoms(f)}


def letter_names(f: Formula) -> set[str]:
    """Every letter name occurring in f, with hybrid components spelled out."""
    names: set[str] = set()
    for lt in letters(f):
        if lt.kind == HYBRID:
            names.add(lt.general)
            names.add(lt.elementary)
        else:
            names.add(lt.name)
    return names


def variables(f: Formula) -> set[str]:
    """All variable names occurring in f, free or bound."""
    return set(f.variables)


def constants(f: Formula) -> set[int]:
    out: set[int] = set()
    for a in atoms(f):
        out.update(t.value for t in a.args if isinstance(t, Const))
    return out


def free_variables(f: Formula) -> set[str]:
    return set(f.free_variables)


def substitute_all(f: Formula, terms: dict[str, Term]) -> Formula:
    """Replace every free occurrence of each variable in terms by its term,
    all at once, in one pass."""
    if not terms:
        return f

    def fn(node: Formula) -> Formula | None:
        if isinstance(node, Atom):
            args = tuple(terms.get(a.name, a) if isinstance(a, Var) else a for a in node.args)
            return Atom(node.letter, args) if args != node.args else node
        if node.bound_var in terms:
            rest = {y: t for y, t in terms.items() if y != node.bound_var}
            return node.rebuild((substitute_all(node.body, rest),)) if rest else node
        return None

    return rewrite(f, fn)


def substitute(f: Formula, x: str, t: Term) -> Formula:
    """Replace every free occurrence of variable x by term t.

    Plain textual substitution; callers that substitute a variable are
    responsible for capture (the proof rules' side conditions rule it out).
    """
    return substitute_all(f, {x: t})


def apply_valuation(f: Formula, valuation: dict[str, int]) -> Formula:
    """Replace every free variable by the constant the valuation assigns to
    it (unmapped variables read as 0)."""
    return substitute_all(f, {x: Const(valuation.get(x, 0)) for x in f.free_variables})


def is_elementary(f: Formula) -> bool:
    """No choice operators, no general atoms, no hybrid atoms."""
    for g in subformulas(f):
        if is_choice(g):
            return False
        if isinstance(g, Atom) and g.letter.kind != ELEMENTARY:
            return False
    return True


def is_formula(f: Formula) -> bool:
    """A formula is a hyperformula without hybrid letters."""
    return all(a.letter.kind != HYBRID for a in atoms(f))


def is_blind_free(f: Formula) -> bool:
    return not any(g.surface is TRANSPARENT and g.bound_var is not None for g in subformulas(f))


def aggregate_complexity(f: Formula) -> int:
    """Occurrences of logical operators plus occurrences of general atoms.

    An n-ary connective node counts as n-1 operator occurrences, matching
    the count in the written chain.
    """
    return sum(
        (g.letter.kind == GENERAL) if isinstance(g, Atom) else max(1, len(g.children) - 1)
        for g in subformulas(f)
    )


def general_dehybridization(f: Formula) -> Formula:
    """Replace every hybrid letter by its general component."""

    def fn(node: Formula) -> Formula | None:
        if isinstance(node, Atom) and node.letter.kind == HYBRID:
            return Atom(gen_letter(node.letter.general, node.letter.arity), node.args)
        return None

    return rewrite(f, fn)


def replace_letter(f: Formula, old: Letter, new: Letter) -> Formula:
    """Replace every atom based on `old` by the same-argument atom on `new`."""
    if old.arity != new.arity:
        raise ValueError("letters must have the same arity")

    def fn(node: Formula) -> Formula | None:
        if isinstance(node, Atom) and node.letter == old:
            return Atom(new, node.args)
        return None

    return rewrite(f, fn)


# ---------------------------------------------------------------------------
# Reasonableness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Reasonableness:
    status: str  # "reasonable" | "unbalanced" | "unreasonable"
    detail: str = ""

    def __bool__(self) -> bool:
        return self.status == "reasonable"


def _letter_occurrences(f: Formula) -> list[tuple[Atom, int, frozenset[str]]]:
    """Every atom occurrence with its polarity and enclosing binder set,
    including occurrences inside choice subformulas."""
    out: list[tuple[Atom, int, frozenset[str]]] = []

    def walk(node: Formula, pol: int, bound: frozenset[str], surface: bool) -> None:
        if isinstance(node, Atom):
            out.append((node, pol if surface else 0, bound))
            return
        if node.bound_var is not None:
            bound = bound | {node.bound_var}
        # below an atom, only a choice node is a quasiatom: it ends the surface
        surface = surface and node.surface is not QUASIATOM
        for child, sign in zip(node.children, node.signs):
            walk(child, pol * sign, bound, surface)

    walk(f, 1, frozenset(), True)
    return out


def _by_hybrid(
    f: Formula,
) -> tuple[dict[Letter, list[tuple[Atom, int, frozenset[str]]]], set[str]]:
    """Each hybrid letter's atom occurrences in f, and the names of f's
    elementary letters."""
    occurrences = _letter_occurrences(f)
    elem_names = {a.letter.name for a, _, _ in occurrences if a.letter.kind == ELEMENTARY}
    by_hybrid: dict[Letter, list[tuple[Atom, int, frozenset[str]]]] = {}
    for a, pol, bound in occurrences:
        if a.letter.kind == HYBRID:
            by_hybrid.setdefault(a.letter, []).append((a, pol, bound))
    return by_hybrid, elem_names


def _disagree(occs: list[tuple[Atom, int, frozenset[str]]]) -> bool:
    """Whether a hybrid letter's two atoms disagree on an argument position
    that is free in both."""
    (a1, _, bound1), (a2, _, bound2) = occs
    for t1, t2 in zip(a1.args, a2.args):
        free1 = isinstance(t1, Const) or t1.name not in bound1
        free2 = isinstance(t2, Const) or t2.name not in bound2
        if free1 and free2 and t1 != t2:
            return True
    return False


def _unreasonable_letters(f: Formula) -> dict[str, Letter]:
    """The unreasonable hybrid letters of a balanced f, by name."""
    by_hybrid, _ = _by_hybrid(f)
    return {lt.name: lt for lt, occs in by_hybrid.items() if len(occs) == 2 and _disagree(occs)}


def is_reasonable(f: Formula) -> Reasonableness:
    """Balanced (each hybrid letter: one positive and one negative surface
    occurrence, elementary component fresh) and no hybrid letter whose two
    atoms disagree on a free argument position."""

    by_hybrid, elem_names = _by_hybrid(f)

    for lt, occs in by_hybrid.items():
        if len(occs) != 2:
            return Reasonableness("unbalanced", f"{lt.name} occurs {len(occs)} time(s)")
        pols = sorted(p for _, p, _ in occs)
        if 0 in pols:
            return Reasonableness("unbalanced", f"{lt.name} has a non-surface occurrence")
        if pols != [-1, 1]:
            return Reasonableness("unbalanced", f"{lt.name} occurrences have the same polarity")
        if lt.elementary in elem_names:
            return Reasonableness(
                "unbalanced", f"elementary component {lt.elementary} occurs in the hyperformula"
            )
        for other in by_hybrid:
            if other != lt and other.elementary == lt.elementary:
                return Reasonableness(
                    "unbalanced",
                    f"{lt.name} and {other.name} share elementary component {lt.elementary}",
                )

    for lt, occs in by_hybrid.items():
        if _disagree(occs):
            return Reasonableness("unreasonable", lt.name)

    return Reasonableness("reasonable")


# ---------------------------------------------------------------------------
# Fresh names
# ---------------------------------------------------------------------------

_VAR_BASES = "uvwxyz"
_ELEM_BASES = "abcdefghijklmnopqrs"  # t is reserved-looking in prose but fine; keep to s


def _shortlex(bases: str) -> Iterator[str]:
    for b in bases:
        yield b
    k = 0
    while True:
        for b in bases:
            yield f"{b}{k}"
        k += 1


def fresh_variable(used: set[str]) -> str:
    """Shortlex-smallest variable name not in `used`."""
    for name in _shortlex(_VAR_BASES):
        if name not in used:
            return name
    raise AssertionError("unreachable")


def fresh_elem_name(used: set[str]) -> str:
    """Shortlex-smallest elementary letter name not in `used`."""
    for name in _shortlex(_ELEM_BASES):
        if name not in used:
            return name
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------


def _atom_str(a: Atom) -> str:
    if not a.args:
        return a.letter.name
    return f"{a.letter.name}({', '.join(str(t) for t in a.args)})"


def pretty(f: Formula) -> str:
    """Canonical ASCII rendering; parse(pretty(f)) == f."""
    check_depth(f)

    def render(g: Formula, need: int, whole: bool) -> str:
        """g in a slot that takes unbracketed the operators binding at least
        as tightly as `need`.  A quantifier's body runs as far right as it
        can, so a quantifier stands unbracketed only in a slot that the
        parser reads as a whole formula (`whole`): a quantifier's body or
        an implication's right side."""
        if isinstance(g, Atom):
            return _atom_str(g)
        op, binding = g.spellings[0], g.binding
        if g.bound_var is not None:
            text = f"{op} {g.bound_var}. {render(g.children[0], binding, True)}"
        elif binding == _NEGATION:
            text = op + render(g.children[0], binding, False)
        else:
            # operands bind more tightly, but an implication nests to the right
            *init, last = g.children
            texts = [render(c, binding + 1, False) for c in init]
            if binding == _IMPLICATION:
                texts.append(render(last, binding, True))
            else:
                texts.append(render(last, binding + 1, False))
            text = f" {op} ".join(texts)
        if binding < need or (g.bound_var is not None and not whole):
            return f"({text})"
        return text

    return render(f, _IMPLICATION, True)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


@dataclass
class _Token:
    kind: str
    text: str
    line: int
    col: int


# Each spelling of an operator, with the classes it spells: ⊓ and ⊔ spell
# a choice connective and a choice quantifier.
_OPERATORS = (Neg, ParAnd, ParOr, Implies, ChoAnd, ChoOr, BlindAll, BlindEx, ChoAll, ChoEx)
_SPELLINGS = {
    s: tuple(c for c in _OPERATORS if s in c.spellings) for c in _OPERATORS for s in c.spellings
}

# One token per match.  The spellings that are identifiers (A, E) are read
# as identifiers, the others as symbols; a symbol ending in a letter (!A,
# !E) must not run into a letter or digit.  ⊤ and ⊥ spell the letters T
# and F.
_TOKEN_RE = re.compile(
    rf"(?P<newline>\n)|(?P<space>\s)|(?P<NUMBER>\d+)|(?P<IDENT>{_IDENT})|(?P<T>⊤)|(?P<F>⊥)"
    + "|(?P<symbol>"
    + "|".join(
        re.escape(s) + (r"(?![^\W_])" if s[-1].isalnum() else "")
        for s in sorted(_SPELLINGS, key=len, reverse=True)
        if not re.fullmatch(_IDENT, s)
    )
    + r"|[(),.#])|(?P<error>.)"
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind, col = m.lastgroup, m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "error":
            raise ParseError(f"unexpected character {m.group()!r}", line, col)
        elif kind == "symbol":
            tokens.append(_Token(m.group(), m.group(), line, col))
        elif kind in ("T", "F"):
            tokens.append(_Token("IDENT", kind, line, col))
        elif kind != "space":
            tokens.append(_Token(kind, m.group(), line, col))
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


# Parentheses, negations, quantifier bodies and implication right-hand sides
# nest.  Beyond this many levels the parser, and the recursive walkers that
# later read the formula, would run out of Python stack; parse stops first.
MAX_NESTING = 100

# Formulas built in code have no nesting limit, so the library's entry points
# (the decision procedures, check_proof and pretty) refuse any formula more
# than this many nodes deep.  A parsed formula is at most MAX_NESTING + 1
# nodes deep, and the walkers still fit in the default stack at this depth.
MAX_DEPTH = 2 * MAX_NESTING


def check_depth(*formulas: Formula) -> None:
    """Raise ValueError when a formula is more than MAX_DEPTH nodes deep.
    Walks level by level, without recursion, visiting a shared node once
    per level."""
    level = formulas
    for _ in range(MAX_DEPTH):
        level = {id(c): c for g in level for c in g.children}.values()
        if not level:
            return
    raise ValueError(f"formula nested too deeply (more than {MAX_DEPTH} levels)")


class _Parser:
    def __init__(self, tokens: list[_Token], arities: dict[str, int]):
        self.tokens = tokens
        self.pos = 0
        self.arities = arities  # letter name -> arity seen so far
        self.nesting = -1  # the whole input is a formula, but not a nested one

    def peek(self, offset: int = 0) -> _Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        return self.next()

    def error(self, msg: str) -> ParseError:
        tok = self.peek()
        return ParseError(msg, tok.line, tok.col)

    def deeper(self) -> None:
        """Count one more nesting level; the caller counts it back out."""
        if self.nesting == MAX_NESTING:
            raise self.error(f"formula nested too deeply (more than {MAX_NESTING} levels)")
        self.nesting += 1

    # -- grammar ----------------------------------------------------------

    def spelled(self, binding: int) -> type[Formula] | None:
        """The operator of this binding strength that the next token
        spells, if any."""
        classes = _SPELLINGS.get(self.peek().text, ())
        return next((c for c in classes if c.binding == binding), None)

    def formula(self) -> Formula:
        """A formula one nesting level below the caller's."""
        self.deeper()
        f = self._chain(_DISJUNCTION)
        implication = self.spelled(_IMPLICATION)
        if implication is not None:
            self.next()
            f = implication(f, self.formula())
        self.nesting -= 1
        return f

    def _chain(self, binding: int) -> Formula:
        """Operands joined by connectives of this binding strength, all of
        one class; the strongest connectives join unary operands."""
        parts: list[Formula] = []
        node_cls = None
        while True:
            parts.append(self._chain(binding + 1) if binding < _CONJUNCTION else self.unary())
            tok, cls = self.peek(), self.spelled(binding)
            if cls is None:
                break
            if node_cls not in (None, cls):
                raise ParseError(
                    "mixing parallel and choice connectives at one level "
                    "requires parentheses",
                    tok.line,
                    tok.col,
                )
            node_cls = cls
            self.next()
        if len(parts) == 1:
            return parts[0]
        return node_cls(tuple(parts))

    def _prefix_ahead(self) -> type[Formula] | None:
        """The negation or quantifier class that the upcoming tokens open,
        else None.  A spelling that also spells a connective (⊓, ⊔) or a
        letter (A, E) opens a quantifier only when a variable follows it,
        and after a letter's spelling only with a dot after the variable."""
        tok = self.peek()
        cls = self.spelled(_NEGATION) or self.spelled(_QUANTIFIER)
        if cls is None or (tok.kind != "IDENT" and len(_SPELLINGS[tok.text]) == 1):
            return cls
        var = self.peek(1)
        if var.kind == "IDENT" and is_variable_name(var.text):
            if tok.kind != "IDENT" or self.peek(2).kind == ".":
                return cls
        return None

    def unary(self) -> Formula:
        cls = self._prefix_ahead()
        if cls is None:
            return self.atom_expr()
        self.next()
        if cls.binding == _NEGATION:
            self.deeper()
            body = self.unary()
            self.nesting -= 1
            return cls(body)
        var_tok = self.expect("IDENT")
        if not is_variable_name(var_tok.text):
            raise ParseError(
                f"{var_tok.text!r} is not a variable (variables are u..z with "
                "an optional digit suffix)",
                var_tok.line,
                var_tok.col,
            )
        if self.peek().kind == ".":
            self.next()
        return cls(var_tok.text, self.formula())

    def atom_expr(self) -> Formula:
        tok = self.peek()
        if tok.kind == "(":
            self.next()
            inner = self.formula()
            self.expect(")")
            return inner
        if tok.kind == "IDENT":
            return self.atom()
        raise self.error(f"expected a formula, found {tok.text or 'end of input'!r}")

    def atom(self) -> Formula:
        name_tok = self.expect("IDENT")
        name = name_tok.text
        if is_variable_name(name):
            raise ParseError(f"{name!r} is a variable, not a letter", name_tok.line, name_tok.col)
        hybrid_elem: str | None = None
        if self.peek().kind == "#":
            self.next()
            elem_tok = self.expect("IDENT")
            if not name[0].isupper() or name in ("T", "F"):
                raise ParseError(
                    f"{name!r} cannot be the general component of a hybrid letter",
                    name_tok.line,
                    name_tok.col,
                )
            if not elem_tok.text[0].islower() or is_variable_name(elem_tok.text):
                raise ParseError(
                    f"{elem_tok.text!r} cannot be the elementary component of a hybrid letter",
                    elem_tok.line,
                    elem_tok.col,
                )
            hybrid_elem = elem_tok.text
        args: tuple[Term, ...] = ()
        if self.peek().kind == "(":
            self.next()
            arg_list = [self.term()]
            while self.peek().kind == ",":
                self.next()
                arg_list.append(self.term())
            self.expect(")")
            args = tuple(arg_list)
        if name == "T" and not args and hybrid_elem is None:
            return TOP
        if name == "F" and not args and hybrid_elem is None:
            return BOT
        arity = len(args)
        key = f"{name}#{hybrid_elem}" if hybrid_elem else name
        seen = self.arities.setdefault(key, arity)
        if seen != arity:
            raise ParseError(
                f"letter {key} used with arity {arity} after arity {seen}",
                name_tok.line,
                name_tok.col,
            )
        if hybrid_elem is not None:
            return Atom(hybrid_letter(name, hybrid_elem, arity), args)
        if name[0].isupper():
            return Atom(gen_letter(name, arity), args)
        return Atom(elem_letter(name, arity), args)

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind == "NUMBER":
            try:
                value = _read_int(tok.text, "constant")
            except ValueError as ex:
                raise self.error(str(ex)) from None
            self.next()
            return Const(value)
        if tok.kind == "IDENT" and is_variable_name(tok.text):
            self.next()
            return Var(tok.text)
        raise self.error(f"expected a term, found {tok.text or 'end of input'!r}")


def parse(text: str) -> Formula:
    """Parse a formula/hyperformula from its ASCII (or Unicode) rendering."""
    parser = _Parser(_tokenize(text), {})
    f = parser.formula()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return f
