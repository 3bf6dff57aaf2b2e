"""The completeness translation: molecules, lifting, floorification, and
the goodness conditions.

A general atom lifts to its large molecule, a cap-of-cups grid of fresh
elementary letters: row a is the medium molecule, the cup of the small
molecules with subscripts 1..m, and the large molecule is the cap of the
m mediums.  Floorification collapses independent occurrences of large,
medium, and isolated small molecules back into the general atom.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .syntax import (
    Atom,
    ChoAnd,
    ChoOr,
    Formula,
    Term,
    _read_int,
    atoms,
    elem_letter,
    gen_letter,
    is_choice,
    is_formula,
    is_variable_name,
    letter_names,
    rewrite,
)


@dataclass(frozen=True)
class MoleculeSignature:
    """m plus the naming scheme: (general letter, a, b) -> fresh elementary
    letter name; arities records each general letter's arity."""

    m: int
    names: dict[tuple[str, int, int], str]
    arities: dict[str, int]

    def small(self, p: str, a: int, b: int, args: tuple[Term, ...]) -> Atom:
        return Atom(elem_letter(self.names[(p, a, b)], self.arities[p]), args)

    def medium(self, p: str, a: int, args: tuple[Term, ...]) -> ChoOr:
        return ChoOr(tuple(self.small(p, a, b, args) for b in range(1, self.m + 1)))

    def large(self, p: str, args: tuple[Term, ...]) -> ChoAnd:
        return ChoAnd(tuple(self.medium(p, a, args) for a in range(1, self.m + 1)))

    @cached_property
    def by_name(self) -> dict[str, tuple[str, int, int]]:
        """Fresh letter name -> (general letter, a, b); the first key in
        names order wins a shared name."""
        return {name: key for key, name in reversed(self.names.items())}

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "letters": {
                p: {
                    "arity": self.arities[p],
                    "names": {f"{a},{b}": self.names[(p, a, b)] for (pp, a, b) in self.names if pp == p},
                }
                for p in self.arities
            },
        }

    @classmethod
    def from_json(cls, doc: dict) -> "MoleculeSignature":
        """Raises ValueError on a malformed document, naming the letter and
        the key at fault."""
        if not isinstance(doc, dict):
            raise ValueError("a molecule signature must be a JSON object")
        try:
            names: dict[tuple[str, int, int], str] = {}
            arities: dict[str, int] = {}
            for p, entry in doc["letters"].items():
                general = isinstance(p, str) and re.fullmatch(r"[A-Z][A-Za-z0-9_]*", p)
                if not general or p in ("T", "F"):
                    raise ValueError(
                        f"malformed molecule signature: letter {p!r} must be a general letter"
                    )
                arities[p] = entry["arity"]
                for key, name in entry["names"].items():
                    if not re.fullmatch(r"[1-9][0-9]*,[1-9][0-9]*", key):
                        raise ValueError(
                            f"malformed molecule signature: key {key!r} of {p} "
                            "must be two positive integers a,b"
                        )
                    a, b = (_read_int(n, "signature key") for n in key.split(","))
                    names[(p, a, b)] = name
            m = doc["m"]
        except KeyError as ex:
            raise ValueError(f"malformed molecule signature: missing {ex}") from None
        except (AttributeError, TypeError) as ex:
            raise ValueError(f"malformed molecule signature: {ex}") from None
        if type(m) is not int:
            raise ValueError("malformed molecule signature: m must be an integer")
        if m < 2:
            raise ValueError("malformed molecule signature: m must be at least 2")
        for p, arity in arities.items():
            if type(arity) is not int or arity < 0:
                raise ValueError(
                    f"malformed molecule signature: arity of {p} must be a non-negative "
                    f"integer, not {arity!r}"
                )
        owners: dict[str, str] = {}
        for (p, a, b), name in names.items():
            where = f"{p} {a},{b}"
            elementary = isinstance(name, str) and re.fullmatch(r"[a-z][A-Za-z0-9_]*", name)
            if not elementary or is_variable_name(name):
                raise ValueError(
                    f"malformed molecule signature: name for {where} must be an elementary "
                    f"letter, not {name!r}"
                )
            if name in owners:
                raise ValueError(
                    f"malformed molecule signature: {owners[name]} and {where} share the name {name}"
                )
            owners[name] = where
        # the first gap in (a, b) order lies within the first len(names) + 1 entries
        for p in arities:
            for a in range(1, m + 1):
                for b in range(1, m + 1):
                    if (p, a, b) not in names:
                        raise ValueError(f"malformed molecule signature: no name for {p} {a},{b}")
        return cls(m, names, arities)


def signature_for(f: Formula) -> MoleculeSignature:
    """Deterministic signature: m is the count of general-letter occurrences
    (at least 2); generated names encode letter and indices and are bumped
    together until fresh for f."""
    if not is_formula(f):
        raise ValueError("lifting is defined for hybrid-free formulas")
    gens = [(g.letter.name, g.letter.arity) for g in atoms(f) if g.letter.kind == "general"]
    m = max(2, len(gens))
    arities = dict(sorted(set(gens)))
    used = letter_names(f)
    for bump in range(1000):
        suffix = "" if bump == 0 else f"_r{bump}"
        names = {
            (p, a, b): f"{p.lower()}_{a}_{b}{suffix}"
            for p in arities
            for a in range(1, m + 1)
            for b in range(1, m + 1)
        }
        if not (set(names.values()) & used):
            return MoleculeSignature(m, names, arities)
    raise AssertionError("could not generate fresh molecule letters")


def lift(f: Formula, sig: MoleculeSignature | None = None) -> Formula:
    """Replace every general atom by its large molecule over the same
    terms; the result contains no general atoms."""
    if not is_formula(f):
        raise ValueError("lifting is defined for hybrid-free formulas")
    sig = sig or signature_for(f)

    def fn(node: Formula) -> Formula | None:
        if isinstance(node, Atom) and node.letter.kind == "general":
            return sig.large(node.letter.name, node.args)
        return None

    return rewrite(f, fn)


# ---------------------------------------------------------------------------
# Molecule recognition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MoleculeOccurrence:
    kind: str  # "large" | "medium" | "small"
    letter: str  # the base general letter
    a: int | None
    b: int | None
    args: tuple[Term, ...]
    polarity: int
    surface: bool


def _molecule(
    node: Formula, sig: MoleculeSignature
) -> tuple[str, str, int | None, int | None, tuple[Term, ...]] | None:
    """node read as a molecule of sig, (kind, letter, a, b, args) with a and
    b None where the kind has no such index, or None.  A small is an
    elementary atom named in sig with its letter's arity; a medium or large
    is a choice disjunction or conjunction of m parts, the smalls b = 1..m
    of one row or the mediums a = 1..m, all over the same args."""
    if isinstance(node, Atom):
        key = sig.by_name.get(node.letter.name) if node.letter.kind == "elementary" else None
        if key is None or node.letter.arity != sig.arities[key[0]]:
            return None
        return ("small", *key, node.args)
    if not is_choice(node) or node.bound_var is not None or len(node.children) != sig.m:
        return None
    large = node.conjunctive
    # a part that cannot be a medium of a large or a small of a medium is
    # not read, so the reading goes at most two levels down
    if any(part.conjunctive if large else not isinstance(part, Atom) for part in node.children):
        return None
    parts = [_molecule(part, sig) for part in node.children]
    if parts[0] is None:
        return None
    _, p, a, _, args = parts[0]
    rows = range(1, sig.m + 1)
    if large:
        want = [("medium", p, i, None, args) for i in rows]
        return ("large", p, None, None, args) if parts == want else None
    want = [("small", p, a, i, args) for i in rows]
    return ("medium", p, a, None, args) if parts == want else None


def independent_occurrences(e: Formula, sig: MoleculeSignature) -> list[MoleculeOccurrence]:
    """Every independent (not inside a larger molecule) occurrence of a
    molecule, at any depth, with polarity and surface status."""
    out: list[MoleculeOccurrence] = []

    def walk(node: Formula, pol: int, surface: bool) -> None:
        molecule = _molecule(node, sig)
        if molecule is not None:
            out.append(MoleculeOccurrence(*molecule, pol, surface))
            return
        surface = surface and not is_choice(node)
        for child, sign in zip(node.children, node.signs):
            walk(child, pol * sign, surface)

    walk(e, 1, True)
    return out


def floorify(e: Formula, sig: MoleculeSignature) -> Formula:
    """Collapse every independent occurrence of a large or medium molecule,
    and of every isolated small molecule, into its base general atom.
    Non-isolated small molecules stay."""
    small_counts = Counter(
        (occ.letter, occ.a, occ.b) for occ in independent_occurrences(e, sig) if occ.kind == "small"
    )

    def fn(node: Formula) -> Formula | None:
        molecule = _molecule(node, sig)
        if molecule is None:
            return None
        kind, p, a, b, args = molecule
        if kind == "small" and small_counts[(p, a, b)] != 1:
            return node
        return Atom(gen_letter(p, sig.arities[p]), args)

    return rewrite(e, fn)


@dataclass(frozen=True)
class Goodness:
    ok: bool
    cond: int | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def is_good(e: Formula, sig: MoleculeSignature) -> Goodness:
    """The four goodness conditions on independent molecule occurrences."""
    occs = independent_occurrences(e, sig)

    if len(occs) > sig.m:
        return Goodness(False, 1, f"{len(occs)} independent molecule occurrences, m={sig.m}")

    for occ in occs:
        if occ.kind != "large" and not occ.surface:
            return Goodness(
                False, 2, f"non-surface independent {occ.kind} molecule of {occ.letter}"
            )

    small_seen: dict[tuple[str, int, int, int], int] = {}
    for occ in occs:
        if occ.kind == "small":
            key = (occ.letter, occ.a, occ.b, occ.polarity)
            small_seen[key] = small_seen.get(key, 0) + 1
            if small_seen[key] > 1:
                sign = "positive" if occ.polarity > 0 else "negative"
                return Goodness(
                    False, 3, f"two {sign} independent {occ.letter}[{occ.a},{occ.b}] molecules"
                )

    medium_pos: dict[tuple[str, int], int] = {}
    for occ in occs:
        if occ.kind == "medium" and occ.polarity > 0:
            key = (occ.letter, occ.a)
            medium_pos[key] = medium_pos.get(key, 0) + 1
            if medium_pos[key] > 1:
                return Goodness(
                    False, 4, f"two positive independent medium {occ.letter}[{occ.a}] molecules"
                )
    for occ in occs:
        if occ.kind == "small" and occ.polarity > 0 and (occ.letter, occ.a) in medium_pos:
            return Goodness(
                False,
                4,
                f"positive medium and positive small molecules share row {occ.letter}[{occ.a}]",
            )

    return Goodness(True)
