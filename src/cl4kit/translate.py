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
from dataclasses import dataclass

from .syntax import (
    Atom,
    ChoAnd,
    ChoOr,
    Formula,
    Term,
    _read_int,
    elem_letter,
    gen_letter,
    is_choice,
    is_formula,
    is_variable_name,
    letter_names,
    rewrite,
    subformulas,
)


@dataclass(frozen=True)
class MoleculeSignature:
    """m plus the naming scheme: (general letter, a, b) -> fresh elementary
    letter name; arities records each general letter's arity."""

    m: int
    names: dict[tuple[str, int, int], str]
    arities: dict[str, int]

    def small_name(self, p: str, a: int, b: int) -> str:
        return self.names[(p, a, b)]

    def small(self, p: str, a: int, b: int, args: tuple[Term, ...]) -> Atom:
        return Atom(elem_letter(self.small_name(p, a, b), self.arities[p]), args)

    def medium(self, p: str, a: int, args: tuple[Term, ...]) -> ChoOr:
        return ChoOr(tuple(self.small(p, a, b, args) for b in range(1, self.m + 1)))

    def large(self, p: str, args: tuple[Term, ...]) -> ChoAnd:
        return ChoAnd(tuple(self.medium(p, a, args) for a in range(1, self.m + 1)))

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


def _general_occurrence_count(f: Formula) -> int:
    return sum(
        1 for g in subformulas(f) if isinstance(g, Atom) and g.letter.kind == "general"
    )


def signature_for(f: Formula) -> MoleculeSignature:
    """Deterministic signature: m is the count of general-letter occurrences
    (at least 2); generated names encode letter and indices and are bumped
    together until fresh for f."""
    if not is_formula(f):
        raise ValueError("lifting is defined for hybrid-free formulas")
    m = max(2, _general_occurrence_count(f))
    gens = sorted(
        {
            (g.letter.name, g.letter.arity)
            for g in subformulas(f)
            if isinstance(g, Atom) and g.letter.kind == "general"
        }
    )
    used = letter_names(f)
    for bump in range(1000):
        suffix = "" if bump == 0 else f"_r{bump}"
        names = {
            (p, a, b): f"{p.lower()}_{a}_{b}{suffix}"
            for p, _ in gens
            for a in range(1, m + 1)
            for b in range(1, m + 1)
        }
        if not (set(names.values()) & used):
            return MoleculeSignature(m, names, {p: ar for p, ar in gens})
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
# Molecule pattern matching
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


def _match_small(node: Formula, sig: MoleculeSignature) -> tuple[str, int, int, tuple] | None:
    if not isinstance(node, Atom):
        return None
    for (p, a, b), name in sig.names.items():
        if node.letter.kind == "elementary" and node.letter.name == name:
            return p, a, b, node.args
    return None

def _match_medium(node: Formula, sig: MoleculeSignature) -> tuple[str, int, tuple] | None:
    if len(node.children) != sig.m:
        return None
    first = _match_small(node.children[0], sig)
    if first is None or first[2] != 1:
        return None
    p, a, _, args = first
    if node != sig.medium(p, a, args):
        return None
    return p, a, args


def _match_large(node: Formula, sig: MoleculeSignature) -> tuple[str, tuple] | None:
    if len(node.children) != sig.m:
        return None
    first = _match_medium(node.children[0], sig)
    if first is None or first[1] != 1:
        return None
    p, _, args = first
    if node != sig.large(p, args):
        return None
    return p, args


def independent_occurrences(e: Formula, sig: MoleculeSignature) -> list[MoleculeOccurrence]:
    """Every independent (not inside a larger molecule) occurrence of a
    molecule, at any depth, with polarity and surface status."""
    out: list[MoleculeOccurrence] = []

    def walk(node: Formula, pol: int, surface: bool) -> None:
        large = _match_large(node, sig)
        if large is not None:
            p, args = large
            out.append(MoleculeOccurrence("large", p, None, None, args, pol, surface))
            return
        medium = _match_medium(node, sig)
        if medium is not None:
            p, a, args = medium
            out.append(MoleculeOccurrence("medium", p, a, None, args, pol, surface))
            return
        small = _match_small(node, sig)
        if small is not None:
            p, a, b, args = small
            out.append(MoleculeOccurrence("small", p, a, b, args, pol, surface))
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
    small_counts: dict[tuple[str, int, int], int] = {}
    for occ in independent_occurrences(e, sig):
        if occ.kind == "small":
            key = (occ.letter, occ.a, occ.b)
            small_counts[key] = small_counts.get(key, 0) + 1

    def fn(node: Formula) -> Formula | None:
        large = _match_large(node, sig)
        if large is not None:
            p, args = large
            return Atom(gen_letter(p, sig.arities[p]), args)
        medium = _match_medium(node, sig)
        if medium is not None:
            p, _a, args = medium
            return Atom(gen_letter(p, sig.arities[p]), args)
        small = _match_small(node, sig)
        if small is not None:
            p, a, b, args = small
            if small_counts.get((p, a, b), 0) == 1:
                return Atom(gen_letter(p, sig.arities[p]), args)
            return node
        return None

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
