"""The walkers read a node's shape (``children``, ``signs``, ``surface``,
``bound_var``, ``conjunctive``) and its notation (``spellings``,
``binding``) instead of testing its class, so the rule for each dual pair
of operators, and each operator's notation, lives in one place.  This
guards that: every module of the package may test a node against ``Atom``,
and against no other node class."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

import cl4kit.syntax as syntax

PACKAGE = Path(syntax.__file__).resolve().parent
MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))


def _node_kinds(name: str) -> set[str]:
    """The node classes other than Atom that a name in syntax stands for:
    the class itself, or the members of a tuple of classes."""
    obj = getattr(syntax, name, None)
    members = obj if isinstance(obj, tuple) else (obj,)
    return {
        m.__name__
        for m in members
        if isinstance(m, type) and issubclass(m, syntax.Formula) and m is not syntax.Atom
    }


def _names(node: ast.expr, aliases: dict[str, list[str]]) -> list[str]:
    """The names a class expression stands for: a name, an attribute, or a
    tuple of them (starred parts and the module's own tuples spelled out)."""
    if isinstance(node, ast.Tuple):
        return [name for elt in node.elts for name in _names(elt, aliases)]
    if isinstance(node, ast.Starred):
        return _names(node.value, aliases)
    if isinstance(node, ast.Name):
        return aliases.get(node.id, [node.id])
    return [getattr(node, "attr", "")]


def _class_tests(source: str) -> list[str]:
    """Line and node class of every isinstance test against a node class
    other than Atom, seeing through tuples bound at module level."""
    tree = ast.parse(source)
    aliases: dict[str, list[str]] = {}
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Tuple)
        ):
            aliases[stmt.targets[0].id] = _names(stmt.value, aliases)
    found = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            continue
        for name in _names(node.args[1], aliases):
            found.extend(f"line {node.lineno}: {c}" for c in sorted(_node_kinds(name)))
    return found


def test_guard_sees_a_ladder():
    source = (
        "_KINDS = (ChoAnd, syntax.ChoOr)\n"
        "if isinstance(f, Atom): pass\n"
        "elif isinstance(f, (ParAnd, syntax.BlindEx)): pass\n"
        "elif isinstance(f, (Neg, *_KINDS)): pass\n"
    )
    assert _class_tests(source) == [
        "line 3: ParAnd",
        "line 3: BlindEx",
        "line 4: Neg",
        "line 4: ChoAnd",
        "line 4: ChoOr",
    ]


@pytest.mark.parametrize("module", MODULES)
def test_no_node_class_tests(module):
    assert _class_tests((PACKAGE / module).read_text()) == []


# Every node class once, with variables free and bound.
_EVERY_NODE = (
    "!A x. (P(x, y) !/\\ (q(x) !\\/ ~(A y. (E z. (r(y, z) -> s /\\ P#h(x))) \\/ !E w. q(w))))"
)


def _node_classes():
    return {
        obj
        for name, obj in vars(syntax).items()
        if isinstance(obj, type) and issubclass(obj, syntax.Formula) and not name.startswith("_")
    } - {syntax.Formula}


def test_every_node_class_hashes_through_the_kept_hash():
    assert len(_node_classes()) == 11
    for cls in _node_classes():
        assert cls.__hash__ is syntax.Formula.__hash__, cls.__name__
        assert cls.__eq__ is syntax.Formula.__eq__, cls.__name__


def test_kept_facts_stay_out_of_the_instance_dict():
    """The facts a node keeps live in Formula's slots, so that a node costs
    no more than its fields and the slots: after every fact of every node
    has been read, each node's __dict__ holds its dataclass fields alone."""
    nodes = list(syntax.subformulas(syntax.parse(_EVERY_NODE)))
    assert {type(g) for g in nodes} == _node_classes()
    for g in nodes:
        hash(g), g.variables, g.free_variables, g.surface_occurrences
        syntax.variables(g), syntax.free_variables(g), syntax.surface_occurrences(g)
    for g in nodes:
        assert list(vars(g)) == [fl.name for fl in fields(g)], type(g).__name__
        assert g._hash == hash(g)
