import copy
import os
import pickle
import random
import subprocess
import sys
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cl4kit.calculus import CL4, CL4O, RULE_A, Proof, ProofStep, check_proof, to_cl4o
from cl4kit.decide import decide_blindfree, decide_extended
import cl4kit.syntax as syntax
from cl4kit.games import Interpretation, parse_move
from cl4kit.strategy import extract_and_play
from cl4kit.syntax import (
    MAX_DEPTH,
    MAX_NESTING,
    TOP,
    Atom,
    BlindAll,
    ChoAll,
    ChoEx,
    ChoOr,
    Const,
    Formula,
    Implies,
    Neg,
    ParAnd,
    ParOr,
    ParseError,
    addr_str,
    aggregate_complexity,
    apply_valuation,
    check_depth,
    free_variables,
    gen_letter,
    general_dehybridization,
    is_reasonable,
    parse,
    parse_addr,
    pretty,
    replace_at,
    resolve,
    rewrite,
    subformulas,
    substitute,
    surface_occurrences,
    variables,
)

from helpers import (
    random_blindfree,
    random_game_formula,
    random_qf_elementary,
    reference_free_variables,
    reference_surface_occurrences,
    reference_variables,
)


def rt(text):
    f = parse(text)
    assert parse(pretty(f)) == f
    return f


class TestParse:
    def test_disjunction_with_negation(self):
        f = rt("P \\/ ~P")
        assert isinstance(f, ParOr)
        assert f.parts[0] == Atom(gen_letter("P"))
        assert f.parts[1] == Neg(Atom(gen_letter("P")))

    def test_choice_quantifier_prefix(self):
        f = rt("!A x. !E y. (P(x) -> P(y))")
        assert isinstance(f, ChoAll)
        assert isinstance(f.body, ChoEx)
        assert isinstance(f.body.body, Implies)

    def test_truncated_input(self):
        with pytest.raises(ParseError):
            parse("P ->")

    def test_mixing_needs_parens(self):
        with pytest.raises(ParseError):
            parse("p \\/ q !\\/ r")
        with pytest.raises(ParseError):
            parse("p /\\ q !/\\ r")
        # parenthesized mixing is fine
        rt("(p \\/ q) !\\/ r")

    def test_unicode_equivalents(self):
        assert parse("⊓x⊔y(P(x) → P(y))") == parse("!A x. !E y. (P(x) -> P(y))")
        assert parse("¬P ∨ P") == parse("~P \\/ P")
        assert parse("∀x p(x)") == parse("A x. p(x)")
        assert parse("⊤ ∧ ⊥") == parse("T /\\ F")

    def test_chain_flattening(self):
        f = parse("p /\\ q /\\ r")
        assert isinstance(f, ParAnd) and len(f.parts) == 3
        g = parse("(p /\\ q) /\\ r")
        assert isinstance(g, ParAnd) and len(g.parts) == 2
        assert isinstance(g.parts[0], ParAnd)
        assert f != g

    def test_precedence(self):
        f = parse("p /\\ q \\/ r -> s")
        assert isinstance(f, Implies)
        assert isinstance(f.lhs, ParOr)
        assert isinstance(f.lhs.parts[0], ParAnd)

    def test_implication_right_assoc(self):
        f = parse("p -> q -> r")
        assert isinstance(f, Implies) and isinstance(f.rhs, Implies)

    def test_error_positions(self):
        with pytest.raises(ParseError) as exc:
            parse("p \\/\n  ??")
        assert exc.value.line == 2

    def test_variables_are_not_letters(self):
        with pytest.raises(ParseError):
            parse("x \\/ p")

    def test_arity_consistency(self):
        with pytest.raises(ParseError):
            parse("p(x) /\\ p(x, y)")

    @pytest.mark.parametrize(
        "text",
        [
            "(" * 150 + "P" + ")" * 150,
            "~" * 1000 + "P",
            "P -> " * 1000 + "P",
            "!A x. " * 1000 + "P(x)",
            "(" * (MAX_NESTING + 1) + "P" + ")" * (MAX_NESTING + 1),
        ],
        ids=["parens", "negations", "implications", "quantifiers", "one-past-limit"],
    )
    def test_deep_input_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse(text)


# Shapes nested exactly MAX_NESTING levels deep.
_AT_LIMIT = {
    "parens": "(" * MAX_NESTING + "P" + ")" * MAX_NESTING,
    "negations": "~" * MAX_NESTING + "P",
    "implications": " -> ".join(["P"] * (MAX_NESTING + 1)),
    "conjunctions": "(P /\\ " * MAX_NESTING + "Q" + ")" * MAX_NESTING,
    "quantifiers": "!E x. " * (MAX_NESTING - 2) + "(P(x) \\/ ~P(x))",
}


@pytest.mark.parametrize("text", list(_AT_LIMIT.values()), ids=list(_AT_LIMIT))
def test_nesting_at_the_limit_prints_and_decides(text):
    f = parse(text)
    assert parse(pretty(f)) == f
    d = decide_blindfree(f)
    assert d.status in ("provable", "unprovable")
    if d.is_provable:
        assert check_proof(d.proof).ok


def _negations(n, f):
    for _ in range(n):
        f = Neg(f)
    return f


def test_parsed_formulas_pass_the_depth_bound():
    # a parsed formula is at most MAX_NESTING + 1 nodes deep
    for text in _AT_LIMIT.values():
        check_depth(parse(text))
    check_depth(_negations(MAX_DEPTH - 1, parse("p")))
    with pytest.raises(ValueError, match="nested too deeply"):
        check_depth(_negations(MAX_DEPTH, parse("p")))


def _one_step(f, system):
    return Proof(system, [ProofStep(1, f, RULE_A)])


# The library's entry points, each given one formula built in code.
_ENTRY_POINTS = {
    "pretty": pretty,
    "decide_blindfree": decide_blindfree,
    "decide_extended": decide_extended,
    "check_proof": lambda f: check_proof(_one_step(f, CL4)),
    "to_cl4o": lambda f: to_cl4o(_one_step(f, CL4)),
    "extract_and_play": lambda f: extract_and_play(_one_step(f, CL4O), Interpretation(), []),
}


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS.values()), ids=list(_ENTRY_POINTS))
def test_too_deep_formula_built_in_code_is_a_value_error(entry):
    with pytest.raises(ValueError, match="nested too deeply"):
        entry(_negations(1200, parse("p \\/ ~p")))


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS.values()), ids=list(_ENTRY_POINTS))
def test_formula_at_the_depth_bound_passes(entry):
    # MAX_DEPTH nodes deep and provable, so every entry point runs to the end
    entry(_negations(MAX_DEPTH - 2, parse("p -> p")))


def test_nesting_limit_leaves_room_on_the_stack():
    """Parentheses nested MAX_NESTING deep parse within 700 frames of the
    caller's depth, so a caller deep in its own stack still gets the
    ParseError for deeper input rather than a RecursionError."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    text = "(" * MAX_NESTING + "P" + ")" * MAX_NESTING
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 700)
    try:
        assert parse(text) == parse("P")
        with pytest.raises(ParseError, match="nested too deeply"):
            parse("(" + text + ")")
    finally:
        sys.setrecursionlimit(limit)


# Tokens of the formula language, and characters outside it.
_FORMULA_TOKENS = [
    "P", "Q", "p", "q", "T", "F", "x", "y", "A", "E", "0", "12", "P#q", "p(x)",
    "(", ")", ",", ".", "#", "~", "/\\", "\\/", "->", "!/\\", "!\\/", "!A", "!E",
    "¬", "∧", "∨", "→", "⊓", "⊔", "∀", "∃", "⊤", "⊥", " ", "\n", "!", "/", "\\", "-", "?",
]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.text(alphabet="".join(set("".join(_FORMULA_TOKENS))), max_size=40),
        st.lists(st.sampled_from(_FORMULA_TOKENS), max_size=40).map("".join),
        st.tuples(
            st.sampled_from(["(", "~", "!A x. ", "P -> "]),
            st.integers(0, 2 * MAX_NESTING),
            st.lists(st.sampled_from(_FORMULA_TOKENS), max_size=10).map("".join),
        ).map(lambda t: t[0] * t[1] + t[2]),
    )
)
def test_parse_returns_a_formula_or_raises_parse_error(text):
    try:
        f = parse(text)
    except ParseError:
        return
    assert isinstance(f, Formula)


class TestPrint:
    def test_term_rendering(self):
        assert pretty(parse("p(0, 1)")) == "p(0, 1)"

    def test_hybrid_rendering(self):
        assert pretty(parse("P#q(z)")) == "P#q(z)"

    def test_quantifier_rendering(self):
        assert pretty(parse("!A x. !E y. (P(x) -> P(y))")) == "!A x. !E y. (P(x) -> P(y))"


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_parse_print_roundtrip_random(seed):
    rng = random.Random(seed)
    f = random_blindfree(rng, depth=4) if seed % 2 else random_qf_elementary(rng)
    assert parse(pretty(f)) == f


class TestSubstitute:
    def test_free_occurrences(self):
        f = parse("P(x) -> P(y)")
        assert substitute(f, "x", Const(7)) == parse("P(7) -> P(y)")

    def test_bound_untouched(self):
        f = parse("!A x. p(x)")
        assert substitute(f, "x", Const(5)) == f

    def test_nearest_binder(self):
        f = parse("A x. (r \\/ (!E x. p(x)))")
        # the inner occurrence belongs to the inner quantifier
        assert substitute(f.body, "x", Const(3)) == f.body


class TestOccurrences:
    def test_conjunction_with_negated_atom(self):
        f = parse("q /\\ ~P(x)")
        occs = surface_occurrences(f)
        assert [(addr_str(o.address), pretty(o.quasiatom), o.polarity) for o in occs] == [
            ("1.", "q", 1),
            ("2.", "P(x)", -1),
        ]

    def test_whole_formula_quasiatom(self):
        f = parse("!A x. P(x)")
        occs = surface_occurrences(f)
        assert len(occs) == 1
        assert occs[0].address == () and occs[0].polarity == 1

    def test_antecedent_polarity(self):
        f = parse("(P !\\/ Q) /\\ (P !\\/ R) -> P !\\/ (Q /\\ R)")
        occs = surface_occurrences(f)
        assert [(addr_str(o.address), o.polarity) for o in occs] == [
            ("1.1.", -1),
            ("1.2.", -1),
            ("2.", 1),
        ]

    def test_resolution_agrees_with_enumeration(self):
        rng = random.Random(7)
        for _ in range(100):
            f = random_blindfree(rng, depth=4)
            for occ in surface_occurrences(f):
                back = resolve(f, occ.address)
                assert back.quasiatom == occ.quasiatom
                assert back.polarity == occ.polarity

    def test_polarity_recursion_oracle(self):
        # independent oracle: count negation crossings and antecedent edges
        rng = random.Random(11)

        def oracle(node, addr, flips):
            if isinstance(node, Neg):
                return oracle(node.body, addr, flips + 1)
            if isinstance(node, (ParAnd, ParOr)):
                if not addr:
                    return None
                return oracle(node.parts[addr[0] - 1], addr[1:], flips)
            if isinstance(node, Implies):
                if not addr:
                    return None
                child = node.lhs if addr[0] == 1 else node.rhs
                return oracle(child, addr[1:], flips + (1 if addr[0] == 1 else 0))
            if hasattr(node, "body") and hasattr(node, "var"):
                return oracle(node.body, addr, flips)
            return flips

        for _ in range(150):
            f = random_blindfree(rng, depth=5)
            for occ in surface_occurrences(f):
                flips = oracle(f, occ.address, 0)
                assert occ.polarity == (1 if flips % 2 == 0 else -1)



def _one_substitute_per_variable(f, valuation):
    """apply_valuation written out as one substitute pass per free variable."""
    out = f
    for x in sorted(free_variables(f)):
        out = substitute(out, x, Const(valuation.get(x, 0)))
    return out


def _open_up(f):
    """f with the constants 0 and 1 read as the variables x and y, so that
    some of them fall free and some under a quantifier binding x."""
    return parse(pretty(f).replace("(0)", "(x)").replace("(1)", "(y)"))


@pytest.mark.parametrize("seed", [3, 4])
def test_shared_descent_and_rewrite_agree(seed):
    rng = random.Random(seed)
    formulas = [random_blindfree(rng, depth=4) for _ in range(40)]
    for with_blind, with_hybrids in ((True, False), (True, True), (False, True)):
        for _ in range(40):
            f, _ = random_game_formula(
                rng, depth=4, with_blind=with_blind, with_hybrids=with_hybrids
            )
            formulas += [f, _open_up(f)]
    assert any(isinstance(g, BlindAll) for f in formulas for g in subformulas(f))
    assert any(free_variables(f) for f in formulas)
    for f in formulas:
        for occ in surface_occurrences(f):
            assert resolve(f, occ.address) == occ
            assert parse_move(f, addr_str(occ.address)) == (occ, "")
            assert replace_at(f, occ.address, occ.quasiatom) == f
            assert resolve(replace_at(f, occ.address, TOP), occ.address).quasiatom == TOP
        assert rewrite(f, lambda node: None) == f
        for valuation in ({}, {"x": 1}, {"x": 1, "y": 2}):
            assert apply_valuation(f, valuation) == _one_substitute_per_variable(f, valuation)

class TestAddresses:
    def test_rendering(self):
        assert addr_str(()) == ""
        assert addr_str((2,)) == "2."
        assert addr_str((3, 1)) == "3.1."

    def test_parse_addr(self):
        assert parse_addr("3.1.") == (3, 1)
        assert parse_addr("") == ()
        with pytest.raises(ValueError):
            parse_addr("3.1")


class TestAggregateComplexity:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("p \\/ ~p", 2),
            ("P !\\/ ~P", 4),
            ("!A x. !E y. (P(x) -> P(y))", 5),
        ],
    )
    def test_examples(self, text, expected):
        assert aggregate_complexity(parse(text)) == expected


class TestReasonable:
    def test_zero_ary_pair(self):
        assert is_reasonable(parse("P#q \\/ ~P#q"))

    def test_differing_free_terms(self):
        r = is_reasonable(parse("P#q(1) \\/ ~P#q(2)"))
        assert r.status == "unreasonable" and r.detail == "P#q"

    def test_two_positive_occurrences(self):
        r = is_reasonable(parse("P#q /\\ P#q"))
        assert r.status == "unbalanced"

    def test_elementary_component_collision(self):
        r = is_reasonable(parse("(P#q \\/ ~P#q) /\\ q"))
        assert r.status == "unbalanced"

    def test_non_surface_occurrence(self):
        r = is_reasonable(ChoOr((parse("P#q"), parse("~P#q"))))
        assert r.status == "unbalanced"

    def test_balanced_hybrids_appear_twice_with_opposite_polarity(self):
        rng = random.Random(3)
        for _ in range(60):
            base = random_blindfree(rng, depth=3)
            f = ParAnd((parse("P#h \\/ ~P#h"), base))
            if not is_reasonable(f):
                continue
            occs = [
                o
                for o in surface_occurrences(f)
                if isinstance(o.quasiatom, Atom) and o.quasiatom.letter.kind == "hybrid"
            ]
            assert len(occs) == 2
            assert sorted(o.polarity for o in occs) == [-1, 1]


class TestDehybridization:
    def test_pair(self):
        assert general_dehybridization(parse("P#q \\/ ~P#q")) == parse("P \\/ ~P")

    def test_identity_without_hybrids(self):
        f = parse("p \\/ P(0)")
        assert general_dehybridization(f) == f

    def test_two_distinct_hybrids(self):
        assert general_dehybridization(parse("P#q(z) /\\ ~P#r(z)")) == parse(
            "P(z) /\\ ~P(z)"
        )


class TestConjunctive:
    # each dual pair, its conjunctive member first; the other node classes
    # are never conjunctive
    DUALS = [
        ("p /\\ q", "p \\/ q"),
        ("p !/\\ q", "p !\\/ q"),
        ("A x. p(x)", "E x. p(x)"),
        ("!A x. p(x)", "!E x. p(x)"),
    ]
    OTHERS = ["p", "~p", "p -> q"]

    def test_duality_table(self):
        table = {}
        for conj, disj in self.DUALS:
            table[type(parse(conj))] = True
            table[type(parse(disj))] = False
        for text in self.OTHERS:
            table[type(parse(text))] = False
        node_classes = {
            obj
            for name, obj in vars(syntax).items()
            if isinstance(obj, type) and issubclass(obj, Formula) and not name.startswith("_")
        } - {Formula}
        assert set(table) == node_classes and len(table) == 11
        for cls, conjunctive in table.items():
            assert cls.conjunctive is conjunctive, cls.__name__


def _fact_draws(seed):
    """Seeded draws of every generator, and the game formulas again with
    some constants opened up into free and bound variables."""
    rng = random.Random(seed)
    out = [random_blindfree(rng, depth=4) for _ in range(30)]
    out += [random_qf_elementary(rng) for _ in range(30)]
    for blind, hybrids in ((True, False), (False, True), (True, True)):
        games = [
            random_game_formula(rng, depth=4, with_blind=blind, with_hybrids=hybrids)[0]
            for _ in range(30)
        ]
        out += games + [_open_up(f) for f in games]
    return out


class TestCachedFacts:
    @pytest.mark.parametrize("seed", [5, 6])
    def test_facts_match_the_references(self, seed):
        draws = _fact_draws(seed)
        assert any(free_variables(f) for f in draws)
        for f in draws:
            # root first on the draw, so that a node's facts are built from
            # its children's; leaves first on a fresh copy
            nodes = [*subformulas(f), *reversed(list(subformulas(parse(pretty(f)))))]
            for g in nodes + nodes:  # the second round reads the kept facts
                assert variables(g) == reference_variables(g)
                assert free_variables(g) == reference_free_variables(g)
                assert surface_occurrences(g) == reference_surface_occurrences(g)
                # the dataclass-generated hash, given that of every child
                assert hash(g) == hash(tuple(getattr(g, fl.name) for fl in fields(g)))

    def test_returned_collections_are_the_callers(self):
        f = parse("!A x. (P(x, y) -> E z. q(z)) \\/ (r !/\\ s)")
        for fact in (variables, free_variables, surface_occurrences):
            expected = fact(f)
            fact(f).clear()
            assert fact(f) == expected and expected

    def test_copies_and_pickles_take_the_fields_alone(self):
        text = "!A x. (P(x, y) -> E z. q(z)) \\/ (r !/\\ s)"
        f = parse(text)
        hash(f), f.variables, f.free_variables, f.surface_occurrences
        for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert g == f and hash(g) == hash(f) and variables(g) == variables(f)
        # another process hashes strings differently, so it must not be
        # handed this one's hash
        code = (
            "import pickle, sys; from cl4kit.syntax import parse; "
            "g = pickle.loads(sys.stdin.buffer.read()); "
            f"print(hash(g) == hash(parse({text!r})))"
        )
        for seed in ("1", "2"):
            src = os.path.dirname(os.path.dirname(syntax.__file__))
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            out = subprocess.run(
                [sys.executable, "-c", code], input=pickle.dumps(f), capture_output=True,
                env=env, check=True,
            )
            assert out.stdout.strip() == b"True"
