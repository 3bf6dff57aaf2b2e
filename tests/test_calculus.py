import json
import random

import pytest

from cl4kit.calculus import (
    CL4,
    CL4O,
    Proof,
    ProofStep,
    RULE_A,
    RuleApplication,
    check_proof,
    check_step,
    make_reasonable,
    match_a_premise,
    premises_A,
    proof_from_json,
    proof_to_json,
    rule_a_premises,
    to_cl4o,
)
from cl4kit.classical import tautology_qf
from cl4kit.decide import decide_blindfree, decide_extended
from cl4kit.syntax import (
    Atom,
    BlindAll,
    Const,
    Neg,
    Var,
    _unreasonable_letters,
    elem_letter,
    hybrid_letter,
    is_reasonable,
    parse,
    pretty,
    replace_letter,
    resolve,
    rewrite,
)

from helpers import (
    random_blindfree,
    random_game_formula,
    random_qf_elementary,
    reference_unreasonable_letters,
)


def golden_choice_proof() -> Proof:
    """The four-step derivation of the choice version of the
    for-all-exists matching principle."""
    return Proof(
        CL4,
        [
            ProofStep(1, parse("p(z) -> p(z)"), RULE_A, ()),
            ProofStep(
                2,
                parse("P(z) -> P(z)"),
                RuleApplication("C", pos=(2,), neg=(1,), elem="p"),
                (1,),
            ),
            ProofStep(
                3,
                parse("!E y. (P(z) -> P(y))"),
                RuleApplication("B2", addr=(), term=Var("z")),
                (2,),
            ),
            ProofStep(4, parse("!A x. !E y. (P(x) -> P(y))"), RULE_A, (3,)),
        ],
    )


def golden_blind_proof() -> Proof:
    """The two-step derivation of the blind version."""
    return Proof(
        CL4,
        [
            ProofStep(1, parse("E y. A x. (p(x) -> p(y))"), RULE_A, ()),
            ProofStep(
                2,
                parse("E y. A x. (P(x) -> P(y))"),
                RuleApplication("C", pos=(2,), neg=(1,), elem="p"),
                (1,),
            ),
        ],
    )


class TestPremisesA:
    def test_choice_quantifier_with_fresh_variable(self):
        f = parse("!A x. !E y. (P(x) -> P(y))")
        ps = premises_A(f)
        # deterministic fresh variable: u is the first unused name
        assert ps == [parse("!E y. (P(u) -> P(y))")]

    def test_no_qualifying_occurrences(self):
        assert premises_A(parse("p(z) -> p(z)")) == []

    def test_negative_cups_enumerate_components(self):
        f = parse("(P !\\/ Q) /\\ (P !\\/ R) -> P !\\/ (Q /\\ R)")
        assert len(premises_A(f)) == 4

    def test_deduplication(self):
        f = parse("(P !\\/ P) -> p")
        assert len(premises_A(f)) == 1


class TestMatchAPremise:
    def test_other_fresh_variable(self):
        e = parse("!A x. !E y. (P(x) -> P(y))")
        (req,) = rule_a_premises(e)
        supplied = [parse("P(z) -> P(z)"), parse("!E y. (P(w) -> P(y))")]
        assert match_a_premise(e, req, supplied) == (1, "w")
        assert check_step(e, RULE_A, supplied) is None

    def test_variable_of_the_conclusion_is_not_fresh(self):
        e = parse("!A x. (P(x) -> P(z))")
        (req,) = rule_a_premises(e)
        assert match_a_premise(e, req, [parse("P(z) -> P(z)")]) is None

    def test_vacuous_quantifier(self):
        # the body has no free x, so the premise carries no variable to match
        e = parse("!A x. (e1 -> e1)")
        (req,) = rule_a_premises(e)
        assert match_a_premise(e, req, [parse("e1 -> e2"), parse("e1 -> e1")]) == (1, "x")
        assert match_a_premise(e, req, [parse("e1 -> e2")]) is None

    def test_component(self):
        e = parse("p !/\\ q")
        req = list(rule_a_premises(e))[1]
        assert match_a_premise(e, req, [parse("q"), parse("p")]) == (0, None)
        assert match_a_premise(e, req, [parse("p")]) is None


class TestCheckStep:
    @pytest.mark.parametrize(
        "conclusion, rule, premises, message",
        [
            (
                "p !\\/ q",
                RuleApplication("B1", addr=(), index=3),
                ["p"],
                "component index 3 out of range",
            ),
            (
                "p !/\\ q",
                RuleApplication("B1", addr=(), index=1),
                ["p"],
                "Rule B1 requires a negative cap or positive cup occurrence",
            ),
            (
                "p !\\/ q",
                RuleApplication("B2", addr=(), term=Const(0)),
                ["p"],
                "Rule B2 requires a negative cap-quantifier or positive cup-quantifier occurrence",
            ),
            (
                "p \\/ (q !\\/ r)",
                RuleApplication("B1", addr=(3,), index=1),
                ["p \\/ q"],
                "address 3. does not resolve",
            ),
            (
                "p !\\/ q",
                RuleApplication("B1", addr=(), index=1),
                ["p", "p"],
                "Rule B1 takes exactly one premise",
            ),
        ],
        ids=["b1-index", "b1-positive-cap", "b2-connective", "bad-address", "b1-two-premises"],
    )
    def test_misapplication_message(self, conclusion, rule, premises, message):
        assert check_step(parse(conclusion), rule, [parse(p) for p in premises]) == message

    def test_rule_c_on_identity(self):
        why = check_step(
            parse("P(z) -> P(z)"),
            RuleApplication("C", pos=(2,), neg=(1,), elem="p"),
            [parse("p(z) -> p(z)")],
        )
        assert why is None

    def test_rule_b2_on_cup(self):
        why = check_step(
            parse("!E y. (P(z) -> P(y))"),
            RuleApplication("B2", addr=(), term=Var("z")),
            [parse("P(z) -> P(z)")],
        )
        assert why is None

    def test_instable_conclusion_rejected(self):
        why = check_step(parse("!E y. !A x. (P(x) -> P(y))"), RULE_A, [])
        assert why is not None and "instable" in why

    def test_b2_scope_side_condition(self):
        # choosing the bound variable of an inner choice quantifier is barred
        conclusion = parse("!E x. !A y. p(x, y)")
        why = check_step(
            conclusion,
            RuleApplication("B2", addr=(), term=Var("y")),
            [parse("!A y. p(y, y)")],
        )
        assert why is not None and "scope" in why

    def test_c_letter_freshness(self):
        why = check_step(
            parse("P(z) -> P(z) \\/ p(z)"),
            RuleApplication("C", pos=(2, 1), neg=(1,), elem="p"),
            [parse("p(z) -> p(z) \\/ p(z)")],
        )
        assert why is not None and "fresh" in why

    def test_c_needs_opposite_polarities(self):
        why = check_step(
            parse("P(z) \\/ P(z)"),
            RuleApplication("C", pos=(1,), neg=(2,), elem="p"),
            [parse("p(z) \\/ p(z)")],
        )
        assert why is not None


class TestCheckProof:
    def test_golden_choice(self):
        assert check_proof(golden_choice_proof()).ok

    def test_golden_blind(self):
        assert check_proof(golden_blind_proof()).ok

    def test_tampered_rule_tag_fails_at_step(self):
        p = golden_choice_proof()
        p.steps[1] = ProofStep(
            2, p.steps[1].formula, RuleApplication("B1", addr=(2,), index=1), (1,)
        )
        r = check_proof(p)
        assert not r.ok and r.step_id == 2

    def test_tampered_formula_fails(self):
        p = golden_choice_proof()
        p.steps[0] = ProofStep(1, parse("p(z) -> q(z)"), RULE_A, ())
        r = check_proof(p)
        assert not r.ok and r.step_id in (1, 2)

    def test_tampered_premise_reference_fails(self):
        p = golden_choice_proof()
        p.steps[3] = ProofStep(4, p.steps[3].formula, RULE_A, (2,))
        r = check_proof(p)
        assert not r.ok and r.step_id == 4

    def test_tampered_term_fails(self):
        p = golden_choice_proof()
        p.steps[2] = ProofStep(
            3, p.steps[2].formula, RuleApplication("B2", addr=(), term=Var("y")), (2,)
        )
        r = check_proof(p)
        assert not r.ok and r.step_id == 3

    def test_hybrids_forbidden_in_cl4(self):
        p = Proof(CL4, [ProofStep(1, parse("P#q \\/ ~P#q"), RULE_A, ())])
        r = check_proof(p)
        assert not r.ok

    def test_well_foundedness(self):
        p = Proof(CL4, [ProofStep(1, parse("p \\/ ~p"), RULE_A, (1,))])
        assert not check_proof(p).ok


class TestToCl4o:
    def test_golden_choice_transforms(self):
        h = to_cl4o(golden_choice_proof())
        assert h.system == CL4O
        assert check_proof(h).ok
        assert h.conclusion == golden_choice_proof().conclusion
        assert h.steps[0].formula == parse("P#p(z) -> P#p(z)")
        assert h.steps[1].rule.tag == "Co"

    def test_c_free_proof_is_relabelled(self):
        p = Proof(CL4, [ProofStep(1, parse("p \\/ ~p"), RULE_A, ())])
        h = to_cl4o(p)
        assert h.system == CL4O
        assert [s.formula for s in h.steps] == [s.formula for s in p.steps]
        assert check_proof(h).ok

    def test_duplicate_c_letters_in_parallel_branches(self):
        # both branches introduce the letter "a"; the transform must keep
        # their hybridizations separate
        p = Proof(
            CL4,
            [
                ProofStep(1, parse("a \\/ ~a"), RULE_A, ()),
                ProofStep(
                    2,
                    parse("P \\/ ~P"),
                    RuleApplication("C", pos=(1,), neg=(2,), elem="a"),
                    (1,),
                ),
                ProofStep(3, parse("a \\/ ~a"), RULE_A, ()),
                ProofStep(
                    4,
                    parse("Q \\/ ~Q"),
                    RuleApplication("C", pos=(1,), neg=(2,), elem="a"),
                    (3,),
                ),
                ProofStep(5, parse("(P \\/ ~P) !/\\ (Q \\/ ~Q)"), RULE_A, (2, 4)),
            ],
        )
        assert check_proof(p).ok
        h = to_cl4o(p)
        r = check_proof(h)
        assert r.ok, (r.step_id, r.message)
        assert h.conclusion == p.conclusion

    def test_rejects_broken_input(self):
        p = Proof(CL4, [ProofStep(1, parse("P \\/ ~P"), RULE_A, ())])
        with pytest.raises(ValueError):
            to_cl4o(p)


def _tree_cl4o(proof: Proof) -> Proof:
    """Reference for to_cl4o without its memo: walk the proof as a tree,
    rewrite each C letter to its hybrid in the whole subtree above it, and
    share equal (formula, rule, premise ids) steps."""
    by_id = {s.id: s for s in proof.steps}
    steps: list[ProofStep] = []
    ids: dict[tuple, int] = {}

    def emit(step_id: int, renaming: tuple) -> int:
        step = by_id[step_id]
        formula, rule = step.formula, step.rule
        for old, new in renaming:
            formula = replace_letter(formula, old, new)
        if rule.tag == "C":
            general = resolve(step.formula, rule.pos).quasiatom.letter
            hyb = hybrid_letter(general.name, rule.elem, general.arity)
            renaming += ((elem_letter(rule.elem, general.arity), hyb),)
            rule = RuleApplication("Co", hybrid=hyb.name)
        premises = tuple(emit(p, renaming) for p in step.premises)
        key = (formula, rule, premises)
        if key not in ids:
            ids[key] = len(steps) + 1
            steps.append(ProofStep(ids[key], formula, rule, premises))
        return ids[key]

    emit(proof.steps[-1].id, ())
    return Proof(CL4O, steps)


class TestCl4oSharing:
    """to_cl4o keeps the sharing of the CL4 proof it transforms."""

    @pytest.mark.parametrize(
        "text, steps",
        [
            ("P -> P !/\\ P", 3),
            ("(P !\\/ Q) /\\ (P !\\/ R) -> P !\\/ (Q /\\ R)", 18),
            ("(P !\\/ Q) /\\ (P !\\/ R) /\\ (P !\\/ S) -> P !\\/ (Q /\\ R /\\ S)", 45),
        ],
        ids=["clause-5", "clause-6", "four-letter-clause-6"],
    )
    def test_cl4o_proof_as_small_as_cl4_proof(self, text, steps):
        proof = decide_blindfree(parse(text)).proof
        h = to_cl4o(proof)
        assert len(proof.steps) == steps
        assert len(h.steps) == steps
        assert check_proof(h).ok
        assert len(make_reasonable(h).steps) == steps

    def test_premise_shared_by_two_c_steps(self):
        # step 1 is the premise of two C steps that introduce the letter a
        # for P and for Q, so it needs one CL4o step per rewriting
        f = parse("Q !\\/ (P /\\ Q !\\/ P) -> ~P \\/ ((Q !\\/ P) !\\/ p !/\\ P)")
        proof = decide_blindfree(f).proof
        assert len(_check_transforms(f, proof).steps) == len(proof.steps) + 1 == 14

    def test_random_blindfree_differential(self):
        rng = random.Random(9090)
        proved = with_c = 0
        while proved < 40:
            f = random_blindfree(rng, depth=3)
            decision = decide_blindfree(f)
            if not decision.is_provable:
                continue
            proved += 1
            with_c += any(s.rule.tag == "C" for s in decision.proof.steps)
            _check_transforms(f, decision.proof)
        assert with_c >= 10


def _check_transforms(f, proof: Proof) -> Proof:
    """to_cl4o agrees with the tree reference, and its output and that of
    make_reasonable check and prove f; make_reasonable's steps are all
    reasonable.  Returns the CL4o proof."""
    h = to_cl4o(proof)
    assert proof_to_json(h) == proof_to_json(_tree_cl4o(proof)), pretty(f)
    m = make_reasonable(h)
    for out in (h, m):
        result = check_proof(out)
        assert result.ok, (pretty(f), result.step_id, result.message)
        assert out.conclusion == f
    assert all(is_reasonable(s.formula) for s in m.steps), pretty(f)
    return h


class TestMakeReasonable:
    def test_identity_on_reasonable_proof(self):
        h = to_cl4o(golden_choice_proof())
        m = make_reasonable(h)
        assert check_proof(m).ok
        assert m.conclusion == h.conclusion
        assert all(is_reasonable(s.formula) for s in m.steps)

    def test_unreasonable_co_step_collapses(self):
        p = Proof(
            CL4O,
            [
                ProofStep(1, parse("P#q(1) \\/ ~P#q(2) \\/ s \\/ ~s"), RULE_A, ()),
                ProofStep(
                    2,
                    parse("P(1) \\/ ~P(2) \\/ s \\/ ~s"),
                    RuleApplication("Co", hybrid="P#q"),
                    (1,),
                ),
            ],
        )
        assert check_proof(p).ok
        m = make_reasonable(p)
        assert check_proof(m).ok
        assert len(m.steps) == 1
        assert m.conclusion == p.conclusion
        assert all(is_reasonable(s.formula) for s in m.steps)

    def test_rejects_unreasonable_conclusion(self):
        p = Proof(
            CL4O,
            [ProofStep(1, parse("P#q(1) \\/ ~P#q(2) \\/ s \\/ ~s"), RULE_A, ())],
        )
        with pytest.raises(ValueError):
            make_reasonable(p)


class TestElementaryFragment:
    """An elementary formula has a one-step derivation exactly when it is a
    propositional tautology."""

    def test_two_hundred_random_formulas(self):
        rng = random.Random(101)
        for _ in range(200):
            f = random_qf_elementary(rng, max_atoms=6, depth=4)
            one_step = Proof(CL4, [ProofStep(1, f, RULE_A, ())])
            assert check_proof(one_step).ok == tautology_qf(f), pretty(f)


class TestSerialization:
    def test_round_trip(self):
        for proof in (golden_choice_proof(), golden_blind_proof()):
            doc = proof_to_json(proof)
            again = proof_from_json(json.loads(json.dumps(doc)))
            assert proof_to_json(again) == doc
            assert check_proof(again).ok

    def test_cl4o_round_trip(self):
        h = to_cl4o(golden_choice_proof())
        doc = proof_to_json(h)
        again = proof_from_json(json.loads(json.dumps(doc)))
        assert proof_to_json(again) == doc
        assert check_proof(again).ok


class TestMakeReasonableChains:
    def test_two_collapsing_co_steps(self):
        base = "s \\/ ~s"
        p = Proof(
            CL4O,
            [
                ProofStep(
                    1,
                    parse(f"P#a(1) \\/ ~P#a(2) \\/ (Q#b(1) \\/ ~Q#b(2)) \\/ ({base})"),
                    RULE_A,
                    (),
                ),
                ProofStep(
                    2,
                    parse(f"P(1) \\/ ~P(2) \\/ (Q#b(1) \\/ ~Q#b(2)) \\/ ({base})"),
                    RuleApplication("Co", hybrid="P#a"),
                    (1,),
                ),
                ProofStep(
                    3,
                    parse(f"P(1) \\/ ~P(2) \\/ (Q(1) \\/ ~Q(2)) \\/ ({base})"),
                    RuleApplication("Co", hybrid="Q#b"),
                    (2,),
                ),
            ],
        )
        assert check_proof(p).ok
        m = make_reasonable(p)
        assert check_proof(m).ok
        assert len(m.steps) == 1
        assert m.conclusion == p.conclusion
        assert all(is_reasonable(s.formula) for s in m.steps)

    def test_mixed_reasonable_and_unreasonable_hybrids(self):
        # P#a is unreasonable (differing free constants), Q#b is reasonable:
        # only the former collapses
        p = Proof(
            CL4O,
            [
                ProofStep(
                    1,
                    parse("P#a(1) \\/ ~P#a(2) \\/ (Q#b \\/ ~Q#b) \\/ s \\/ ~s"),
                    RULE_A,
                    (),
                ),
                ProofStep(
                    2,
                    parse("P(1) \\/ ~P(2) \\/ (Q#b \\/ ~Q#b) \\/ s \\/ ~s"),
                    RuleApplication("Co", hybrid="P#a"),
                    (1,),
                ),
                ProofStep(
                    3,
                    parse("P(1) \\/ ~P(2) \\/ (Q \\/ ~Q) \\/ s \\/ ~s"),
                    RuleApplication("Co", hybrid="Q#b"),
                    (2,),
                ),
            ],
        )
        assert check_proof(p).ok
        m = make_reasonable(p)
        assert check_proof(m).ok
        assert m.conclusion == p.conclusion
        assert len(m.steps) == 2  # the P#a application collapsed, Q#b stayed
        assert m.steps[-1].rule.tag == "Co"
        assert all(is_reasonable(s.formula) for s in m.steps)


class TestUnreasonableLetters:
    """One walk finds the unreasonable hybrid letters that the probe in
    helpers finds by asking is_reasonable about each letter alone."""

    PROVABLE = [
        "P \\/ ~P",
        "P /\\ P -> P",
        "P -> P !/\\ P",
        "(P !\\/ Q) /\\ (P !\\/ R) -> P !\\/ (Q /\\ R)",
        "p !\\/ (Q /\\ R) -> (p !\\/ Q) /\\ (p !\\/ R)",
        "(!A x. ((P(x) /\\ (!A x. Q(x))) !/\\ ((!A x. P(x)) /\\ Q(x))))"
        " -> (!A x. P(x)) /\\ (!A x. Q(x))",
        "(A x. P(x)) -> !A x. P(x)",
        "((E x. P(x)) !/\\ (E x. Q(x))) -> E x. (P(x) !/\\ Q(x))",
        "(E x. (P(x) !/\\ Q(x))) -> (E x. P(x)) !/\\ (E x. Q(x))",
        "(!A x. E y. P(x, y)) -> E y. !A x. P(x, y)",
        "(E y. !A x. P(x, y)) -> !A x. E y. P(x, y)",
        "(A x. (P(x) /\\ Q(x))) -> (A x. P(x)) /\\ (A x. Q(x))",
    ]

    def test_cl4o_proof_steps(self):
        formulas = [
            parse("P#a(1) \\/ ~P#a(2) \\/ (Q#b \\/ ~Q#b) \\/ s \\/ ~s"),
            parse("P#a(1) \\/ ~P#a(2) \\/ (Q#b(1) \\/ ~Q#b(2)) \\/ s \\/ ~s"),
            parse("(A x. (P#a(x) \\/ ~P#a(x))) /\\ (Q#b(x) -> Q#b(1))"),
        ]
        for text in self.PROVABLE:
            formulas += [s.formula for s in to_cl4o(decide_extended(parse(text)).proof).steps]
        for f in formulas:
            assert _unreasonable_letters(f) == reference_unreasonable_letters(f), pretty(f)
        assert [len(_unreasonable_letters(f)) for f in formulas[:3]] == [1, 2, 1]

    def test_seeded_hybrid_draws(self):
        """Each draw's hybrid pair as drawn, and with its negative atom on
        another argument, free or bound."""
        rng = random.Random(5)
        found = 0
        for _ in range(300):
            f, _ = random_game_formula(rng, with_hybrids=True, with_blind=rng.random() < 0.5)
            for term in (Const(0), Const(1), Var("x")):

                def moved(node, term=term):
                    if isinstance(node, Neg) and isinstance(node.body, Atom):
                        if node.body.letter.kind == "hybrid":
                            return Neg(Atom(node.body.letter, (term,)))
                    return None

                g = rewrite(f, moved)
                for h in (f, g, BlindAll("x", g)):
                    got = _unreasonable_letters(h)
                    assert got == reference_unreasonable_letters(h), pretty(h)
                    found += bool(got)
        assert found
