import random

import pytest

from cl4kit.calculus import check_proof, proof_to_json
from cl4kit.classical import tautology_qf
from cl4kit.decide import decide_blindfree, decide_extended
from cl4kit.syntax import parse, pretty

from helpers import random_qf_elementary

# Exercise fixtures, blind-free part.  Keys are the clause numbers.
BLINDFREE = {
    1: ("P \\/ ~P", "provable"),
    2: ("P !\\/ ~P", "unprovable"),
    3: ("P /\\ P -> P", "provable"),
    4: ("P -> P /\\ P", "unprovable"),
    5: ("P -> P !/\\ P", "provable"),
    6: ("(P !\\/ Q) /\\ (P !\\/ R) -> P !\\/ (Q /\\ R)", "provable"),
    7: ("P !\\/ (Q /\\ R) -> (P !\\/ Q) /\\ (P !\\/ R)", "unprovable"),
    8: ("p !\\/ (Q /\\ R) -> (p !\\/ Q) /\\ (p !\\/ R)", "provable"),
    9: ("p !/\\ (Q /\\ R) -> (p !/\\ Q) /\\ (p !/\\ R)", "unprovable"),
    15: ("(!A x. (P(x) /\\ Q(x))) -> (!A x. P(x)) /\\ (!A x. Q(x))", "unprovable"),
    16: (
        "(!A x. ((P(x) /\\ (!A x. Q(x))) !/\\ ((!A x. P(x)) /\\ Q(x))))"
        " -> (!A x. P(x)) /\\ (!A x. Q(x))",
        "provable",
    ),
}

BLIND = {
    "10": ("(A x. P(x)) -> !A x. P(x)", "provable"),
    "11": ("(!A x. P(x)) -> A x. P(x)", "unprovable"),
    "12->": ("((E x. P(x)) !/\\ (E x. Q(x))) -> E x. (P(x) !/\\ Q(x))", "provable"),
    "12<-": ("(E x. (P(x) !/\\ Q(x))) -> (E x. P(x)) !/\\ (E x. Q(x))", "provable"),
    "13->": ("(!A x. E y. P(x, y)) -> E y. !A x. P(x, y)", "provable"),
    "13<-": ("(E y. !A x. P(x, y)) -> !A x. E y. P(x, y)", "provable"),
    "14": ("(A x. (P(x) /\\ Q(x))) -> (A x. P(x)) /\\ (A x. Q(x))", "provable"),
    "cup-cap": ("!E y. !A x. (P(x) -> P(y))", "unprovable"),
}

BLASS = "(P /\\ Q) \\/ (R /\\ S) -> (P \\/ R) /\\ (Q \\/ S)"


class TestBlindfree:
    @pytest.mark.parametrize("clause", sorted(BLINDFREE))
    def test_exercise_clause(self, clause):
        text, expected = BLINDFREE[clause]
        d = decide_blindfree(parse(text))
        assert d.status == expected

    def test_blass_principle(self):
        d = decide_blindfree(parse(BLASS))
        assert d.is_provable

    def test_rejects_blind_quantifiers(self):
        with pytest.raises(ValueError):
            decide_blindfree(parse("A x. p(x)"))

    def test_rejects_hybrids(self):
        with pytest.raises(ValueError):
            decide_blindfree(parse("P#q \\/ ~P#q"))


class TestExtended:
    @pytest.mark.parametrize("name", sorted(BLIND))
    def test_blind_clause(self, name):
        text, expected = BLIND[name]
        d = decide_extended(parse(text))
        assert d.status == expected, d.reason

    def test_agrees_with_blindfree_on_its_fragment(self):
        for clause in (1, 2, 5, 7):
            text, expected = BLINDFREE[clause]
            assert decide_extended(parse(text)).status == expected


class TestSelfCertification:
    def test_every_provable_answer_carries_a_checked_proof(self):
        fixtures = [text for text, v in BLINDFREE.values() if v == "provable"]
        fixtures.append(BLASS)
        for text in fixtures:
            f = parse(text)
            d = decide_blindfree(f)
            assert d.proof is not None
            r = check_proof(d.proof)
            assert r.ok, (text, r.step_id, r.message)
            assert d.proof.conclusion == f

    def test_extended_proofs_check_too(self):
        for text, verdict in BLIND.values():
            if verdict != "provable":
                continue
            f = parse(text)
            d = decide_extended(f)
            assert d.proof is not None and check_proof(d.proof).ok
            assert d.proof.conclusion == f


class TestDeterminism:
    def test_identical_inputs_identical_proofs(self):
        for text, verdict in BLINDFREE.values():
            if verdict != "provable":
                continue
            f = parse(text)
            first = decide_blindfree(f)
            second = decide_blindfree(f)
            assert proof_to_json(first.proof) == proof_to_json(second.proof)


class TestConservativity:
    def test_elementary_formulas_match_tautology(self):
        rng = random.Random(202)
        for _ in range(200):
            f = random_qf_elementary(rng, max_atoms=8, depth=4)
            d = decide_blindfree(f)
            assert d.is_provable == tautology_qf(f), pretty(f)
            if d.is_provable:
                assert check_proof(d.proof).ok


class TestCL3Degeneration:
    def test_rule_c_vacuous_without_general_atoms(self):
        from cl4kit.calculus import c_pairs

        rng = random.Random(303)
        for _ in range(100):
            f = random_qf_elementary(rng, max_atoms=5, depth=3)
            assert c_pairs(f) == []

    def test_choice_elementary_decided_without_c(self):
        d = decide_blindfree(parse("p !/\\ q -> p !/\\ q"))
        assert d.is_provable
        assert all(s.rule.tag != "C" for s in d.proof.steps)


class TestSpaceDiscipline:
    def test_depth_bound_tracks_aggregate_complexity(self):
        # the runtime assertion inside the search enforces
        # depth <= aggregate_complexity + 1; these searches complete
        for text, _ in list(BLINDFREE.values()) + [(BLASS, None)]:
            f = parse(text)
            decide_blindfree(f)  # would raise _DepthExceeded on violation

    def test_trace_is_emitted_on_request(self):
        trace = []
        decide_blindfree(parse("P !\\/ ~P"), trace=trace)
        assert any("fail" in line for line in trace)

    @pytest.mark.parametrize(
        "text, lines",
        [
            (
                "(P !\\/ Q) -> (Q !\\/ P)",
                [
                    "      fail: P -> Q",
                    "        A: a -> a",
                    "      C[a]: P -> P",
                    "    B1[2]: P -> Q !\\/ P",
                    "        A: a -> a",
                    "      C[a]: Q -> Q",
                    "    B1[1]: Q -> Q !\\/ P",
                    "  A: P !\\/ Q -> Q !\\/ P",
                ],
            ),
            (
                "!E y. (P(z) -> P(y))",
                [
                    "      A: a(z) -> a(z)",
                    "    C[a]: P(z) -> P(z)",
                    "  B2[z]: !E y. (P(z) -> P(y))",
                ],
            ),
        ],
    )
    def test_trace_lines(self, text, lines):
        trace = []
        decide_blindfree(parse(text), trace=trace)
        assert trace == lines

    @pytest.mark.parametrize("clause", [6, 7])
    def test_no_formatting_without_a_trace(self, monkeypatch, clause):
        def refuse(f):
            raise AssertionError("pretty called although no trace was asked for")

        monkeypatch.setattr("cl4kit.decide.pretty", refuse)
        text, expected = BLINDFREE[clause]
        assert decide_blindfree(parse(text)).status == expected


class TestBudgetTainting:
    def test_starved_budget_degrades_to_unknown(self):
        from cl4kit.classical import Budget

        f = parse("(A x. P(x)) -> !A x. P(x)")
        tiny = Budget(depth=0, models=0, max_expansions=1)
        d = decide_extended(f, budget=tiny)
        assert d.status == "unknown"
        assert "budget" in d.reason

    def test_provable_answers_stay_certified_under_any_budget(self):
        from cl4kit.classical import Budget

        # no blind quantifiers: stability is exact, budget irrelevant
        f = parse("P \\/ ~P")
        d = decide_extended(f, budget=Budget(depth=0, models=0, max_expansions=1))
        assert d.is_provable and check_proof(d.proof).ok
