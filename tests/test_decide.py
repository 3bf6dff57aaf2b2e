import random
from dataclasses import dataclass, field

import pytest

from cl4kit import decide
from cl4kit.calculus import check_proof, proof_to_json
from cl4kit.classical import Budget, tautology_qf
from cl4kit.decide import decide_blindfree, decide_extended
from cl4kit.syntax import Implies, aggregate_complexity, letters, parse, pretty
from cl4kit.translate import lift, signature_for

from helpers import (
    random_blindfree,
    random_game_formula,
    random_qf_elementary,
    random_syllogism,
)

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


class TestWideElementary:
    @pytest.mark.parametrize("n_atoms,seed", [(28, 0), (28, 1), (32, 0), (32, 1)])
    def test_syllogism_wider_than_the_sweep(self, n_atoms, seed):
        f = random_syllogism(random.Random(seed), n_atoms)
        assert len(letters(f)) == n_atoms
        d = decide_blindfree(f)
        assert d.is_provable
        assert check_proof(d.proof).ok
        assert d.proof.conclusion == f


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


class _Forgetful(dict):
    """A memo that stores nothing, so every lookup misses."""

    def __setitem__(self, key, value):
        pass


@dataclass
class _UnmemoizedSearch(decide._Search):
    memo: dict = field(default_factory=_Forgetful)


def _lifted(clause):
    f = parse(BLINDFREE[clause][0])
    return lift(f, signature_for(f))


def _with_copycats(formulas):
    """Each formula f and f -> f, which CL4 proves: a mix of both verdicts."""
    return [g for f in formulas for g in (f, Implies(f, f))]


def _outcome(d):
    return d.status, d.reason, proof_to_json(d.proof) if d.proof else None


class TestMemo:
    """The memo returns what the unmemoized search would have derived, so
    verdicts, reasons and proofs are the same with and without it."""

    def _same_with_and_without_memo(self, monkeypatch, run, formulas):
        with_memo = [_outcome(run(f)) for f in formulas]
        with monkeypatch.context() as m:
            m.setattr(decide, "_Search", _UnmemoizedSearch)
            without = [_outcome(run(f)) for f in formulas]
        for f, a, b in zip(formulas, with_memo, without):
            assert a == b, pretty(f)
        return [status for status, _, _ in with_memo]

    def test_hits_counted(self):
        stats = {}
        decide_blindfree(_lifted(15), stats=stats)
        assert stats["memo_hits"] > 0
        stats = {}
        decide_blindfree(parse(BLINDFREE[1][0]), stats=stats)
        assert stats["memo_hits"] == 0

    def test_unmemoized_search_has_no_hits(self, monkeypatch):
        monkeypatch.setattr(decide, "_Search", _UnmemoizedSearch)
        stats = {}
        decide_blindfree(parse(BLASS), stats=stats)
        assert stats["memo_hits"] == 0

    def test_exercise_tables(self, monkeypatch):
        formulas = [parse(text) for text, _ in BLINDFREE.values()] + [parse(BLASS)]
        self._same_with_and_without_memo(monkeypatch, decide_blindfree, formulas)
        blind = [parse(text) for text, _ in BLIND.values()]
        self._same_with_and_without_memo(monkeypatch, decide_extended, blind)

    def test_lifted_clauses(self, monkeypatch):
        formulas = [_lifted(c) for c in (1, 2, 3, 4, 5, 7, 9, 15)]
        statuses = self._same_with_and_without_memo(monkeypatch, decide_blindfree, formulas)
        assert statuses == [BLINDFREE[c][1] for c in (1, 2, 3, 4, 5, 7, 9, 15)]

    @pytest.mark.parametrize("seed", [11, 12])
    def test_random_blindfree(self, monkeypatch, seed):
        rng = random.Random(seed)
        formulas = _with_copycats(random_blindfree(rng, depth=3) for _ in range(100))
        statuses = self._same_with_and_without_memo(monkeypatch, decide_blindfree, formulas)
        assert {"provable", "unprovable"} <= set(statuses)

    @pytest.mark.parametrize("seed", [21, 22])
    @pytest.mark.parametrize(
        "budget, verdicts",
        [
            (Budget(), {"provable", "unprovable"}),
            (Budget(depth=0, models=0, max_expansions=1), {"provable", "unknown"}),
        ],
        ids=["default-budget", "starved-budget"],
    )
    def test_random_blind_extended(self, monkeypatch, seed, budget, verdicts):
        rng = random.Random(seed)
        formulas = _with_copycats(
            random_game_formula(rng, depth=3, with_blind=True)[0] for _ in range(40)
        )

        def run(f):
            return decide_extended(f, budget=budget)

        statuses = self._same_with_and_without_memo(monkeypatch, run, formulas)
        assert verdicts <= set(statuses)

    def test_lifted_clause_8_decides(self):
        f = _lifted(8)
        stats = {}
        d = decide_blindfree(f, stats=stats)
        assert d.is_provable
        assert check_proof(d.proof).ok
        assert d.proof.conclusion == f
        assert stats["max_depth"] <= aggregate_complexity(f) + 1


def _record(run, f):
    trace, stats = [], {}
    d = run(f, trace=trace, stats=stats)
    return d.status, d.reason, stats, trace, proof_to_json(d.proof) if d.proof else None


class TestLazyRuleAPremises:
    """The search builds Rule A premises as it reads them.  Building them
    all first, as a list, changes no verdict, reason, counter, trace line
    or proof."""

    def _same_lazy_and_eager(self, monkeypatch, run, formulas):
        lazy = [_record(run, f) for f in formulas]
        real = decide.rule_a_premises
        with monkeypatch.context() as m:
            m.setattr(decide, "rule_a_premises", lambda f: list(real(f)))
            eager = [_record(run, f) for f in formulas]
        for f, a, b in zip(formulas, lazy, eager):
            assert a == b, pretty(f)

    def test_exercise_tables(self, monkeypatch):
        formulas = [parse(text) for text, _ in BLINDFREE.values()] + [parse(BLASS)]
        self._same_lazy_and_eager(monkeypatch, decide_blindfree, formulas)
        blind = [parse(text) for text, _ in BLIND.values()]
        self._same_lazy_and_eager(monkeypatch, decide_extended, blind)

    def test_lifted_clauses(self, monkeypatch):
        formulas = [_lifted(c) for c in (1, 2, 3, 4, 5, 7, 8, 9, 15)]
        self._same_lazy_and_eager(monkeypatch, decide_blindfree, formulas)

    def test_random_blindfree(self, monkeypatch):
        rng = random.Random(31)
        formulas = [random_blindfree(rng, depth=3) for _ in range(100)]
        self._same_lazy_and_eager(monkeypatch, decide_blindfree, formulas)

    def test_every_built_premise_is_tried(self, monkeypatch):
        # both lists keep their formulas alive, so their ids stay distinct
        built, tried = [], []
        real_premises, real_prove = decide.rule_a_premises, decide._prove

        def premises(f):
            for req in real_premises(f):
                built.append(req.formula)
                yield req

        def prove(f, depth, search):
            tried.append(f)
            return real_prove(f, depth, search)

        monkeypatch.setattr(decide, "rule_a_premises", premises)
        monkeypatch.setattr(decide, "_prove", prove)
        assert decide_blindfree(_lifted(8)).is_provable
        tried_ids = {id(f) for f in tried}
        assert built and all(id(f) in tried_ids for f in built)
