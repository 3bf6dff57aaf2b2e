
import importlib.util
import json
import random
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

import pytest

import cl4kit.games as games
import cl4kit.strategy as strategy
from cl4kit.calculus import (
    CL4,
    Proof,
    ProofStep,
    RULE_A,
    RuleApplication,
    make_reasonable,
    to_cl4o,
)
from cl4kit.decide import decide_blindfree
from cl4kit.games import (
    GeneralDef,
    Interpretation,
    LabMove,
    is_manageable,
    is_top_delay,
    negate_run,
    project,
    residual,
    run_of,
)
from cl4kit.strategy import (
    Claim1Result,
    StrategyError,
    assert_claim1,
    enumerate_plays,
    extract_and_play,
)
from cl4kit.syntax import (
    Atom,
    ChoOr,
    Var,
    elem_letter,
    free_variables,
    general_dehybridization,
    parse,
)
from helpers import random_blindfree, reference_enumerate_plays, reference_extract_and_play


def reasonable_proof(text: str):
    d = decide_blindfree(parse(text))
    assert d.is_provable, text
    return make_reasonable(to_cl4o(d.proof))


def interactive_interp(universe: int = 1) -> Interpretation:
    defs = {
        name: GeneralDef(
            (), ChoOr((Atom(elem_letter(f"{name.lower()}1")), Atom(elem_letter(f"{name.lower()}2"))))
        )
        for name in ("P", "Q", "R", "S")
    }
    return Interpretation(
        universe=universe,
        elementary={("p1", ()): True, ("q1", ()): True, ("r1", ()): True, ("s1", ()): True},
        general=defs,
    )


class TestBasicPlays:
    def test_identity_copycat(self):
        proof = reasonable_proof("P -> P")
        interp = interactive_interp()
        t = extract_and_play(proof, interp, ["1.1", "pass"])
        assert t.verdict == "machine-wins"
        assert t.final_run == run_of(("B", "1.1"), ("T", "2.1"))

    def test_empty_play(self):
        proof = reasonable_proof("P -> P")
        t = extract_and_play(proof, interactive_interp(), ["pass"])
        assert t.verdict == "machine-wins"
        assert t.final_run == ()
        assert assert_claim1(t, proof, interactive_interp()).ok

    def test_quantifier_play(self):
        proof = reasonable_proof("!A x. !E y. (P(x) -> P(y))")
        interp = Interpretation(
            universe=2,
            elementary={("l1", (0,)): True, ("l1", (1,)): True},
            general={
                "P": GeneralDef(("x",), ChoOr((Atom(elem_letter("l1", 1), (Var("x"),)),
                                               Atom(elem_letter("l2", 1), (Var("x"),)))))
            },
        )
        t = extract_and_play(proof, interp, ["1", "1.2", "pass"])
        assert t.verdict == "machine-wins"
        # the machine answers the constant choice, then mirrors
        assert t.final_run == run_of(("B", "1"), ("T", "1"), ("B", "1.2"), ("T", "2.2"))
        assert assert_claim1(t, proof, interp).ok

    def test_environment_illegal_move(self):
        proof = reasonable_proof("P -> P")
        t = extract_and_play(proof, interactive_interp(), ["2.1"])
        # 2.1 resolves the consequent cup, which belongs to the machine
        assert t.verdict == "environment-illegal"

    def test_environment_double_resolution(self):
        proof = reasonable_proof("!A x. !E y. (P(x) -> P(y))")
        interp = interactive_interp(universe=2)
        t = extract_and_play(proof, interp, ["1", "0"])
        assert t.verdict == "environment-illegal"

    def test_second_move_inside_a_general_atom_is_illegal(self):
        # 1.2 resolves nothing on the root's surface, but in P's game it is a
        # second move at a choice the environment already made with 1.1
        proof = reasonable_proof("P -> P")
        t = extract_and_play(proof, interactive_interp(), ["1.1", "1.2"])
        assert (t.verdict, t.reason) == ("environment-illegal", "environment move '1.2' is illegal")
        assert t.final_run == run_of(("B", "1.1"), ("T", "2.1"), ("B", "1.2"))

    def test_pass_midway_scores_position(self):
        proof = reasonable_proof("P -> P !/\\ P")
        interp = interactive_interp()
        t = extract_and_play(proof, interp, ["pass"])
        # cap unresolved: the machine wins it outright
        assert t.verdict == "machine-wins"

    def test_aborted_on_missing_premise(self):
        # hand-build a proof whose A step lacks the premise the play needs:
        # the formula is stable, so the checker must not be consulted
        broken = Proof(
            CL4,
            [
                ProofStep(1, parse("e1 -> e1 !/\\ e1"), RULE_A, ()),
            ],
        )
        interp = Interpretation(universe=1, elementary={("e1", ()): True})
        play = strategy._Play(broken, interp)
        assert play.play(["2.1"]).verdict == "aborted"


class TestClaim1:
    def test_ok_on_honest_plays(self):
        proof = reasonable_proof("P -> P")
        interp = interactive_interp()
        for script in (["pass"], ["1.1", "pass"], ["1.2", "pass"]):
            t = extract_and_play(proof, interp, script)
            assert assert_claim1(t, proof, interp).ok

    def test_detects_injected_machine_move(self):
        proof = reasonable_proof("P -> P")
        interp = interactive_interp()
        t = extract_and_play(proof, interp, ["1.1", "pass"])
        # corrupt a snapshot: pretend the machine moved alone in an
        # unmatched general quasiatom
        bad_event = t.events[-1]
        corrupted = replace(
            bad_event,
            state=replace(bad_event.state, omega=(LabMove("T", "2.9"),)),
        )
        t.events[-1] = corrupted
        res = assert_claim1(t, proof, interp)
        assert not res.ok and "clause" in res.which

    def test_copycat_symmetry_after_bursts(self):
        # after every copy-cat burst and every mirrored reply, each hybrid
        # pair's subplays are mutual delays
        from cl4kit.games import hybrid_pairs

        proof = reasonable_proof("P -> P")
        interp = interactive_interp()
        for script in (["1.1", "pass"], ["1.2", "1.1", "pass"]):
            t = extract_and_play(proof, interp, script)
            if t.verdict != "machine-wins":
                continue
            for event in t.events:
                if event.case not in ("Co", "env-hybrid"):
                    continue
                omega_after = event.state.omega + event.moves
                for pos, neg in hybrid_pairs(event.state.formula):
                    d = project(omega_after, pos.address, "raw")
                    g = negate_run(project(omega_after, neg.address, "raw"))
                    assert is_top_delay(d, g), (script, event.case)

    def test_final_stage_stability_and_manageability(self):
        # at normal termination the engine sits at a stable step whose
        # accumulated quasiatom position is manageable, and the winner
        # evaluator confirms the machine's win
        from cl4kit.classical import is_stable
        from cl4kit.games import is_manageable, winner

        proof = reasonable_proof("P /\\ P -> P")
        interp = interactive_interp()
        plays = enumerate_plays(proof, interp, max_env_moves=3)
        for script, t in plays:
            if t.verdict != "machine-wins":
                continue
            last = t.events[-1]
            assert last.case == "final", script
            k_last = last.state.ground()
            omega = last.state.omega
            assert is_stable(k_last).is_valid, script
            assert is_manageable(k_last, omega), script
            assert winner(k_last, interp, omega) == "T", script


def _claim1_by_replay(transcript, proof, interp):
    """assert_claim1 with the original game replayed from the empty run at
    every event; a ValueError comes back as its type name."""
    try:
        for idx, event in enumerate(transcript.events):
            k, omega = event.state.ground(), event.state.omega
            manageable = is_manageable(k, omega)
            if not manageable:
                which = f"manageability clause {manageable.clause} at {manageable.address}"
                return Claim1Result(False, idx, which)
            left = residual(proof.conclusion, interp, event.theta_before)
            right = residual(k, interp, omega)
            if general_dehybridization(left.formula) != general_dehybridization(right.formula):
                return Claim1Result(False, idx, "formulas")
            if left.stored != right.stored:
                return Claim1Result(False, idx, "stored quasiatom runs diverge")
        return Claim1Result(True)
    except ValueError:
        return "ValueError"


class TestClaim1Carry:
    """assert_claim1 carries the original game's position from event to
    event; a transcript whose theta does not grow that way is judged as a
    replay from the empty run judges it."""

    def test_tampered_theta(self):
        proof = reasonable_proof("P /\\ P -> P")
        interp = interactive_interp()
        outcomes = set()
        for _, t in enumerate_plays(proof, interp, max_env_moves=3):
            for idx, event in enumerate(t.events):  # the middle ones and the rest
                theta = event.theta_before
                for tampered in (
                    theta[:-1],
                    theta + (LabMove("B", "1.1.1"),),
                    theta + (LabMove("B", "9.9"),),
                    theta[::-1],
                    (),
                ):
                    events = list(t.events)
                    events[idx] = replace(event, theta_before=tampered)
                    tt = replace(t, events=events)
                    expected = _claim1_by_replay(tt, proof, interp)
                    try:
                        got = assert_claim1(tt, proof, interp)
                    except ValueError:
                        got = "ValueError"
                    if isinstance(got, Claim1Result) and got.which.startswith("residual"):
                        got = replace(got, which="formulas")
                    assert got == expected, (t.final_run, idx, tampered)
                    outcomes.add(expected if isinstance(expected, str) else expected.ok)
        assert outcomes == {True, False, "ValueError"}


class TestEnumeration:
    def test_exhaustive_small_games(self):
        proof = reasonable_proof("P /\\ P -> P")
        interp = interactive_interp()
        plays = enumerate_plays(proof, interp, max_env_moves=3)
        assert len(plays) > 3
        for script, t in plays:
            assert t.verdict in ("machine-wins", "environment-illegal"), (
                script,
                t.verdict,
                t.reason,
            )
            claim = assert_claim1(t, proof, interp)
            assert claim.ok, (script, claim.iteration, claim.which)

    def test_rejects_bad_proofs(self):
        broken = Proof(CL4, [ProofStep(1, parse("P \\/ ~P"), RULE_A, ())])
        with pytest.raises(StrategyError):
            enumerate_plays(broken, interactive_interp(), 2)

    def test_plays_score_from_the_carried_position(self, monkeypatch):
        """A finished play is scored from the root position carried through
        it, without replaying its run, and the score is the winner of the
        run."""
        proof = reasonable_proof("P /\\ P -> P")
        interp = interactive_interp()

        def replay(*args):
            raise AssertionError("the run was replayed to score it")

        with monkeypatch.context() as patch:
            patch.setattr(games, "winner", replay)
            patch.setattr(strategy, "winner", replay, raising=False)
            plays = enumerate_plays(proof, interp, max_env_moves=3)
        assert plays
        for _, t in plays:
            assert t.verdict == "machine-wins"
            assert games.winner(proof.conclusion, interp, t.final_run) == "T"

    def test_illegal_machine_move_is_a_value_error(self):
        # an unchecked proof whose B1 step picks a component the cup lacks
        broken = Proof(
            CL4,
            [
                ProofStep(1, parse("e1 -> e1"), RULE_A, ()),
                ProofStep(2, parse("e1 -> e1 !\\/ e1"), RuleApplication("B1", addr=(2,), index=3), (1,)),
            ],
        )
        interp = Interpretation(universe=1, elementary={("e1", ()): True})
        play = strategy._Play(broken, interp)
        assert play.play([]) is None  # waiting at step 1
        with pytest.raises(ValueError, match="move 1 of the run, .* is illegal"):
            play.end()


@cache
def _prove_play_cases() -> list:
    """The benchmark's prove-play clauses, each proved, made reasonable and
    paired with its three interpretations (perfbench/workloads.py), the
    exercise table's letter names kept."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", perfbench / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(perfbench))  # for its qfeval
    try:
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(str(perfbench))
    names = {c: c for c in "PQRp"}
    cases = []
    for clause in sum(workloads.PLAY_ITEMS, ()):
        f = parse(workloads.EXERCISES[clause][0])
        proof = reasonable_proof(workloads.EXERCISES[clause][0])
        cases += [(clause, proof, interp) for interp in workloads._interpretations(f, names)]
    return cases


@cache
def _random_cases() -> list:
    """Closed provable random_blindfree draws, made reasonable, under the
    interactive interpretation."""
    rng = random.Random(909)
    cases = []
    while len(cases) < 30:
        f = random_blindfree(rng, depth=2, n_general=3)
        if free_variables(f):
            continue
        d = decide_blindfree(f)
        if d.is_provable:
            cases.append((f, make_reasonable(to_cl4o(d.proof)), interactive_interp()))
    return cases


def _assert_same_play(got, expected, proof, interp, where) -> None:
    assert json.dumps(got.to_json()) == json.dumps(expected.to_json()), where
    assert got.events == expected.events, where
    assert assert_claim1(got, proof, interp) == assert_claim1(expected, proof, interp), where


class TestPlayEngine:
    """The forkable play against the reference engine that played every
    script from the empty run (tests/helpers.py): the same scripts in the
    same order, byte-identical transcripts, equal Claim 1 results."""

    @pytest.mark.parametrize("which", ["prove-play", "random"])
    def test_enumeration_matches_the_reference(self, which):
        cases = _prove_play_cases() if which == "prove-play" else _random_cases()
        max_env_moves = 4 if which == "prove-play" else 3
        total = 0
        for label, proof, interp in cases:
            got = enumerate_plays(proof, interp, max_env_moves)
            expected = reference_enumerate_plays(proof, interp, max_env_moves)
            assert [s for s, _ in got] == [s for s, _ in expected], label
            for (script, t), (_, r) in zip(got, expected):
                _assert_same_play(t, r, proof, interp, (label, script))
            total += len(got)
        assert total >= (600 if which == "prove-play" else 100)

    @pytest.mark.parametrize("max_steps", [3, 7, 1000])
    def test_script_prefixes_match_the_reference(self, max_steps):
        # every prefix of an enumerated script, run out or passing
        for clause, proof, interp in _prove_play_cases():
            scripts = reference_enumerate_plays(proof, interp, 2)
            for script in sorted({tuple(s[:k]) for s, _ in scripts for k in range(len(s) + 1)}):
                expected = reference_extract_and_play(proof, interp, list(script), max_steps)
                got = extract_and_play(proof, interp, list(script), max_steps)
                _assert_same_play(got, expected, proof, interp, (clause, script))

    def test_plays_cut_short_end_alike_for_every_extension(self, monkeypatch):
        # a play out of loop iterations reads no more of its script, yet its
        # extensions are enumerated, each ending as it did
        proof = reasonable_proof("P /\\ P -> P")
        interp = interactive_interp()
        for max_steps in (1, 2, 4):
            expected = reference_enumerate_plays(proof, interp, 3, max_steps)
            with monkeypatch.context() as patch:
                patch.setattr(strategy._Play.__init__, "__defaults__", (max_steps,))
                got = enumerate_plays(proof, interp, max_env_moves=3)
            assert [s for s, _ in got] == [s for s, _ in expected]
            for (script, t), (_, r) in zip(got, expected):
                _assert_same_play(t, r, proof, interp, (max_steps, script))
            unread = [s for s, t in got if len(s) - 1 > sum(m.player == "B" for m in t.final_run)]
            assert bool(unread) == (max_steps < 4)
            # every script has a transcript of its own, not one shared
            assert len({id(t.events) for _, t in got}) == len(got)

    def test_enumeration_forks_and_never_replays(self, monkeypatch):
        """Each prefix is played once: enumeration neither plays a script
        from the empty run nor folds the root game again to list the
        environment's moves."""
        proof = reasonable_proof("P /\\ P -> P")
        interp = interactive_interp()
        expected = reference_enumerate_plays(proof, interp, 3)

        def replay(*args, **kwargs):
            raise AssertionError("a prefix was played again")

        with monkeypatch.context() as patch:
            for module, name in (
                (strategy, "extract_and_play"),
                (strategy, "residual"),
                (strategy, "legal_moves"),
                (games, "residual"),
                (games, "legal_moves"),
            ):
                patch.setattr(module, name, replay, raising=False)
            got = enumerate_plays(proof, interp, max_env_moves=3)
        assert [s for s, _ in got] == [s for s, _ in expected]
        for (script, t), (_, r) in zip(got, expected):
            _assert_same_play(t, r, proof, interp, script)

    def test_a_fork_leaves_its_parent_waiting(self):
        proof = reasonable_proof("P -> P")
        interp = interactive_interp()
        play = strategy._Play(proof, interp)
        assert play.play([]) is None
        left = play.fork()
        assert left.play(["1.1"]) is None
        assert play.fork().play(["1.2", "pass"]).final_run == run_of(("B", "1.2"), ("T", "2.2"))
        assert left.end().final_run == run_of(("B", "1.1"), ("T", "2.1"))
        assert play.end().final_run == ()


class TestPreconditions:
    def test_open_formula_rejected(self):
        d = decide_blindfree(parse("P(x) -> P(x)"))
        proof = make_reasonable(to_cl4o(d.proof))
        with pytest.raises(StrategyError):
            extract_and_play(proof, interactive_interp(), ["pass"])

    UNREASONABLE = Proof(
        "CL4o",
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

    def test_unreasonable_step_rejected(self):
        with pytest.raises(StrategyError):
            extract_and_play(self.UNREASONABLE, interactive_interp(2), ["pass"])

    def test_enumeration_rejects_what_play_rejects(self):
        interp = Interpretation(
            universe=2, general={"P": GeneralDef(("x",), parse("a(x) !\\/ b(x)"))}
        )
        for play in (
            lambda: extract_and_play(self.UNREASONABLE, interp, ["pass"]),
            lambda: enumerate_plays(self.UNREASONABLE, interp, 2),
        ):
            with pytest.raises(StrategyError, match="step 1 is not reasonable"):
                play()


class TestRandomizedSoundness:
    """decide -> hybridize -> make reasonable -> play: on randomly generated
    provable formulas the extracted strategy wins every enumerated play and
    keeps the loop invariants."""

    def test_generated_provable_formulas_win_everywhere(self):
        rng = random.Random(909)
        interp = interactive_interp()
        played = 0
        attempts = 0
        while played < 30 and attempts < 3000:
            attempts += 1
            f = random_blindfree(rng, depth=2, n_general=3)
            if free_variables(f):
                continue
            d = decide_blindfree(f)
            if not d.is_provable:
                continue
            proof = make_reasonable(to_cl4o(d.proof))
            plays = enumerate_plays(proof, interp, max_env_moves=3)
            for script, t in plays:
                assert t.won, (pretty_or(f), script, t.verdict, t.reason)
                claim = assert_claim1(t, proof, interp)
                assert claim.ok, (pretty_or(f), script, claim.iteration, claim.which)
            played += 1
        assert played >= 30


def pretty_or(f):
    from cl4kit.syntax import pretty

    return pretty(f)


class TestVacuousQuantifier:
    def test_constant_choice_on_vacuous_body(self):
        # the quantified variable has no free occurrence in the body, so the
        # premise carries no fresh variable to match on
        proof = reasonable_proof("!A x. (e1 -> e1)")
        interp = Interpretation(universe=2, elementary={("e1", ()): True})
        t = extract_and_play(proof, interp, ["1", "pass"])
        assert t.verdict == "machine-wins"
        assert assert_claim1(t, proof, interp).ok


    def test_vacuous_choice_keeps_the_value_of_its_variable_free_elsewhere(self):
        # B2 instantiates z to x, free from then on and valued 0 by the
        # machine's move 1.0; the environment's 2.1 picks x = 1 in a vacuous
        # quantifier on x, and must not revalue the free x
        proof = Proof(
            "CL4o",
            [
                ProofStep(1, parse("(p(x) -> p(x)) /\\ (q -> q)"), RULE_A, ()),
                ProofStep(2, parse("(p(x) -> p(x)) /\\ !A x. (q -> q)"), RULE_A, (1,)),
                ProofStep(
                    3,
                    parse("(!E z. (p(z) -> p(z))) /\\ !A x. (q -> q)"),
                    RuleApplication("B2", addr=(1,), term=Var("x")),
                    (2,),
                ),
            ],
        )
        interp = Interpretation(universe=2, elementary={("p", (0,)): True})
        t = extract_and_play(proof, interp, ["2.1", "pass"])
        assert t.final_run == run_of(("T", "1.0"), ("B", "2.1"))
        assert [dict(e.state.valuation) for e in t.events] == [{}, {"x": 0}, {"x": 0}, {"x": 0}]
        assert assert_claim1(t, proof, interp).ok


class TestChoiceAfterQuantifier:
    def test_component_choice_mentions_the_chosen_constant(self):
        # after the environment picks x = 1, the cap's components mention the
        # proof's fresh variable; the engine must match them unground
        proof = reasonable_proof("!A x. ((p(x) \\/ ~p(x)) !/\\ (p(x) -> p(x)))")
        interp = Interpretation(universe=2, elementary={("p", (0,)): True})
        for script in (["1", "1", "pass"], ["1", "2", "pass"], ["0", "2", "pass"]):
            t = extract_and_play(proof, interp, script)
            assert t.verdict == "machine-wins", (script, t.reason)
            assert assert_claim1(t, proof, interp).ok
