import random

import pytest

from cl4kit.games import (
    BOT_PLAYER,
    GeneralDef,
    Interpretation,
    LabMove,
    ResidualState,
    TOP_PLAYER,
    advance,
    choice_mover,
    flip,
    hybrid_pairs,
    is_manageable,
    is_top_delay,
    is_unilegal,
    legal_moves,
    negate_run,
    parse_move,
    project,
    residual,
    run_of,
    winner,
)
from cl4kit.syntax import (
    Atom,
    BlindAll,
    BlindEx,
    ChoAnd,
    ChoOr,
    Const,
    Implies,
    Neg,
    ParAnd,
    ParOr,
    Var,
    addr_str,
    apply_valuation,
    elem_letter,
    gen_letter,
    hybrid_letter,
    parse,
    pretty,
    replace_at,
    surface_occurrences,
)

from helpers import (
    all_legal_runs,
    random_game_formula,
    random_legal_run,
    rearrangements,
    reference_play,
)

LEMMA_RUN = run_of(("B", "1.a"), ("B", "2.b"), ("B", "3.1.d"), ("T", "2.d"), ("T", "3.1.b"))
LEMMA_FORMULA = parse("S \\/ ~P#q \\/ (P#q /\\ (!A x. Q(x)) /\\ (r \\/ ~r))")


class TestInterpretation:
    def test_repeated_parameter_is_rejected(self):
        with pytest.raises(ValueError, match="repeated parameter"):
            GeneralDef(("x", "x"), parse("l1(x)"))
        doc = {"universe": 2, "general": {"P": {"params": ["x", "x"], "body": "l1(x)"}}}
        with pytest.raises(ValueError, match="repeated parameter"):
            Interpretation.from_json(doc)

    def test_expansion_binds_each_parameter(self):
        doc = {"universe": 2, "general": {"P": {"params": ["x", "y"], "body": "l1(x) !\\/ l2(y)"}}}
        interp = Interpretation.from_json(doc)
        assert interp.expand_general("P", (0, 1)) == parse("l1(0) !\\/ l2(1)")


class TestRunBasics:
    def test_negate_run(self):
        g = run_of(("T", "b"), ("B", "d"))
        assert negate_run(g) == run_of(("B", "b"), ("T", "d"))
        assert negate_run(negate_run(g)) == g
        assert negate_run(()) == ()

    def test_raw_projection(self):
        assert project(LEMMA_RUN, (2,), "raw") == run_of(("B", "b"), ("T", "d"))

    def test_signed_projection_negates_at_negative_quasiatoms(self):
        got = project(LEMMA_RUN, (2,), "signed", of=LEMMA_FORMULA)
        assert got == run_of(("T", "b"), ("B", "d"))

    def test_delete_projection(self):
        phi = run_of(("B", "1.2"), ("T", "2.1"))
        assert project(phi, (1,), "delete") == run_of(("T", "2.1"))

    def test_empty_address_projects_everything(self):
        assert project(LEMMA_RUN, (), "raw") == LEMMA_RUN
        assert project(LEMMA_RUN, (), "delete") == ()


class TestTopDelay:
    def test_paper_pair(self):
        d = run_of(("B", "d"), ("T", "b"))
        g = run_of(("T", "b"), ("B", "d"))
        assert is_top_delay(d, g) is True
        assert is_top_delay(g, d) is False

    def test_reflexive(self):
        for r in ((), LEMMA_RUN, run_of(("T", "x"))):
            assert is_top_delay(r, r)

    def test_move_content_must_match(self):
        assert not is_top_delay(run_of(("T", "a")), run_of(("T", "b")))
        assert not is_top_delay(run_of(("T", "a")), run_of(("T", "a"), ("B", "c")))

    def test_transitive_on_samples(self):
        rng = random.Random(4)
        for _ in range(200):
            moves = [
                LabMove(rng.choice("TB"), rng.choice("abc")) for _ in range(rng.randint(0, 4))
            ]
            base = tuple(moves)
            variants = rearrangements(base)
            for d1 in variants:
                for d2 in variants:
                    if is_top_delay(d1, base) and is_top_delay(d2, d1):
                        assert is_top_delay(d2, base)


class TestManageability:
    def test_worked_run_is_manageable(self):
        assert is_manageable(LEMMA_FORMULA, LEMMA_RUN)

    def test_machine_move_in_general_atom_violates_clause_3(self):
        bad = LEMMA_RUN + (LabMove("T", "1.z"),)
        m = is_manageable(LEMMA_FORMULA, bad)
        assert not m.ok and m.clause == 3

    def test_choice_move_violates_clause_1(self):
        bad = LEMMA_RUN + (LabMove("B", "3.2.0"),)
        m = is_manageable(LEMMA_FORMULA, bad)
        assert not m.ok and m.clause == 1

    def test_asymmetric_hybrid_play_violates_clause_2(self):
        # the machine moves in the positive copy before the environment
        # moved in the negative one
        bad = run_of(("T", "3.1.b"))
        m = is_manageable(LEMMA_FORMULA, bad)
        assert not m.ok and m.clause == 2

    def test_requires_reasonable_input(self):
        with pytest.raises(ValueError):
            is_manageable(parse("P#q /\\ P#q"), ())


class TestLegality:
    def test_worked_choice_run(self):
        interp = Interpretation(universe=2)
        f = parse("(e1 !/\\ e2) \\/ (e3 !\\/ e4)")
        assert is_unilegal(f, interp, run_of(("B", "1.2"), ("T", "2.1")))
        assert not is_unilegal(f, interp, run_of(("T", "1.2")))
        assert is_unilegal(f, interp, ())

    def test_elementary_atoms_admit_no_moves(self):
        interp = Interpretation(universe=1)
        assert not is_unilegal(parse("e1 \\/ e2"), interp, run_of(("B", "1.x")))

    def test_unresolvable_move_is_illegal_not_an_error(self):
        interp = Interpretation(universe=1)
        f = parse("e1 !/\\ e2")
        assert not is_unilegal(f, interp, run_of(("B", "nonsense")))

    def test_out_of_universe_constant(self):
        interp = Interpretation(universe=2)
        f = parse("!E x. l1(x)")
        assert is_unilegal(f, interp, run_of(("T", "1")))
        assert not is_unilegal(f, interp, run_of(("T", "7")))

    def test_choice_admits_at_most_one_move(self):
        interp = Interpretation(universe=2)
        f = parse("e1 !/\\ e2")
        assert not is_unilegal(f, interp, run_of(("B", "1"), ("B", "2")))

    def test_a_player_tag_other_than_t_or_b_is_illegal_under_negation(self):
        # negating a run swaps T and B and keeps any other tag, so no tag
        # turns into the mover a choice expects
        interp = Interpretation(universe=2)
        f = parse("~(e1 !\\/ e2)")
        assert is_unilegal(f, interp, run_of(("B", "1")))
        assert not is_unilegal(f, interp, run_of(("X", "1")))
        with pytest.raises(ValueError):
            residual(f, interp, run_of(("X", "1")))


class TestLegalMoves:
    def test_lists_each_players_choices(self):
        interp = Interpretation(universe=2)
        f = parse("(e1 !/\\ e2) -> (!E x. l1(x))")
        assert legal_moves(f, interp, (), "T") == ["1.1", "1.2", "2.0", "2.1"]
        assert legal_moves(f, interp, (), "B") == []
        assert legal_moves(f, interp, run_of(("T", "1.2")), "T") == ["2.0", "2.1"]

    @pytest.mark.parametrize(
        "text, run",
        [
            ("e1 !/\\ e2", run_of(("B", "7"))),
            ("e1 !/\\ e2", run_of(("T", "1"))),
            ("e1 \\/ e2", run_of(("B", "x"))),
            ("e1 \\/ (e2 !\\/ e3)", run_of(("T", "1.1"))),
        ],
        ids=["bad-payload", "wrong-player", "unrouted", "elementary"],
    )
    def test_rejects_runs_that_are_not_unilegal(self, text, run):
        interp = Interpretation(universe=2)
        assert not is_unilegal(parse(text), interp, run)
        for player in ("T", "B"):
            with pytest.raises(ValueError):
                legal_moves(parse(text), interp, run, player)


class TestWinner:
    def test_logical_atoms(self):
        interp = Interpretation(universe=1)
        assert winner(parse("T"), interp, ()) == "T"
        assert winner(parse("F"), interp, ()) == "B"

    def test_unresolved_choices(self):
        interp = Interpretation(universe=1, elementary={("e1", ()): True})
        assert winner(parse("e1 !/\\ e2"), interp, ()) == "T"
        assert winner(parse("e1 !\\/ e2"), interp, ()) == "B"
        assert winner(parse("!A x. l1(x)"), interp, ()) == "T"
        assert winner(parse("!E x. l1(x)"), interp, ()) == "B"

    def test_resolution_descends(self):
        interp = Interpretation(universe=1, elementary={("e1", ()): True})
        f = parse("e1 !/\\ e2")
        assert winner(f, interp, run_of(("B", "1"))) == "T"
        assert winner(f, interp, run_of(("B", "2"))) == "B"

    def test_blind_quantifiers_sweep_the_universe(self):
        interp = Interpretation(
            universe=2, elementary={("l1", (0,)): True, ("l1", (1,)): False}
        )
        assert winner(parse("E x. l1(x)"), interp, ()) == "T"
        assert winner(parse("A x. l1(x)"), interp, ()) == "B"

    def test_rejects_illegal_runs(self):
        interp = Interpretation(universe=1)
        with pytest.raises(ValueError):
            winner(parse("e1"), interp, run_of(("B", "0")))

    def test_worked_manageable_run_wins_when_stable(self):
        # the machine-favoured evaluation of the worked hyperformula under
        # an interpretation making its elementarization's promise concrete
        interp = Interpretation(
            universe=1,
            elementary={("r", ()): True},
            general={
                "S": GeneralDef((), Atom(elem_letter("s1"))),
                "P": GeneralDef((), ChoOr((Atom(elem_letter("w1")), Atom(elem_letter("w2"))))),
                "Q": GeneralDef((), Atom(elem_letter("q1"))),
            },
        )
        f = parse("S \\/ ~P#q \\/ (P#q /\\ (!A x. Q(x)) /\\ (r \\/ ~r))")
        run = run_of(("B", "2.1"), ("T", "3.1.1"))
        assert is_unilegal(f, interp, run)
        # decomposition oracle: disjunct 3 carries the win because the
        # matched hybrid subplays even out and r \/ ~r is a tautology
        assert winner(f, interp, run) == "T"

    def test_worked_run_with_full_payload_plays(self):
        """The five-move worked run, instantiated with concrete subgame
        moves, is won by the machine under every atom table: the matched
        hybrid subplays even out, so the evaluation matches the
        disjunct-by-disjunct decomposition by hand."""
        import itertools

        f = parse("S \\/ ~P#q \\/ (P#q /\\ (!A x. Q(x)) /\\ (r \\/ ~r))")
        # payloads: a = cap choice in S, b = cup choice in P, d = cap choice
        run = run_of(
            ("B", "1.1"),       # bot a   in S (positive cap: bot chooses)
            ("B", "2.1.1"),     # bot b   in the negative hybrid copy
            ("B", "3.1.2.1"),   # bot d   in the positive hybrid copy
            ("T", "2.2.1"),     # top d   copied into the negative copy
            ("T", "3.1.1.1"),   # top b   copied into the positive copy
        )
        p_def = parse("(p1 !\\/ p2) /\\ (p3 !/\\ p4)")
        s_def = parse("s1 !/\\ s2")
        for s1, p1, p3, r in itertools.product((False, True), repeat=4):
            interp = Interpretation(
                universe=1,
                elementary={
                    ("s1", ()): s1,
                    ("p1", ()): p1,
                    ("p3", ()): p3,
                    ("r", ()): r,
                },
                general={
                    "S": GeneralDef((), s_def),
                    "P": GeneralDef((), p_def),
                    "Q": GeneralDef((), parse("q1")),
                },
            )
            assert is_unilegal(f, interp, run)
            assert is_manageable(f, run)
            # hand decomposition: both hybrid subplays come to p1 /\ p3
            sub_p = p1 and p3
            expected = s1 or (not sub_p) or (sub_p and True and (r or not r))
            assert expected is True
            assert winner(f, interp, run) == "T"


class TestResidual:
    def test_choice_moves_rewrite(self):
        interp = Interpretation(universe=2)
        f = parse("(e1 !/\\ e2) \\/ (e3 !\\/ e4)")
        rs = residual(f, interp, run_of(("B", "1.2"), ("T", "2.1")))
        assert rs == ResidualState(parse("e2 \\/ e3"))

    def test_atom_moves_accumulate(self):
        interp = Interpretation(
            universe=1,
            general={"P": GeneralDef((), ChoOr((Atom(elem_letter("w1")), Atom(elem_letter("w2")))))},
        )
        f = parse("P -> P")
        rs = residual(f, interp, run_of(("B", "1.1"), ("T", "2.1")))
        assert rs.formula == f
        assert rs.stored_dict() == {
            (1,): run_of(("B", "1")),
            (2,): run_of(("T", "1")),
        }

    def test_empty_run_identity(self):
        interp = Interpretation(universe=1)
        f = parse("e1 !/\\ e2")
        assert residual(f, interp, ()) == ResidualState(f)

    def test_rejects_illegal(self):
        interp = Interpretation(universe=1)
        with pytest.raises(ValueError):
            residual(parse("e1"), interp, run_of(("T", "1")))

    def test_checks_the_moves_stored_under_a_blind_quantifier(self):
        interp = Interpretation(
            universe=2,
            general={"P": GeneralDef(("x",), parse("l1(x) !\\/ l2(x)"))},
        )
        f = parse("A x. P(x)")
        rs = residual(f, interp, run_of(("T", "2")))
        assert rs == ResidualState(f, (((), run_of(("T", "2"))),))
        for bad in (run_of(("B", "2")), run_of(("T", "3")), run_of(("T", "1"), ("T", "2"))):
            assert not is_unilegal(f, interp, bad)
            with pytest.raises(ValueError):
                residual(f, interp, bad)


# ---------------------------------------------------------------------------
# Randomized lemma suites (depth <= 3, universe <= 2, runs <= 4)
# ---------------------------------------------------------------------------

N_CASES = 220


def _sample(rng, **kw):
    return random_game_formula(rng, depth=kw.pop("depth", 3), universe=2, **kw)


class TestPrefixationDecomposition:
    """Residual of a disjunction is the disjunction of the residuals of the
    projections."""

    def test_suite(self):
        rng = random.Random(71)
        done = 0
        while done < N_CASES:
            a, interp = _sample(rng, depth=2)
            b, _ = _sample(rng, depth=2)
            f = ChoOr  # placeholder to keep names obvious below
            from cl4kit.syntax import ParOr

            disj = ParOr((a, b))
            run = random_legal_run(rng, disj, interp, 4)
            rs = residual(disj, interp, run)
            for i, part in enumerate((a, b), start=1):
                sub = residual(part, interp, project(run, (i,), "raw"))
                assert rs.formula.parts[i - 1] == sub.formula
                stored_i = {
                    addr[1:]: moves for addr, moves in rs.stored if addr[0] == i
                }
                assert stored_i == sub.stored_dict()
            done += 1


class TestQuasiatomReplacement:
    """Replacing a choice quasiatom by what the run made of it, then
    deleting that quasiatom's moves, leaves the residual unchanged."""

    def test_suite(self):
        rng = random.Random(72)
        done = 0
        while done < N_CASES:
            f, interp = _sample(rng)
            run = random_legal_run(rng, f, interp, 4)
            rs = residual(f, interp, run)
            if rs.stored:  # restrict to choice-only runs: the replacement
                continue  # formula then captures the whole subplay
            touched = False
            for occ in surface_occurrences(f):
                qa = occ.quasiatom
                if not isinstance(qa, (ChoAnd, ChoOr)):
                    continue
                sub_signed = project(run, occ.address, "signed", of=f)
                if not sub_signed:
                    continue
                touched = True
                g_after = residual(qa, interp, sub_signed).formula
                h = replace_at(f, occ.address, g_after)
                rest = project(run, occ.address, "delete")
                assert residual(h, interp, rest).formula == rs.formula
            if touched:
                done += 1


class TestFinalizationDecomposition:
    """Winner of a parallel node is the classical combination of the
    children's winners on the projections; negation flips."""

    def test_disjunction_and_negation(self):
        from cl4kit.syntax import Neg, ParOr

        rng = random.Random(73)
        done = 0
        while done < N_CASES:
            a, interp = _sample(rng, depth=2)
            b, _ = _sample(rng, depth=2)
            disj = ParOr((a, b))
            run = random_legal_run(rng, disj, interp, 4)
            w = winner(disj, interp, run)
            wa = winner(a, interp, project(run, (1,), "raw"))
            wb = winner(b, interp, project(run, (2,), "raw"))
            assert (w == "T") == ((wa == "T") or (wb == "T"))
            neg_run = negate_run(run)
            wn = winner(Neg(disj), interp, neg_run)
            assert (wn == "T") == (w != "T")
            done += 1

    def test_unresolved_choice_values(self):
        rng = random.Random(74)
        done = 0
        while done < N_CASES:
            f, interp = _sample(rng, depth=2)
            cap = ChoAnd((f, f))
            cup = ChoOr((f, f))
            assert winner(cap, interp, ()) == "T"
            assert winner(cup, interp, ()) == "B"
            done += 1


class TestWinnerThroughResidual:
    """Playing g1 then g2 equals playing g2 over the residual of g1 (with
    the stored quasiatom moves replayed as a prefix); every cut point of
    every sampled run is exercised."""

    def test_suite(self):
        rng = random.Random(75)
        done = 0
        while done < N_CASES:
            f, interp = _sample(rng)
            run = random_legal_run(rng, f, interp, 4)
            if len(run) < 2:
                continue
            lhs = winner(f, interp, run)
            for cut in range(1, len(run)):
                g1, g2 = run[:cut], run[cut:]
                rs = residual(f, interp, g1)
                replay = tuple(
                    LabMove(m.player, addr_str(addr) + m.move)
                    for addr, moves in rs.stored
                    for m in moves
                )
                rhs = winner(rs.formula, interp, replay + g2)
                assert lhs == rhs, pretty(f)
            done += 1


class TestChoiceStepLemmas:
    """Resolving an eligible connective or quantifier quasiatom by the
    machine preserves manageability and matches the residual."""

    def test_connective_case(self):
        rng = random.Random(76)
        done = 0
        while done < N_CASES:
            f, interp = _sample(rng, with_hybrids=True)
            if not is_unilegal(f, interp, ()):
                continue
            from cl4kit.syntax import is_reasonable

            if not is_reasonable(f):
                continue
            omega = _manageable_run(rng, f, interp, 2)
            targets = [
                occ
                for occ in surface_occurrences(f)
                if isinstance(occ.quasiatom, (ChoAnd, ChoOr))
                and choice_mover(occ.quasiatom, occ.polarity) == TOP_PLAYER
            ]
            if not targets:
                continue
            occ = rng.choice(targets)
            i = rng.randint(1, len(occ.quasiatom.parts))
            h = replace_at(f, occ.address, occ.quasiatom.parts[i - 1])
            move = LabMove(TOP_PLAYER, f"{addr_str(occ.address)}{i}")
            assert is_unilegal(f, interp, omega + (move,))
            assert is_manageable(h, omega)
            left = residual(f, interp, omega + (move,))
            right = residual(h, interp, omega)
            assert left == right
            done += 1

    def test_quantifier_case(self):
        rng = random.Random(77)
        done = 0
        while done < N_CASES:
            f, interp = _sample(rng, with_hybrids=True)
            from cl4kit.syntax import ChoAll, ChoEx, is_reasonable

            if not is_reasonable(f):
                continue
            omega = _manageable_run(rng, f, interp, 2)
            targets = [
                occ
                for occ in surface_occurrences(f)
                if isinstance(occ.quasiatom, (ChoAll, ChoEx))
                and choice_mover(occ.quasiatom, occ.polarity) == TOP_PLAYER
            ]
            if not targets:
                continue
            occ = rng.choice(targets)
            c = rng.randrange(interp.universe)
            from cl4kit.syntax import substitute

            qa = occ.quasiatom
            h = replace_at(f, occ.address, substitute(qa.body, qa.var, Const(c)))
            move = LabMove(TOP_PLAYER, f"{addr_str(occ.address)}{c}")
            assert is_unilegal(f, interp, omega + (move,))
            assert is_manageable(h, omega)
            assert residual(f, interp, omega + (move,)) == residual(h, interp, omega)
            done += 1


class TestCopycatBurst:
    """Hybridizing a matched pair of general-atom occurrences and evening
    out their subplays yields a manageable unilegal position."""

    def test_suite(self):
        rng = random.Random(78)
        done = 0
        while done < N_CASES:
            f, interp = _sample(rng, with_hybrids=True)
            from cl4kit.syntax import is_reasonable

            if not is_reasonable(f):
                continue
            omega = _manageable_run(rng, f, interp, 3)
            generals = [
                occ
                for occ in surface_occurrences(f)
                if isinstance(occ.quasiatom, Atom)
                and occ.quasiatom.letter.kind == "general"
            ]
            pos = [o for o in generals if o.polarity > 0]
            neg = [o for o in generals if o.polarity < 0]
            pair = next(
                (
                    (p, n)
                    for p in pos
                    for n in neg
                    if p.quasiatom == n.quasiatom
                ),
                None,
            )
            if pair is None:
                continue
            p_occ, n_occ = pair
            letter = p_occ.quasiatom.letter
            hyb = hybrid_letter(letter.name, "hz", letter.arity)
            h = replace_at(f, p_occ.address, Atom(hyb, p_occ.quasiatom.args))
            h = replace_at(h, n_occ.address, Atom(hyb, n_occ.quasiatom.args))
            from cl4kit.syntax import is_reasonable as reasonable

            if not reasonable(h):
                continue
            pi, nu = p_occ.address, n_occ.address
            pi_payloads = [m.move for m in project(omega, pi, "raw")]
            nu_payloads = [m.move for m in project(omega, nu, "raw")]
            burst = tuple(
                LabMove(TOP_PLAYER, f"{addr_str(pi)}{b}") for b in nu_payloads
            ) + tuple(LabMove(TOP_PLAYER, f"{addr_str(nu)}{b}") for b in pi_payloads)
            phi = omega + burst
            assert is_unilegal(h, interp, phi), pretty(h)
            assert is_manageable(h, phi)
            done += 1


class TestEnvironmentMoveCases:
    """A legal environment move on a manageable position lands in one of
    the four shapes, each preserving the invariants."""

    def test_suite(self):
        rng = random.Random(79)
        done = 0
        while done < N_CASES:
            f, interp = _sample(rng, with_hybrids=True)
            from cl4kit.syntax import ChoAll, ChoEx, is_reasonable, substitute

            if not is_reasonable(f):
                continue
            omega = _manageable_run(rng, f, interp, 2)
            options = legal_moves(f, interp, omega, BOT_PLAYER)
            if not options:
                continue
            alpha = rng.choice(options)
            move = LabMove(BOT_PLAYER, alpha)
            assert is_unilegal(f, interp, omega + (move,))
            occ, payload = parse_move(f, alpha)
            qa = occ.quasiatom
            if isinstance(qa, Atom) and qa.letter.kind == "general":
                assert is_manageable(f, omega + (move,))
            elif isinstance(qa, Atom) and qa.letter.kind == "hybrid":
                pairs = hybrid_pairs(f)
                p_occ, n_occ = next(
                    (p, n) for p, n in pairs if p.quasiatom.letter == qa.letter
                )
                sigma = n_occ.address if occ.address == p_occ.address else p_occ.address
                reply = LabMove(TOP_PLAYER, f"{addr_str(sigma)}{payload}")
                extended = omega + (move, reply)
                assert is_unilegal(f, interp, extended)
                assert is_manageable(f, extended)
            elif isinstance(qa, (ChoAnd, ChoOr)):
                i = int(payload)
                h = replace_at(f, occ.address, qa.parts[i - 1])
                assert is_manageable(h, omega)
                assert residual(f, interp, omega + (move,)) == residual(h, interp, omega)
            else:
                c = int(payload)
                h = replace_at(f, occ.address, substitute(qa.body, qa.var, Const(c)))
                assert is_manageable(h, omega)
                assert residual(f, interp, omega + (move,)) == residual(h, interp, omega)
            done += 1


class TestStaticGames:
    """Delaying the winner's moves never turns a won run into a lost one."""

    def test_brute_force_over_sampled_games(self):
        rng = random.Random(80)
        games = 0
        while games < 10:
            f, interp = _sample(rng, depth=2)
            try:
                runs = all_legal_runs(f, interp, 4, cap=4000)
            except AssertionError:
                continue
            games += 1
            for g in runs:
                w = winner(f, interp, g)
                for d in rearrangements(g):
                    if d == g or not is_unilegal(f, interp, d):
                        continue
                    if w == "T" and is_top_delay(d, g):
                        assert winner(f, interp, d) == "T", (pretty(f), g, d)
                    if w == "B" and is_top_delay(negate_run(d), negate_run(g)):
                        assert winner(f, interp, d) == "B", (pretty(f), g, d)


class TestEquistructuralHybrids:
    """The two atoms of a hybrid letter in a closed reasonable hyperformula
    expand to games with identical legal-run sets."""

    def test_suite(self):
        rng = random.Random(81)
        done = 0
        while done < 50:
            f, interp = _sample(rng, with_hybrids=True)
            from cl4kit.syntax import is_reasonable

            if not is_reasonable(f):
                continue
            pairs = hybrid_pairs(f)
            if not pairs:
                continue
            pos, neg = pairs[0]
            a1, a2 = pos.quasiatom, neg.quasiatom
            g1 = interp.expand_general(a1.letter.general, tuple(t.value for t in a1.args))
            g2 = interp.expand_general(a2.letter.general, tuple(t.value for t in a2.args))
            runs1 = set(all_legal_runs(g1, interp, 3, cap=3000))
            runs2 = set(all_legal_runs(g2, interp, 3, cap=3000))
            assert runs1 == runs2
            done += 1


def _blind_general(rng):
    """An `A x. P(x)`-style part: a general atom under a blind quantifier,
    which random_game_formula never draws."""
    x = rng.choice(["x", "y"])
    atom = Atom(gen_letter("P", 1), (Var(x),))
    body = rng.choice([atom, Neg(atom), ParOr((atom, Atom(gen_letter("Q"))))])
    return rng.choice([BlindAll, BlindEx])(x, body)


def _draw(rng, depth=3):
    f, interp = random_game_formula(
        rng, depth, 2, with_hybrids=rng.random() < 0.5, with_blind=rng.random() < 0.5
    )
    if rng.random() < 0.4:
        part = _blind_general(rng)
        f = rng.choice([ParOr((f, part)), ParAnd((part, f)), Implies(part, f)])
    return f, interp


def _garble(rng, run):
    """Insert, drop, re-sign or extend moves: mostly illegal runs, a few
    legal ones."""
    run = list(run)
    for _ in range(rng.randint(1, 2)):
        op = rng.choice(["insert", "drop", "re-sign", "extend"])
        if op in ("insert", "extend") or not run:
            move = "".join(f"{rng.randint(0, 3)}." for _ in range(rng.randint(0, 3)))
            move = rng.choice(run).move if run and rng.random() < 0.5 else move + rng.choice("0123x")
            where = len(run) if op == "extend" else rng.randint(0, len(run))
            run.insert(where, LabMove(rng.choice("TB"), move))
        elif op == "drop":
            del run[rng.randrange(len(run))]
        else:
            j = rng.randrange(len(run))
            run[j] = LabMove(flip(run[j].player), run[j].move)
    return tuple(run)


def _garbled(rng):
    """A game and a run drawn for it, garbled seven times in ten."""
    f, interp = _draw(rng)
    run = random_legal_run(rng, f, interp, 5)
    return f, interp, _garble(rng, run) if rng.random() < 0.7 else run


class TestGarbledRuns:
    """Legal runs garbled into mostly illegal ones, over games that include
    general atoms under blind quantifiers: every evaluator agrees with the
    routing reference evaluator on which runs are legal and who wins them,
    and legal_moves lists exactly the legal extensions."""

    def test_evaluators_agree_on_legality(self):
        rng = random.Random(82)
        illegal = 0
        for _ in range(N_CASES * 3):
            f, interp, run = _garbled(rng)
            legal = is_unilegal(f, interp, run)
            expected = reference_play(apply_valuation(f, {}), run, interp)
            assert legal == (expected is not None), (pretty(f), run)
            if legal:
                assert winner(f, interp, run) == ("T" if expected else "B"), (pretty(f), run)
            illegal += not legal
            for evaluate in (
                lambda: winner(f, interp, run),
                lambda: residual(f, interp, run),
                lambda: legal_moves(f, interp, run, TOP_PLAYER),
                lambda: legal_moves(f, interp, run, BOT_PLAYER),
            ):
                if legal:
                    evaluate()
                else:
                    with pytest.raises(ValueError):
                        evaluate()
            if legal:
                for player in (TOP_PLAYER, BOT_PLAYER):
                    for move in legal_moves(f, interp, run, player):
                        assert is_unilegal(f, interp, run + (LabMove(player, move),))
        assert N_CASES < illegal < N_CASES * 2

    def test_advance_folds_to_residual(self):
        # advancing move by move reaches residual's position at every legal
        # prefix, and gives None exactly from the first illegal move onward
        rng = random.Random(84)
        for _ in range(N_CASES * 3):
            f, interp, run = _garbled(rng)
            state = ResidualState(apply_valuation(f, {}))
            for i, m in enumerate(run, start=1):
                state = state and advance(state, interp, m)
                legal = reference_play(apply_valuation(f, {}), run[:i], interp) is not None
                assert (state is not None) == legal, (pretty(f), run[:i])
                if legal:
                    assert state == residual(f, interp, run[:i])

    def test_legal_moves_lists_every_legal_extension(self):
        rng = random.Random(83)
        games = 0
        while games < 12:
            f, interp = _draw(rng, depth=2)
            try:
                runs = all_legal_runs(f, interp, 3, cap=3000)
            except AssertionError:
                continue
            games += 1
            found = set(runs)
            pool = {m.move for r in runs for m in r} | {"0", "1.1", "2.x", "3.1"}
            for r in runs:
                if len(r) == 3:
                    continue
                for player in (TOP_PLAYER, BOT_PLAYER):
                    listed = legal_moves(f, interp, r, player)
                    for move in pool:
                        extended = r + (LabMove(player, move),)
                        assert (move in listed) == is_unilegal(f, interp, extended)
                        assert (move in listed) == (extended in found)


class TestOverlongNumbers:
    """A move index or payload with more digits than int() reads makes the
    run illegal; no evaluator raises int()'s own ValueError."""

    HUGE = "1" + "0" * 5000

    @pytest.mark.parametrize(
        "text, move",
        [
            ("(e1 !\\/ e2) /\\ (e3 !/\\ e4)", HUGE + ".1"),
            ("(e1 !\\/ e2) /\\ (e3 !/\\ e4)", "1." + HUGE),
            ("!E x. l1(x)", HUGE),
        ],
        ids=["index", "payload", "constant"],
    )
    def test_run_is_illegal(self, text, move):
        f, interp = parse(text), Interpretation(universe=2)
        run = run_of((TOP_PLAYER, move))
        assert is_unilegal(f, interp, run) is False
        for evaluate in (
            lambda: winner(f, interp, run),
            lambda: residual(f, interp, run),
            lambda: legal_moves(f, interp, run, TOP_PLAYER),
        ):
            with pytest.raises(ValueError) as ex:
                evaluate()
            assert "digits" not in str(ex.value)

    def test_parse_move(self):
        f = parse("(e1 !\\/ e2) /\\ (e3 !/\\ e4)")
        assert parse_move(f, self.HUGE + ".1") is None
        occ, payload = parse_move(f, "1." + self.HUGE)
        assert occ.address == (1,) and payload == self.HUGE


def _manageable_run(rng, f, interp, rounds):
    """Environment moves confined to general/hybrid quasiatoms with
    immediate copy-cat replies in hybrids."""
    run = ()
    for _ in range(rounds):
        candidates = []
        for m in legal_moves(f, interp, run, BOT_PLAYER):
            parsed = parse_move(f, m)
            if parsed is None:
                continue
            qa = parsed[0].quasiatom
            if isinstance(qa, Atom) and qa.letter.kind in ("general", "hybrid"):
                candidates.append((m, parsed))
        if not candidates or rng.random() < 0.3:
            break
        m, (occ, payload) = rng.choice(candidates)
        run = run + (LabMove(BOT_PLAYER, m),)
        if occ.quasiatom.letter.kind == "hybrid":
            pairs = hybrid_pairs(f)
            p_occ, n_occ = next(
                (p, n) for p, n in pairs if p.quasiatom.letter == occ.quasiatom.letter
            )
            sigma = n_occ.address if occ.address == p_occ.address else p_occ.address
            run = run + (LabMove(TOP_PLAYER, f"{addr_str(sigma)}{payload}"),)
    assert is_manageable(f, run)
    assert is_unilegal(f, interp, run)
    return run
