import json
import random

import pytest

import cl4kit.translate as translate
from cl4kit.decide import decide_blindfree
from cl4kit.syntax import (
    Atom,
    ChoAnd,
    ChoOr,
    Const,
    Implies,
    Neg,
    ParAnd,
    ParOr,
    elem_letter,
    parse,
    pretty,
    rewrite,
    subformulas,
)
from cl4kit.translate import (
    MoleculeSignature,
    floorify,
    independent_occurrences,
    is_good,
    lift,
    signature_for,
)

from helpers import (
    random_blindfree,
    random_game_formula,
    reference_floorify,
    reference_independent_occurrences,
)
from test_acceptance import EXERCISE_BLINDFREE, EXERCISE_EXTENDED


class TestSignature:
    def test_m_floor_is_two(self):
        assert signature_for(parse("P")).m == 2

    def test_m_counts_occurrences(self):
        assert signature_for(parse("P -> P /\\ P")).m == 3
        assert signature_for(parse("P /\\ Q -> Q \\/ P")).m == 4

    def test_names_fresh_and_distinct(self):
        f = parse("P /\\ Q")
        sig = signature_for(f)
        names = list(sig.names.values())
        assert len(names) == len(set(names))
        from cl4kit.syntax import letter_names

        assert not (set(names) & letter_names(f))

    def test_collision_bumps_deterministically(self):
        f = parse("P \\/ p_1_1")
        sig = signature_for(f)
        assert "p_1_1" not in sig.names.values()
        assert sig == signature_for(parse("P \\/ p_1_1"))

    def test_json_round_trip(self):
        sig = signature_for(parse("P(0) -> P(1)"))
        again = MoleculeSignature.from_json(json.loads(json.dumps(sig.to_json())))
        assert again == sig

    @pytest.mark.parametrize("m", [-1, 0, 1])
    def test_fewer_than_two_rows_is_malformed(self, m):
        # a molecule is a cap of cups: it needs two rows and two columns
        doc = dict(signature_for(parse("P(0) -> P(1)")).to_json(), m=m)
        with pytest.raises(ValueError, match="m must be at least 2"):
            MoleculeSignature.from_json(doc)


class TestLift:
    def test_single_occurrence(self):
        sig = signature_for(parse("P"))
        assert lift(parse("P"), sig) == parse(
            "(p_1_1 !\\/ p_1_2) !/\\ (p_2_1 !\\/ p_2_2)"
        )

    def test_three_occurrences_make_three_by_three_grids(self):
        f = parse("P -> P /\\ P")
        sig = signature_for(f)
        lifted = lift(f, sig)
        occs = independent_occurrences(lifted, sig)
        assert len(occs) == 3
        assert all(o.kind == "large" for o in occs)
        assert all(len(o.args) == 0 for o in occs)

    def test_no_general_atoms_is_identity(self):
        f = parse("p \\/ ~p")
        assert lift(f, signature_for(f)) == f

    def test_terms_preserved(self):
        f = parse("P(0) -> P(z)")
        sig = signature_for(f)
        lifted = lift(f, sig)
        occs = independent_occurrences(lifted, sig)
        assert {o.args for o in occs} == {(Const(0),), (parse("P(z)").args[0],)}

    def test_rejects_hybrids(self):
        with pytest.raises(ValueError):
            lift(parse("P#q \\/ ~P#q"))


class TestFloorify:
    def test_round_trip_on_fixtures(self):
        for text in (
            "P",
            "P \\/ ~P",
            "P !\\/ ~P",
            "P -> P /\\ P",
            "(P !\\/ Q) /\\ (P !\\/ R) -> P !\\/ (Q /\\ R)",
            "P(0) -> !E x. P(x)",
        ):
            f = parse(text)
            sig = signature_for(f)
            assert floorify(lift(f, sig), sig) == f, text

    def test_round_trip_on_generated(self):
        rng = random.Random(404)
        for _ in range(100):
            f = random_blindfree(rng, depth=3)
            sig = signature_for(f)
            assert floorify(lift(f, sig), sig) == f, pretty(f)

    def test_isolated_small_collapses(self):
        sig = signature_for(parse("P(0)"))
        alone = sig.small("P", 1, 1, (Const(0),))
        assert floorify(alone, sig) == parse("P(0)")

    def test_non_isolated_smalls_stay(self):
        sig = signature_for(parse("P(0)"))
        two = Implies(sig.small("P", 1, 1, (Const(0),)), sig.small("P", 1, 1, (Const(1),)))
        assert floorify(two, sig) == two

    def test_medium_collapses(self):
        sig = signature_for(parse("P(0)"))
        med = sig.medium("P", 2, (Const(1),))
        assert floorify(med, sig) == parse("P(1)")


class TestGoodness:
    def test_lifted_formulas_are_good(self):
        for text in ("P", "P -> P /\\ P", "(P !\\/ Q) /\\ (P !\\/ R) -> P !\\/ (Q /\\ R)"):
            f = parse(text)
            sig = signature_for(f)
            assert is_good(lift(f, sig), sig)

    def test_two_positive_smalls_violate_cond3(self):
        sig = signature_for(parse("P(0)"))
        bad = ParOr((sig.small("P", 1, 1, (Const(0),)), sig.small("P", 1, 1, (Const(1),))))
        r = is_good(bad, sig)
        assert not r.ok and r.cond == 3

    def test_too_many_occurrences_violate_cond1(self):
        sig = signature_for(parse("P(0)"))  # m == 2
        parts = (
            sig.small("P", 1, 1, (Const(0),)),
            Neg(sig.small("P", 1, 2, (Const(0),))),
            sig.small("P", 2, 1, (Const(0),)),
        )
        r = is_good(ParAnd(parts), sig)
        assert not r.ok and r.cond == 1

    def test_non_surface_medium_violates_cond2(self):
        from cl4kit.syntax import ChoAnd

        sig = signature_for(parse("P(0)"))
        buried = ChoAnd((sig.medium("P", 1, (Const(0),)), parse("e1")))
        r = is_good(buried, sig)
        assert not r.ok and r.cond == 2

    def test_positive_medium_with_positive_small_violates_cond4(self):
        sig = signature_for(parse("P(0)"))
        bad = ParOr((sig.medium("P", 1, (Const(0),)), sig.small("P", 1, 2, (Const(1),))))
        r = is_good(bad, sig)
        assert not r.ok and r.cond == 4


class TestWrongArity:
    """An elementary atom named like a small molecule but of another arity
    is no molecule."""

    SIG = signature_for(parse("P"))

    @pytest.mark.parametrize("text", ["p_1_1(0) \\/ q", "(p_1_1(0) !\\/ p_1_2(0)) -> q"])
    def test_is_kept(self, text):
        e = parse(text)
        assert independent_occurrences(e, self.SIG) == []
        assert floorify(e, self.SIG) == e
        assert is_good(e, self.SIG)


def _edits(node):
    """Near misses of a molecule: one part dropped, the parts reversed, the
    first part's atoms re-argued, one column swapped between two rows."""
    parts = list(node.parts)
    yield type(node)(tuple(parts[1:])) if len(parts) > 2 else parts[1]
    yield type(node)(tuple(reversed(parts)))

    def reargue(n):
        if isinstance(n, Atom) and n.args:
            return Atom(n.letter, (Const(7),) * len(n.args))
        return None

    yield type(node)((rewrite(parts[0], reargue), *parts[1:]))
    if all(isinstance(part, ChoOr) for part in parts):
        (x, *xs), (y, *ys) = parts[0].parts, parts[1].parts
        yield ChoAnd((ChoOr((y, *xs)), ChoOr((x, *ys)), *parts[2:]))


def _near_misses(rng, lifted):
    """lifted with one edit at one of up to three of its choice chains."""
    chains = [g for g in subformulas(lifted) if isinstance(g, (ChoAnd, ChoOr))]
    for target in rng.sample(chains, min(3, len(chains))):
        for edit in _edits(target):
            yield rewrite(lifted, lambda n: edit if n is target else None)


class TestRecognizer:
    """The one recognizer against the reference matchers, which build each
    molecule they look for and compare it with the node."""

    def inputs(self):
        rng = random.Random(606)
        texts = [text for text, _ in (*EXERCISE_BLINDFREE.values(), *EXERCISE_EXTENDED.values())]
        formulas = [parse(text) for text in texts]
        formulas += [random_blindfree(rng, depth=3) for _ in range(60)]
        formulas += [random_game_formula(rng, depth=3)[0] for _ in range(30)]
        for f in formulas:
            sig = signature_for(f)
            lifted = lift(f, sig)
            yield f, sig
            yield lifted, sig
            for e in _near_misses(rng, lifted):
                yield e, sig
        sig = signature_for(parse("P /\\ Q"))
        for _ in range(100):
            yield _random_molecule_formula(rng, sig), sig

    def test_matches_the_reference(self, monkeypatch):
        cases = list(self.inputs())
        assert len(cases) > 1000
        goodness = []
        for e, sig in cases:
            occs = independent_occurrences(e, sig)
            assert occs == reference_independent_occurrences(e, sig), pretty(e)
            assert floorify(e, sig) == reference_floorify(e, sig), pretty(e)
            goodness.append(is_good(e, sig))
        monkeypatch.setattr(
            translate, "independent_occurrences", reference_independent_occurrences
        )
        assert [is_good(e, sig) for e, sig in cases] == goodness
        assert any(not g for g in goodness) and any(goodness)


class TestProvabilityTransfer:
    def test_unprovable_formulas_stay_unprovable_lifted(self):
        for text in ("P !\\/ ~P", "P -> P /\\ P"):
            f = parse(text)
            sig = signature_for(f)
            assert decide_blindfree(f).status == "unprovable"
            assert decide_blindfree(lift(f, sig)).status == "unprovable", text

    def test_good_provable_formulas_floor_to_provable(self):
        # desk-scale version of the translation claim: generated good
        # molecule-bearing formulas that are provable have provable
        # floorifications
        rng = random.Random(505)
        sig = signature_for(parse("P /\\ Q"))
        checked = 0
        molecule_bearing = 0
        attempts = 0
        while checked < 50 and attempts < 6000:
            attempts += 1
            e = _random_molecule_formula(rng, sig)
            if not is_good(e, sig):
                continue
            d = decide_blindfree(e)
            if not d.is_provable:
                continue
            floored = floorify(e, sig)
            assert decide_blindfree(floored).is_provable, pretty(e)
            checked += 1
            if floored != e:
                molecule_bearing += 1
        assert checked >= 50
        assert molecule_bearing >= 20


def _random_molecule_formula(rng, sig):
    """Blind-free formula whose leaves mix elementary atoms with large and
    medium molecules of the signature."""

    def leaf():
        k = rng.randrange(6)
        if k == 0:
            return sig.large("P", ())
        if k == 1:
            return sig.large("Q", ())
        if k == 2:
            return sig.medium("P", rng.randint(1, sig.m), ())
        return Atom(elem_letter(rng.choice(["e1", "e2"])))

    def build(d):
        if d == 0 or rng.random() < 0.4:
            return leaf()
        k = rng.randrange(6)
        if k == 0:
            return Neg(build(d - 1))
        if k == 1:
            return ParAnd((build(d - 1), build(d - 1)))
        if k == 2:
            return ParOr((build(d - 1), build(d - 1)))
        if k == 3:
            g = build(d - 1)
            return Implies(g, g) if rng.random() < 0.5 else Implies(build(d - 1), g)
        if k == 4:
            return ChoAnd((build(d - 1), build(d - 1)))
        return ChoOr((build(d - 1), build(d - 1)))

    return build(2)
