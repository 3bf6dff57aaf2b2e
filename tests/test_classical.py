import random

import pytest

import cl4kit.classical as classical
from cl4kit.classical import (
    elementarize,
    fo_validity,
    is_stable,
    tautology_qf,
)
from cl4kit.syntax import (
    Atom,
    Const,
    Implies,
    Neg,
    ParAnd,
    ParOr,
    elem_letter,
    general_dehybridization,
    hybrid_letter,
    is_reasonable,
    parse,
    pretty,
)

from helpers import random_qf_elementary


class TestElementarize:
    def test_general_atoms_by_polarity(self):
        assert elementarize(parse("P \\/ ~P")) == parse("F \\/ ~T")

    def test_worked_formula(self):
        f = parse("S \\/ ~P#q \\/ (P#q /\\ (!A x. Q(x)) /\\ (r \\/ ~r))")
        assert elementarize(f) == parse("F \\/ ~q \\/ (q /\\ T /\\ (r \\/ ~r))")

    def test_all_surface_cups_to_false(self):
        f = parse("(P !\\/ Q) /\\ (P !\\/ R) -> P !\\/ (Q /\\ R)")
        assert elementarize(f) == parse("F /\\ F -> F")

    def test_hybrid_terms_preserved(self):
        f = parse("P#q(0, z) \\/ ~P#q(0, z)")
        assert elementarize(f) == parse("q(0, z) \\/ ~q(0, z)")


class TestTautologyQF:
    def test_stable_elementarization(self):
        assert tautology_qf(parse("F \\/ ~q \\/ (q /\\ T /\\ (r \\/ ~r))")) is True

    def test_false_constant(self):
        assert tautology_qf(parse("F \\/ ~T")) is False

    def test_distinct_term_tuples(self):
        assert tautology_qf(parse("p(y) -> p(z)")) is False

    def test_rejects_quantifiers(self):
        with pytest.raises(ValueError):
            tautology_qf(parse("A x. p(x)"))


class TestFoValidity:
    def test_drinker_style_valid(self):
        assert fo_validity(parse("E y. A x. (p(x) -> p(y))")).is_valid

    def test_instantiation_valid(self):
        assert fo_validity(parse("(A x. p(x)) -> p(0)")).is_valid

    def test_invalid_with_countermodel(self):
        f = parse("q(y) -> A x. q(x)")
        v = fo_validity(f)
        assert v.is_invalid
        assert v.countermodel.size == 2
        assert v.countermodel.evaluate(f) is False

    def test_qf_never_unknown(self):
        rng = random.Random(2)
        for _ in range(100):
            f = random_qf_elementary(rng, max_atoms=5, depth=3)
            v = fo_validity(f)
            assert not v.is_unknown
            assert v.is_valid == tautology_qf(f)

    def test_countermodel_replay(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(150):
            f = random_qf_elementary(rng, max_atoms=5, depth=3)
            v = fo_validity(f)
            if v.is_invalid:
                assert v.countermodel.evaluate(f) is False
                checked += 1
        assert checked > 20


class TestStability:
    def test_elementary_identity(self):
        assert is_stable(parse("p(z) -> p(z)")).is_valid

    def test_instable_choice_formula(self):
        assert is_stable(parse("!E y. !A x. (P(x) -> P(y))")).is_invalid

    def test_excluded_middle_general_form(self):
        assert is_stable(parse("P \\/ ~P")).is_invalid

    def test_elementarization_is_not_checked_again(self, monkeypatch):
        """An elementarization is elementary by construction: is_stable
        does not walk it to check, and fo_validity still checks its input."""

        def walked(f):
            raise AssertionError("is_elementary was called")

        monkeypatch.setattr(classical, "is_elementary", walked)
        assert is_stable(parse("A x. (p(x) -> p(x))")).is_valid
        assert is_stable(parse("!E y. !A x. (P(x) -> P(y))")).is_invalid
        with pytest.raises(AssertionError, match="is_elementary"):
            fo_validity(parse("p -> p"))


class TestUnreasonableStabilityTransfer:
    """Replacing an unreasonable hybrid pair by its general component
    preserves stability (checked on quantifier-free elementarizations)."""

    def test_generated_instances(self):
        rng = random.Random(41)
        hits = 0
        for _ in range(300):
            base = random_qf_elementary(rng, max_atoms=3, depth=2)
            c1, c2 = rng.sample(range(4), 2)
            hyb = hybrid_letter("P", "h", 1)
            pos = Atom(hyb, (Const(c1),))
            neg = Neg(Atom(hyb, (Const(c2),)))
            shape = rng.randrange(3)
            if shape == 0:
                e = ParOr((pos, neg, base))
            elif shape == 1:
                e = ParAnd((ParOr((pos, base)), neg))
            else:
                e = Implies(Atom(hyb, (Const(c2),)), ParOr((pos, base)))
            r = is_reasonable(e)
            if r.status != "unreasonable":
                continue
            if not is_stable(e).is_valid:
                continue
            hits += 1
            dehybridized = general_dehybridization(e)
            assert is_stable(dehybridized).is_valid, pretty(e)
        assert hits > 5


class TestTruthOrderMonotonicity:
    """Replacing one positive occurrence of a letter by a pointwise-smaller
    one makes the formula pointwise smaller (truth-table enumeration)."""

    @staticmethod
    def _replace_first_positive(f, old_name, new_name):
        done = [False]

        def walk(node, pol):
            from cl4kit.syntax import BlindAll, BlindEx

            if isinstance(node, Atom):
                if (
                    not done[0]
                    and pol > 0
                    and node.letter.name == old_name
                ):
                    done[0] = True
                    return Atom(elem_letter(new_name, node.letter.arity), node.args)
                return node
            if isinstance(node, Neg):
                return Neg(walk(node.body, -pol))
            if isinstance(node, (ParAnd, ParOr)):
                return type(node)(tuple(walk(p, pol) for p in node.parts))
            if isinstance(node, Implies):
                return Implies(walk(node.lhs, -pol), walk(node.rhs, pol))
            return type(node)(node.var, walk(node.body, pol))

        return walk(f, 1), done[0]

    def test_pointwise_order_transfers(self):
        rng = random.Random(59)
        tested = 0
        for _ in range(250):
            f1 = random_qf_elementary(rng, max_atoms=4, depth=3)
            f2, replaced = self._replace_first_positive(f1, "p0", "p9")
            if not replaced:
                continue
            tested += 1
            letters = sorted(
                {a.letter.name for g in (f1, f2) for a in _atoms(g)}
            )
            for bits in range(1 << len(letters)):
                table = {
                    name: bool((bits >> i) & 1) for i, name in enumerate(letters)
                }
                if table.get("p9", False) and not table.get("p0", False):
                    continue  # require p9 <= p0 pointwise
                v1 = _eval(f1, table)
                v2 = _eval(f2, table)
                assert (not v2) or v1, pretty(f1)
        assert tested > 30


def _atoms(f):
    from cl4kit.syntax import atoms

    return atoms(f)


def _eval(f, table):
    if isinstance(f, Atom):
        if f.letter.logical:
            return f.letter.name == "T"
        return table.get(f.letter.name, False)
    if isinstance(f, Neg):
        return not _eval(f.body, table)
    if isinstance(f, ParAnd):
        return all(_eval(p, table) for p in f.parts)
    if isinstance(f, ParOr):
        return any(_eval(p, table) for p in f.parts)
    return (not _eval(f.lhs, table)) or _eval(f.rhs, table)


class TestBudgetExhaustion:
    def test_unknown_is_the_overflow_signal(self):
        from cl4kit.classical import Budget

        v = fo_validity(
            parse("A x. E y. (p(x) -> q(y))"), Budget(depth=0, models=0, max_expansions=1)
        )
        assert v.is_unknown and v.reason
