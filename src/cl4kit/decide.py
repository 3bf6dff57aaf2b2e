"""Provability decision procedure for blind-quantifier-free input, with a
budgeted best-effort extension to formulas containing A/E.

The search recurses on aggregate complexity.  At each formula one loop runs
over the rule applications in the fixed order A, B1, B2, C (occurrences
left to right, then components, terms or letter pairs) and stops at the
first whose premises are all provable.  Targets, premises and the stability
test come from ``cl4kit.calculus``, the same code the proof checker runs,
so positive answers come with a proof that ``check_proof`` accepts.

In certified mode (blind-free input) stability is decided exactly, so the
answer is never Unknown; the extension marks any branch whose stability
check ran out of budget, and a failed search with a marked branch reports
Unknown instead of Unprovable.

Each decision memoizes the search by formula: a formula met again gets the
derivation (or failure) found the first time.  The search's outcome on a
formula depends on the formula alone, and the budget mark only ever goes
from unset to set, so a cached failure from a marked branch is met only once
the search is marked; verdicts and proofs are exactly those of the search
without the memo.  The memo lives for one decision, and its memory grows
with the number of distinct formulas that decision visits, where the
paper's recursion needs space only for one branch; each memoized formula
also carries the facts its nodes keep (hash, variable sets, surface
occurrences).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .calculus import (
    CL4,
    RULE_A,
    Derivation,
    Proof,
    RuleApplication,
    b1_targets,
    b2_targets,
    c_pairs,
    linearize,
    rule_a_premises,
    rule_premise,
)
from .classical import Budget, is_stable
from .syntax import (
    Const,
    Formula,
    Term,
    Var,
    aggregate_complexity,
    check_depth,
    constants,
    fresh_elem_name,
    fresh_variable,
    is_blind_free,
    is_formula,
    letter_names,
    pretty,
)


@dataclass(frozen=True)
class Decision:
    status: str  # "provable" | "unprovable" | "unknown"
    proof: Proof | None = None
    reason: str = ""

    @property
    def is_provable(self) -> bool:
        return self.status == "provable"


class _DepthExceeded(AssertionError):
    pass


_UNSEEN = object()  # memo lookup default: None is a cached failure


@dataclass
class _Search:
    budget: Budget
    max_depth: int
    tainted: bool = False
    trace: list[str] | None = None
    stats: dict | None = None
    memo: dict[Formula, Derivation | None] = field(default_factory=dict)

    def note(self, depth: int, f: Formula, rule: RuleApplication | None = None) -> None:
        """Trace line for f: the rule that proved it, or 'fail'.  Formatted
        only when a trace was asked for."""
        if self.trace is None:
            return
        if rule is None:
            label = "fail"
        elif rule.tag == "B1":
            label = f"B1[{rule.index}]"
        elif rule.tag == "B2":
            label = f"B2[{rule.term}]"
        elif rule.tag == "C":
            label = f"C[{rule.elem}]"
        else:
            label = rule.tag
        self.trace.append("  " * depth + f"{label}: {pretty(f)}")

    def observe(self, depth: int) -> None:
        if self.stats is not None:
            self.stats["nodes"] = self.stats.get("nodes", 0) + 1
            self.stats["max_depth"] = max(self.stats.get("max_depth", 0), depth)
            self.stats["depth_bound"] = self.max_depth

    def hit(self) -> None:
        if self.stats is not None:
            self.stats["memo_hits"] += 1


def _stable(f: Formula, search: _Search) -> bool:
    """Rule A's stability test; an exhausted budget taints the search and
    counts as 'not shown stable'."""
    verdict = is_stable(f, search.budget)
    if verdict.is_unknown:
        search.tainted = True
    return verdict.is_valid


def _b2_candidates(f: Formula) -> list[Term]:
    """Free variables of f, constants of f, plus one fresh variable."""
    out: list[Term] = [Var(x) for x in sorted(f.free_variables)]
    out.extend(Const(c) for c in sorted(constants(f)))
    out.append(Var(fresh_variable(f.variables)))
    return out


def _applications(f: Formula, search: _Search) -> Iterator[tuple[RuleApplication, list[Formula]]]:
    """The rule applications the search tries on f, in order, each with its
    premises; built lazily, so a success skips the rest."""
    if _stable(f, search):
        yield RULE_A, [req.formula for req in rule_a_premises(f)]
    for occ in b1_targets(f):
        for i in range(1, len(occ.quasiatom.parts) + 1):
            rule = RuleApplication("B1", addr=occ.address, index=i)
            yield rule, [rule_premise(f, rule)]
    targets = b2_targets(f)
    terms = _b2_candidates(f) if targets else []
    for occ in targets:
        for t in terms:
            rule = RuleApplication("B2", addr=occ.address, term=t)
            try:
                premise = rule_premise(f, rule)
            except ValueError:  # the scope side condition
                continue
            yield rule, [premise]
    pairs = c_pairs(f)
    if pairs:
        elem = fresh_elem_name(letter_names(f) | {"T", "F"})
        for pos, neg in pairs:
            rule = RuleApplication("C", pos=pos.address, neg=neg.address, elem=elem)
            yield rule, [rule_premise(f, rule)]


def _prove(f: Formula, depth: int, search: _Search) -> Derivation | None:
    if depth > search.max_depth:
        raise _DepthExceeded(
            f"recursion depth {depth} exceeds aggregate complexity bound {search.max_depth}"
        )
    search.observe(depth)
    cached = search.memo.get(f, _UNSEEN)
    if cached is not _UNSEEN:
        search.hit()
        search.note(depth, f, None if cached is None else cached.rule)
        return cached
    for rule, premises in _applications(f, search):
        children = []
        for premise in premises:
            sub = _prove(premise, depth + 1, search)
            if sub is None:
                break
            children.append(sub)
        else:
            search.note(depth, f, rule)
            search.memo[f] = derivation = Derivation(f, rule, tuple(children))
            return derivation
    search.note(depth, f)
    search.memo[f] = None
    return None


def _decide(
    f: Formula,
    certified: bool,
    budget: Budget,
    trace: list[str] | None,
    stats: dict | None = None,
) -> Decision:
    check_depth(f)
    if not is_formula(f):
        raise ValueError("input must be hybrid-free")
    if certified and not is_blind_free(f):
        raise ValueError("decide_blindfree rejects blind quantifiers; use decide_extended")
    search = _Search(
        budget=budget,
        max_depth=aggregate_complexity(f) + 1,
        trace=trace,
        stats=stats,
    )
    if stats is not None:
        stats.setdefault("memo_hits", 0)
    derivation = _prove(f, 1, search)
    if derivation is not None:
        return Decision("provable", linearize(derivation, CL4))
    if search.tainted:
        return Decision("unknown", reason="a stability check exhausted its budget")
    return Decision("unprovable")


def decide_blindfree(
    f: Formula, trace: list[str] | None = None, stats: dict | None = None
) -> Decision:
    """Certified decision for blind-free, hybrid-free formulas: Provable
    with a checkable proof, or Unprovable.  Never Unknown."""
    return _decide(f, certified=True, budget=Budget(), trace=trace, stats=stats)


def decide_extended(
    f: Formula,
    budget: Budget = Budget(),
    trace: list[str] | None = None,
    stats: dict | None = None,
) -> Decision:
    """Best-effort decision for formulas that may contain blind quantifiers.
    Provable answers stay fully certified; negative answers degrade to
    Unknown when some stability check ran out of budget."""
    return _decide(f, certified=False, budget=budget, trace=trace, stats=stats)
