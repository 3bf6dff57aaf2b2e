"""Proof objects for CL4 and CL4o, per-rule checking, whole-proof
verification, and the hybridize / make-reasonable transformations.

A proof is a sequence of steps; each step carries a hyperformula, a rule
tag with its parameters, and references to earlier steps (DAG sharing is
allowed).  CL4 proofs contain formulas only and may use Rule C; CL4o
proofs contain balanced hyperformulas and use Rule Co instead.  Every
proof producer (the decision search and both transformations) builds a
``Derivation`` DAG and turns it into steps with the one ``linearize``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache

from .classical import Budget, is_stable
from .games import BOT_PLAYER, TOP_PLAYER, choice_mover, read_json
from .syntax import (
    Address,
    Atom,
    ChoAll,
    ChoAnd,
    ChoEx,
    ChoOr,
    Const,
    Formula,
    Letter,
    Occurrence,
    Term,
    Var,
    _read_int,
    addr_str,
    check_depth,
    elem_letter,
    fresh_variable,
    gen_letter,
    hybrid_letter,
    is_formula,
    is_reasonable,
    letter_names,
    letters,
    parse,
    parse_addr,
    pretty,
    replace_at,
    replace_letter,
    resolve,
    substitute,
    surface_path,
)

CL4 = "CL4"
CL4O = "CL4o"


@dataclass(frozen=True)
class RuleApplication:
    tag: str  # "A" | "B1" | "B2" | "C" | "Co"
    addr: Address | None = None  # B1 / B2
    index: int | None = None  # B1
    term: Term | None = None  # B2
    pos: Address | None = None  # C
    neg: Address | None = None  # C
    elem: str | None = None  # C
    hybrid: str | None = None  # Co

    def params_json(self) -> dict:
        out: dict = {}
        if self.addr is not None:
            out["addr"] = addr_str(self.addr)
        if self.index is not None:
            out["index"] = self.index
        if self.term is not None:
            out["term"] = str(self.term)
        if self.pos is not None:
            out["pos"] = addr_str(self.pos)
        if self.neg is not None:
            out["neg"] = addr_str(self.neg)
        if self.elem is not None:
            out["elem"] = self.elem
        if self.hybrid is not None:
            out["hybrid"] = self.hybrid
        return out


RULE_A = RuleApplication("A")


@dataclass(frozen=True)
class ProofStep:
    id: int
    formula: Formula
    rule: RuleApplication
    premises: tuple[int, ...] = ()


@dataclass
class Proof:
    system: str  # CL4 | CL4o
    steps: list[ProofStep] = field(default_factory=list)

    @property
    def conclusion(self) -> Formula:
        return self.steps[-1].formula

    def step(self, step_id: int) -> ProofStep:
        for s in self.steps:
            if s.id == step_id:
                return s
        raise KeyError(f"no step {step_id}")


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    step_id: int | None = None
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# Rule targets
# ---------------------------------------------------------------------------

_CONNECTIVES = (ChoAnd, ChoOr)
_QUANTIFIERS = (ChoAll, ChoEx)


def _is_target(occ: Occurrence, mover: str, kinds: tuple[type, ...]) -> bool:
    """Is occ a choice quasiatom of one of these kinds that mover resolves?"""
    qa = occ.quasiatom
    return isinstance(qa, kinds) and choice_mover(qa, occ.polarity) == mover


def _targets(e: Formula, mover: str, kinds: tuple[type, ...]) -> list[Occurrence]:
    return [occ for occ in e.surface_occurrences if _is_target(occ, mover, kinds)]


def rule_a_targets(e: Formula) -> list[Occurrence]:
    """Surface occurrences Rule A quantifies over: the choices the environment
    resolves (positive caps, negative cups)."""
    return _targets(e, BOT_PLAYER, _CONNECTIVES + _QUANTIFIERS)


def b1_targets(e: Formula) -> list[Occurrence]:
    """Choice connectives the machine resolves (negative cap, positive cup)."""
    return _targets(e, TOP_PLAYER, _CONNECTIVES)


def b2_targets(e: Formula) -> list[Occurrence]:
    """Choice quantifiers the machine resolves (negative cap, positive cup)."""
    return _targets(e, TOP_PLAYER, _QUANTIFIERS)


def _is_general(qa: Formula) -> bool:
    return isinstance(qa, Atom) and qa.letter.kind == "general"


def c_pairs(e: Formula) -> list[tuple[Occurrence, Occurrence]]:
    """(positive, negative) surface occurrence pairs of one general letter."""
    occs = e.surface_occurrences
    out = []
    for pos in occs:
        if not _is_general(pos.quasiatom):
            continue
        if pos.polarity <= 0:
            continue
        for neg in occs:
            if neg.polarity >= 0:
                continue
            if not isinstance(neg.quasiatom, Atom):
                continue
            if neg.quasiatom.letter == pos.quasiatom.letter:
                out.append((pos, neg))
    return out


# ---------------------------------------------------------------------------
# Rule A premises
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class APremise:
    """One required premise of Rule A: the occurrence it resolves, the
    choice made (component index or the fresh variable), and the result."""

    occurrence: Occurrence
    kind: str  # "component" | "variable"
    index: int | None
    var: str | None
    formula: Formula


def rule_a_premises(e: Formula) -> list[APremise]:
    used_vars = e.variables
    out: list[APremise] = []
    for occ in rule_a_targets(e):
        qa = occ.quasiatom
        if isinstance(qa, _CONNECTIVES):
            for i, comp in enumerate(qa.parts, start=1):
                out.append(
                    APremise(occ, "component", i, None, replace_at(e, occ.address, comp))
                )
        else:
            y = fresh_variable(used_vars)
            body = substitute(qa.body, qa.var, Var(y))
            out.append(APremise(occ, "variable", None, y, replace_at(e, occ.address, body)))
    return out


def premises_A(e: Formula) -> list[Formula]:
    """The required Rule A premise set for e, deduplicated, in occurrence
    order, with the deterministic fresh variable for quantifier targets."""
    seen = set()
    out = []
    for p in rule_a_premises(e):
        if p.formula not in seen:
            seen.add(p.formula)
            out.append(p.formula)
    return out


def match_a_premise(
    e: Formula, req: APremise, supplied: list[Formula]
) -> tuple[int, str | None] | None:
    """The first supplied premise that realizes the required Rule A premise
    req: its position, and the variable it instantiates req's quantifier to
    (None for a component premise).  A quantifier premise is e with the body
    on any variable fresh for e, tried in sorted order, or on the bound
    variable itself when the quantifier is vacuous."""
    if req.kind == "component":
        return next(((k, None) for k, h in enumerate(supplied) if h == req.formula), None)
    qa, addr = req.occurrence.quasiatom, req.occurrence.address
    e_vars = e.variables
    vacuous = qa.var not in qa.body.free_variables
    for k, h in enumerate(supplied):
        for y in sorted(h.variables - e_vars):
            if replace_at(e, addr, substitute(qa.body, qa.var, Var(y))) == h:
                return k, y
        if vacuous and replace_at(e, addr, qa.body) == h:
            return k, qa.var
    return None


# ---------------------------------------------------------------------------
# Premises of B1, B2 and C
# ---------------------------------------------------------------------------


def _binders_on_path(e: Formula, addr: Address) -> set[str]:
    """Variables bound by quantifiers on the path from the root to the
    quasiatom at addr (only blind quantifiers can occur on such a path)."""
    steps, _ = surface_path(e, iter(addr))
    return {node.bound_var for node, _ in steps if node.bound_var is not None}


def _free_occurrence_binders(g: Formula, x: str) -> list[set[str]]:
    """For each free occurrence of x in g, the set of variables bound by
    quantifiers enclosing that occurrence within g."""
    out: list[set[str]] = []

    def walk(node: Formula, bound: frozenset[str]) -> None:
        if isinstance(node, Atom):
            if any(isinstance(t, Var) and t.name == x for t in node.args) and x not in bound:
                out.append(set(bound))
            return
        if node.bound_var is not None:
            bound = bound | {node.bound_var}
        for child in node.children:
            walk(child, bound)

    walk(g, frozenset())
    return out


def b2_scope_ok(e: Formula, addr: Address, t: Term) -> bool:
    """Rule B2 side condition: when t is a variable, neither the quantifier
    occurrence at addr nor any free occurrence of its variable inside the
    body lies in the scope of a quantifier binding t."""
    if isinstance(t, Const):
        return True
    occ = resolve(e, addr)
    qa = occ.quasiatom
    if t.name in _binders_on_path(e, addr):
        return False
    for binders in _free_occurrence_binders(qa.body, qa.var):
        if t.name in binders:
            return False
    return True


def _resolve(e: Formula, addr: Address) -> Occurrence:
    try:
        return resolve(e, addr)
    except KeyError as ex:
        raise ValueError(ex.args[0]) from None


def rule_premise(e: Formula, rule: RuleApplication) -> Formula:
    """The premise of a B1, B2 or C application to e.  Raises ValueError,
    saying why, when the rule does not apply there."""
    if rule.tag == "B1":
        if rule.addr is None or rule.index is None:
            raise ValueError("Rule B1 needs an address and a component index")
        occ = _resolve(e, rule.addr)
        if not _is_target(occ, TOP_PLAYER, _CONNECTIVES):
            raise ValueError("Rule B1 requires a negative cap or positive cup occurrence")
        parts = occ.quasiatom.parts
        if not 1 <= rule.index <= len(parts):
            raise ValueError(f"component index {rule.index} out of range")
        return replace_at(e, rule.addr, parts[rule.index - 1])

    if rule.tag == "B2":
        if rule.addr is None or rule.term is None:
            raise ValueError("Rule B2 needs an address and a term")
        occ = _resolve(e, rule.addr)
        if not _is_target(occ, TOP_PLAYER, _QUANTIFIERS):
            raise ValueError(
                "Rule B2 requires a negative cap-quantifier or positive cup-quantifier occurrence"
            )
        if not b2_scope_ok(e, rule.addr, rule.term):
            raise ValueError(f"term {rule.term} violates the scope side condition")
        qa = occ.quasiatom
        return replace_at(e, rule.addr, substitute(qa.body, qa.var, rule.term))

    if rule.tag == "C":
        if rule.pos is None or rule.neg is None or rule.elem is None:
            raise ValueError("Rule C needs positive/negative addresses and an elementary letter")
        pos, neg = _resolve(e, rule.pos), _resolve(e, rule.neg)
        if not _is_general(pos.quasiatom):
            raise ValueError("positive address must name a general atom")
        if not _is_general(neg.quasiatom):
            raise ValueError("negative address must name a general atom")
        if pos.polarity <= 0 or neg.polarity >= 0:
            raise ValueError("Rule C needs one positive and one negative occurrence")
        if pos.quasiatom.letter != neg.quasiatom.letter:
            raise ValueError("the two occurrences must share their general letter")
        if rule.elem in letter_names(e) or rule.elem in ("T", "F"):
            raise ValueError(f"letter {rule.elem} is not fresh for the conclusion")
        q = elem_letter(rule.elem, pos.quasiatom.letter.arity)
        premise = replace_at(e, rule.pos, Atom(q, pos.quasiatom.args))
        return replace_at(premise, rule.neg, Atom(q, neg.quasiatom.args))

    raise ValueError(f"Rule {rule.tag} has no premise built from its conclusion alone")


# ---------------------------------------------------------------------------
# Step checking
# ---------------------------------------------------------------------------


def check_step(
    conclusion: Formula,
    rule: RuleApplication,
    premises: list[Formula],
    budget: Budget = Budget(),
    system: str = CL4,
) -> str | None:
    """None when the step is fine, else a description of the violation."""
    if system == CL4 and rule.tag == "Co":
        return "Rule Co is not part of CL4"
    if system == CL4O and rule.tag == "C":
        return "Rule C is not part of CL4o"

    if rule.tag == "A":
        verdict = is_stable(conclusion, budget)
        if verdict.is_invalid:
            return "conclusion is instable"
        if verdict.is_unknown:
            return f"stability unverified: {verdict.reason}"
        for req in rule_a_premises(conclusion):
            if match_a_premise(conclusion, req, premises) is not None:
                continue
            return (
                f"missing Rule A premise for occurrence {addr_str(req.occurrence.address) or 'e'}: "
                f"{pretty(req.formula)}"
            )
        return None

    if rule.tag in ("B1", "B2", "C"):
        if len(premises) != 1:
            return f"Rule {rule.tag} takes exactly one premise"
        try:
            expected = rule_premise(conclusion, rule)
        except ValueError as ex:
            return str(ex)
        if premises[0] != expected:
            return f"premise should be {pretty(expected)}"
        return None

    if rule.tag == "Co":
        if rule.hybrid is None:
            return "Rule Co needs a hybrid letter"
        if len(premises) != 1:
            return "Rule Co takes exactly one premise"
        h = premises[0]
        hyb = next(
            (lt for lt in letters(h) if lt.kind == "hybrid" and lt.name == rule.hybrid),
            None,
        )
        if hyb is None:
            return f"hybrid letter {rule.hybrid} does not occur in the premise"
        expected = replace_letter(h, hyb, gen_letter(hyb.general, hyb.arity))
        if conclusion != expected:
            return f"conclusion should be {pretty(expected)}"
        return None

    return f"unknown rule tag {rule.tag!r}"


def check_proof(proof: Proof, budget: Budget = Budget()) -> CheckResult:
    """Verify every step in its system; report the first bad step.  Raises
    ValueError when a step's formula is nested too deeply to check."""
    check_depth(*(step.formula for step in proof.steps))
    if proof.system not in (CL4, CL4O):
        return CheckResult(False, None, f"unknown system {proof.system!r}")
    if not proof.steps:
        return CheckResult(False, None, "empty proof")
    by_id: dict[int, ProofStep] = {}
    for step in proof.steps:
        if step.id in by_id:
            return CheckResult(False, step.id, "duplicate step id")
        if any(p >= step.id for p in step.premises):
            return CheckResult(False, step.id, "premise ids must be smaller than the step id")
        if any(p not in by_id for p in step.premises):
            return CheckResult(False, step.id, "premise id does not exist")
        if proof.system == CL4:
            if not is_formula(step.formula):
                return CheckResult(False, step.id, "CL4 steps must be hybrid-free formulas")
        else:
            r = is_reasonable(step.formula)
            if r.status == "unbalanced":
                return CheckResult(False, step.id, f"CL4o steps must be balanced: {r.detail}")
        premise_formulas = [by_id[p].formula for p in step.premises]
        why = check_step(step.formula, step.rule, premise_formulas, budget, proof.system)
        if why is not None:
            return CheckResult(False, step.id, why)
        by_id[step.id] = step
    return CheckResult(True)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _term_from_str(s: str) -> Term:
    s = s.strip()
    if s.isdigit():
        return Const(_read_int(s, "term"))
    return Var(s)


def rule_from_json(tag: str, params: dict) -> RuleApplication:
    if "index" in params and type(params["index"]) is not int:
        raise ValueError(f"component index must be an integer, not {params['index']!r}")
    if not all(isinstance(params.get(k, ""), str) for k in ("elem", "hybrid")):
        raise ValueError("letter parameters must be strings")
    return RuleApplication(
        tag=tag,
        addr=parse_addr(params["addr"]) if "addr" in params else None,
        index=params.get("index"),
        term=_term_from_str(params["term"]) if "term" in params else None,
        pos=parse_addr(params["pos"]) if "pos" in params else None,
        neg=parse_addr(params["neg"]) if "neg" in params else None,
        elem=params.get("elem"),
        hybrid=params.get("hybrid"),
    )


def proof_to_json(proof: Proof) -> dict:
    return {
        "system": proof.system,
        "steps": [
            {
                "id": s.id,
                "formula": pretty(s.formula),
                "rule": s.rule.tag,
                "premises": list(s.premises),
                "params": s.rule.params_json(),
            }
            for s in proof.steps
        ],
    }


def proof_from_json(doc: dict) -> Proof:
    """Raises ValueError on a malformed document."""
    if not isinstance(doc, dict):
        raise ValueError("a proof document must be a JSON object")
    try:
        steps = [
            ProofStep(
                id=entry["id"],
                formula=parse(entry["formula"]),
                rule=rule_from_json(entry["rule"], entry.get("params", {})),
                premises=tuple(entry.get("premises", ())),
            )
            for entry in doc["steps"]
        ]
        system = doc["system"]
    except KeyError as ex:
        raise ValueError(f"malformed proof document: missing {ex}") from None
    except (AttributeError, TypeError) as ex:
        raise ValueError(f"malformed proof document: {ex}") from None
    if not all(type(i) is int for s in steps for i in (s.id, *s.premises)):
        raise ValueError("malformed proof document: step ids and premises must be integers")
    return Proof(system=system, steps=steps)


def save_proof(proof: Proof, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(proof_to_json(proof), fh, indent=2)


def load_proof(path: str) -> Proof:
    return proof_from_json(read_json(path))


# ---------------------------------------------------------------------------
# Derivations: proofs as DAGs
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Derivation:
    """A proof as a DAG node: a formula, the rule that derives it, and the
    derivations of its premises.  Nodes compare and hash by identity, so a
    shared subderivation is one node however often it is used."""

    formula: Formula
    rule: RuleApplication
    children: tuple["Derivation", ...] = ()


def read_derivation(proof: Proof) -> Derivation:
    """The DAG of a proof whose premises precede their steps, rooted at the
    last step."""
    nodes: dict[int, Derivation] = {}
    for s in proof.steps:
        nodes[s.id] = Derivation(s.formula, s.rule, tuple(nodes[p] for p in s.premises))
    return nodes[proof.steps[-1].id]


def linearize(root: Derivation, system: str) -> Proof:
    """The proof of root's formula: steps in post-order, numbered from 1,
    with one step for each distinct (formula, rule, premise ids)."""
    steps: list[ProofStep] = []
    ids: dict[tuple, int] = {}
    done: dict[Derivation, int] = {}

    def emit(node: Derivation) -> int:
        if node not in done:
            premises = tuple(emit(c) for c in node.children)
            key = (node.formula, node.rule, premises)
            if key not in ids:
                ids[key] = len(steps) + 1
                steps.append(ProofStep(ids[key], node.formula, node.rule, premises))
            done[node] = ids[key]
        return done[node]

    emit(root)
    return Proof(system, steps)


# ---------------------------------------------------------------------------
# CL4 -> CL4o (hybridization of Rule C)
# ---------------------------------------------------------------------------


def to_cl4o(proof: Proof, budget: Budget = Budget()) -> Proof:
    """Convert a checked CL4 proof into a CL4o proof of the same conclusion:
    each Rule C application becomes Rule Co, with the introduced elementary
    letter rewritten to the matching hybrid letter throughout its subproof.

    A subproof shared by several steps is rewritten once per distinct letter
    rewriting inherited from the C steps below it, so the proof keeps its
    sharing.  No letter needs renaming: C's letter is fresh for its
    conclusion and stays on the surface of every formula above, so no C
    above it introduces that letter again, and sibling subproofs never meet
    in one formula.
    """
    result = check_proof(proof, budget)
    if not result:
        raise ValueError(f"input proof fails at step {result.step_id}: {result.message}")
    if proof.system != CL4:
        raise ValueError("to_cl4o expects a CL4 proof")

    @cache
    def hybridize(node: Derivation, renaming: tuple) -> Derivation:
        formula, rule = node.formula, node.rule
        for old, new in renaming:
            formula = replace_letter(formula, old, new)
        if rule.tag == "C":
            general = resolve(node.formula, rule.pos).quasiatom.letter
            hyb = hybrid_letter(general.name, rule.elem, general.arity)
            renaming += ((elem_letter(rule.elem, general.arity), hyb),)
            rule = RuleApplication("Co", hybrid=hyb.name)
        return Derivation(formula, rule, tuple(hybridize(c, renaming) for c in node.children))

    return linearize(hybridize(read_derivation(proof), ()), CL4O)


# ---------------------------------------------------------------------------
# Reasonable CL4o proofs
# ---------------------------------------------------------------------------


def _unreasonable_letters(f: Formula) -> dict[str, Letter]:
    """The unreasonable hybrid letters of f, by name."""
    # is_reasonable reports only the first unreasonable letter, so probe
    # each hybrid letter with the others replaced by their general parts.
    out = {}
    hybrids = [lt for lt in letters(f) if lt.kind == "hybrid"]
    for lt in hybrids:
        g = f
        for other in hybrids:
            if other != lt:
                g = replace_letter(g, other, gen_letter(other.general, other.arity))
        r = is_reasonable(g)
        if r.status == "unreasonable" and r.detail == lt.name:
            out[lt.name] = lt
    return out


def _tilde(f: Formula) -> Formula:
    """Replace every unreasonable hybrid letter by its general component."""
    for lt in _unreasonable_letters(f).values():
        f = replace_letter(f, lt, gen_letter(lt.general, lt.arity))
    return f


def make_reasonable(proof: Proof, budget: Budget = Budget()) -> Proof:
    """Turn a CL4o proof of a reasonable hyperformula into one whose every
    step is reasonable.  Co steps whose hybrid letter was unreasonable in
    the premise collapse onto that premise."""
    result = check_proof(proof, budget)
    if not result:
        raise ValueError(f"input proof fails at step {result.step_id}: {result.message}")
    if proof.system != CL4O:
        raise ValueError("make_reasonable expects a CL4o proof")
    if not is_reasonable(proof.conclusion):
        raise ValueError("the conclusion is not reasonable")

    @cache
    def reasonable(node: Derivation) -> Derivation:
        rule, premises = node.rule, node.children
        if rule.tag == "Co" and rule.hybrid in _unreasonable_letters(premises[0].formula):
            return reasonable(premises[0])  # the tilde collapses this application
        return Derivation(_tilde(node.formula), rule, tuple(map(reasonable, premises)))

    return linearize(reasonable(read_derivation(proof)), CL4O)
