"""Compile a reasonable CL4o proof into an interactive strategy and play it
against a scripted environment.

The engine walks the proof from its conclusion.  Steps justified by B1, B2
or Co prescribe machine moves (a choice, a quantifier choice, or a copy-cat
burst synchronizing the two occurrences of a hybrid letter); a step
justified by A waits for the environment.  An environment move inside a
general quasiatom is recorded; one inside a hybrid quasiatom is mirrored
at the matching occurrence; a choice move steps the engine to the premise
that reflects it.  An exhausted script counts as the environment passing
forever, at which point the accumulated run is scored.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

from .calculus import Proof, check_proof, match_a_premise, rule_a_premises
from .classical import Budget
from .games import (
    BOT_PLAYER,
    Interpretation,
    LabMove,
    ResidualState,
    Run,
    TOP_PLAYER,
    _wins,
    advance,
    choice_mover,
    hybrid_pairs,
    is_manageable,
    legal_moves_at,
    parse_move,
    project,
    residual,
)
from .syntax import (
    Atom,
    Const,
    Formula,
    Occurrence,
    addr_str,
    apply_valuation,
    general_dehybridization,
    is_blind_free,
    is_choice,
    is_reasonable,
    pretty,
)


@dataclass(frozen=True)
class MachineState:
    """Snapshot at the top of one loop iteration: the proof hyperformula in
    play, the quasiatom-play position, and the valuation record."""

    formula: Formula
    omega: Run
    valuation: tuple[tuple[str, int], ...]

    def val_dict(self) -> dict[str, int]:
        return dict(self.valuation)

    def ground(self) -> Formula:
        return apply_valuation(self.formula, self.val_dict())


@dataclass(frozen=True)
class PlayEvent:
    loop: str  # "main" | "inner"
    case: str  # "B1" | "B2" | "Co" | "env-general" | "env-hybrid" |
    #            "env-choice" | "env-choice-const" | "env-illegal" | "pass" | "final"
    state: MachineState
    theta_before: Run
    moves: Run  # moves appended during this iteration (env + machine)


MACHINE_WINS = "machine-wins"
MACHINE_LOSES = "machine-loses"
ENVIRONMENT_ILLEGAL = "environment-illegal"
ABORTED = "aborted"


@dataclass
class PlayTranscript:
    final_run: Run
    events: list[PlayEvent]
    verdict: str
    reason: str = ""

    @property
    def won(self) -> bool:
        return self.verdict in (MACHINE_WINS, ENVIRONMENT_ILLEGAL)

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "reason": self.reason,
            "run": [{"player": m.player, "move": m.move} for m in self.final_run],
            "iterations": [
                {
                    "loop": e.loop,
                    "case": e.case,
                    "formula": pretty(e.state.formula),
                    "valuation": dict(e.state.valuation),
                    "omega": [{"player": m.player, "move": m.move} for m in e.state.omega],
                    "moves": [{"player": m.player, "move": m.move} for m in e.moves],
                }
                for e in self.events
            ],
        }


class StrategyError(ValueError):
    pass


def _hybrid_pair(f: Formula, name: str) -> tuple[Occurrence, Occurrence]:
    """The (positive, negative) occurrences of the hybrid letter name in f."""
    return next((p, n) for p, n in hybrid_pairs(f) if p.quasiatom.letter.name == name)


class _Play:
    """One play of the strategy a proof encodes, from the conclusion: the
    proof step in play, the valuation record, the quasiatom-play position
    omega, the run theta and the root game's position after it, the events
    so far and the loop iterations taken.  A play waiting for the
    environment can be forked, so a prefix of a script is played once."""

    def __init__(self, proof: Proof, interp: Interpretation, max_steps: int = 1000) -> None:
        conclusion = proof.conclusion
        if conclusion.free_variables:
            raise StrategyError("the played formula must be closed")
        if not is_blind_free(conclusion):
            raise StrategyError("certified play requires a blind-free formula")
        self.root, self.interp, self.max_steps = conclusion, interp, max_steps
        self.steps = {s.id: s for s in proof.steps}
        self.step = proof.steps[-1]
        # never changed in place, so forks share it
        self.valuation: dict[str, int] = {}
        self.omega, self.theta, self.events = [], [], []
        self.iterations = 0
        # the root game's position after theta; None after an illegal machine move
        self.position: ResidualState | None = ResidualState(conclusion)

    def fork(self) -> "_Play":
        other = copy.copy(self)
        other.omega, other.theta, other.events = self.omega[:], self.theta[:], self.events[:]
        return other

    def _move(self, *moves: LabMove) -> None:
        for m in moves:
            self.theta.append(m)
            self.position = self.position and advance(self.position, self.interp, m)

    def _climb(self, premise_id: int, chosen: str | None = None, c: int = 0) -> None:
        """Step up to a premise.  The valuation record keeps exactly the
        premise's free variables; a new one reads as c if it is the chosen
        variable, else as 0."""
        premise, old = self.steps[premise_id], self.valuation
        self.valuation = {
            z: old.get(z, c if z == chosen else 0) for z in premise.formula.free_variables
        }
        self.step = premise

    def _snapshot(self) -> MachineState:
        return MachineState(
            self.step.formula, tuple(self.omega), tuple(sorted(self.valuation.items()))
        )

    def _finish(self, verdict: str, reason: str = "") -> PlayTranscript:
        return PlayTranscript(tuple(self.theta), self.events, verdict, reason)

    def end(self) -> PlayTranscript:
        """Score the play as it stands: the environment passes forever."""
        self.events.append(PlayEvent("main", "final", self._snapshot(), tuple(self.theta), ()))
        # residual raises the error naming an illegal machine move
        position = self.position or residual(self.root, self.interp, tuple(self.theta))
        return self._finish(MACHINE_WINS if _wins(position, self.interp) else MACHINE_LOSES)

    def play(self, entries: list[str]) -> PlayTranscript | None:
        """Feed the play environment entries, one per wait: the transcript
        when the play ends ("pass" ends it), or None when it waits with no
        entry left."""
        entries = iter(entries)
        while True:
            step, rule = self.step, self.step.rule
            if rule.tag == "A":
                entry = next(entries, None)
                if entry is None:
                    return None
            self.iterations += 1
            if self.iterations > self.max_steps:
                return self.end()
            state, before = self._snapshot(), tuple(self.theta)

            if rule.tag in ("B1", "B2"):
                t = rule.term  # B2 names a term, B1 a component index
                if t is None:
                    c = rule.index
                else:
                    c = t.value if isinstance(t, Const) else self.valuation.get(t.name, 0)
                move = LabMove(TOP_PLAYER, f"{addr_str(rule.addr)}{c}")
                self._move(move)
                self._climb(step.premises[0])
                self.events.append(PlayEvent("main", rule.tag, state, before, (move,)))
                continue

            if rule.tag == "Co":
                premise = self.steps[step.premises[0]].formula
                pos, neg = (o.address for o in _hybrid_pair(premise, rule.hybrid))
                # each occurrence gets the moves made at the other, in order
                new_moves = [
                    LabMove(TOP_PLAYER, f"{addr_str(to)}{m.move}")
                    for to, source in ((pos, neg), (neg, pos))
                    for m in project(tuple(self.omega), source, "raw")
                ]
                self._move(*new_moves)
                self.omega.extend(new_moves)
                self._climb(step.premises[0])
                self.events.append(PlayEvent("main", "Co", state, before, tuple(new_moves)))
                continue

            if rule.tag != "A":
                return self._finish(ABORTED, f"step {step.id} has unsupported rule {rule.tag}")

            # Rule A: the environment's entry.
            if entry == "pass":
                self.events.append(PlayEvent("inner", "pass", state, before, ()))
                return self.end()
            move = LabMove(BOT_PLAYER, entry)
            after = self.position and advance(self.position, self.interp, move)
            self.theta.append(move)
            # the proof's formula has the surface of its grounded form
            parsed = after and parse_move(step.formula, entry)
            if parsed is None:
                self.events.append(PlayEvent("inner", "env-illegal", state, before, (move,)))
                why = "is illegal" if after is None else "does not resolve"
                return self._finish(ENVIRONMENT_ILLEGAL, f"environment move {entry!r} {why}")
            self.position = after
            occ, payload = parsed
            qa = occ.quasiatom

            if isinstance(qa, Atom) and qa.letter.kind == "general":
                self.omega.append(move)
                self.events.append(PlayEvent("inner", "env-general", state, before, (move,)))
                continue

            if isinstance(qa, Atom) and qa.letter.kind == "hybrid":
                pos, neg = _hybrid_pair(step.formula, qa.letter.name)
                sigma = neg.address if occ.address == pos.address else pos.address
                reply = LabMove(TOP_PLAYER, f"{addr_str(sigma)}{payload}")
                self._move(reply)
                self.omega += [move, reply]
                self.events.append(PlayEvent("inner", "env-hybrid", state, before, (move, reply)))
                continue

            if is_choice(qa):
                if move.player != choice_mover(qa, occ.polarity):
                    return self._finish(ENVIRONMENT_ILLEGAL, f"move {entry!r} at a machine choice")
                # the required premise for this choice, read off the proof's formula
                chosen = (occ.address, None if qa.bound_var is not None else int(payload))
                required = rule_a_premises(step.formula)
                req = next(r for r in required if (r.occurrence.address, r.index) == chosen)
                supplied = [self.steps[pid].formula for pid in step.premises]
                found = match_a_premise(step.formula, req, supplied)
                if found is None:
                    self.theta.pop()  # an aborted run stops before the unanswered move
                    return self._finish(
                        ABORTED, f"no premise of step {step.id} matches {pretty(req.formula)}"
                    )
                k, y = found
                self._climb(step.premises[k], y, int(payload))
                case = "env-choice" if y is None else "env-choice-const"
                self.events.append(PlayEvent("inner", case, state, before, (move,)))
                continue

            return self._finish(ENVIRONMENT_ILLEGAL, f"move {entry!r} fits no subcase")


def _require_playable(proof: Proof, budget: Budget) -> None:
    """Raise StrategyError unless the proof checks and every step is
    reasonable: the preconditions of playing its strategy."""
    result = check_proof(proof, budget)
    if not result:
        raise StrategyError(f"proof fails at step {result.step_id}: {result.message}")
    for s in proof.steps:
        if not is_reasonable(s.formula):
            raise StrategyError(f"step {s.id} is not reasonable")


def extract_and_play(
    proof: Proof,
    interp: Interpretation,
    env_moves: list[str],
    max_steps: int = 1000,
    budget: Budget = Budget(),
) -> PlayTranscript:
    """Check the proof, then play the strategy it encodes against a scripted
    environment.

    env_moves is consumed one entry per wait; "pass" (or running out of
    entries) ends the play, which is then scored by the winner evaluator.
    The play stops after max_steps loop iterations and is scored there.
    """
    _require_playable(proof, budget)
    play = _Play(proof, interp, max_steps)
    return play.play(env_moves) or play.end()


# ---------------------------------------------------------------------------
# Claim 1 invariants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Claim1Result:
    ok: bool
    iteration: int | None = None
    which: str = ""

    def __bool__(self) -> bool:
        return self.ok


def assert_claim1(
    transcript: PlayTranscript, proof: Proof, interp: Interpretation
) -> Claim1Result:
    """Per iteration: the quasiatom-play position is manageable for the
    current (grounded) hyperformula, and the residual of the original game
    under theta matches the residual of the current game under omega.  The
    former is carried along while each theta extends the one before."""
    root = proof.conclusion
    start = residual(root, interp, ())
    left, seen = start, ()

    for idx, event in enumerate(transcript.events):
        K = event.state.ground()
        omega = event.state.omega
        manageable = is_manageable(K, omega)
        if not manageable:
            return Claim1Result(
                False, idx, f"manageability clause {manageable.clause} at {manageable.address}"
            )
        theta = event.theta_before
        if theta[: len(seen)] != seen:
            left, seen = start, ()
        for m in theta[len(seen):]:
            # None: m is illegal, and residual raises the error naming it
            left = advance(left, interp, m) or residual(root, interp, theta)
        seen = theta
        right = residual(K, interp, omega)
        if general_dehybridization(left.formula) != general_dehybridization(right.formula):
            return Claim1Result(
                False,
                idx,
                f"residual formulas diverge: {pretty(left.formula)} vs {pretty(right.formula)}",
            )
        if left.stored != right.stored:
            return Claim1Result(False, idx, "stored quasiatom runs diverge")
    return Claim1Result(True)


# ---------------------------------------------------------------------------
# Exhaustive environment enumeration (testing aid)
# ---------------------------------------------------------------------------


def enumerate_plays(
    proof: Proof,
    interp: Interpretation,
    max_env_moves: int,
    budget: Budget = Budget(),
) -> list[tuple[list[str], PlayTranscript]]:
    """Play every legal environment script of at most max_env_moves moves
    (each script implicitly ends with a pass), depth first.  The proof is
    checked once, with the preconditions of ``extract_and_play``.

    The play waiting after a script is forked: one fork passes, and one per
    legal environment move at its carried position plays that move, so no
    prefix is played twice.  A play that ended without reading its script
    (it ran out of loop iterations) ends so, in a copy, for every extension."""
    _require_playable(proof, budget)
    out: list[tuple[list[str], PlayTranscript]] = []

    def explore(play: _Play, script: list[str], ended: PlayTranscript | None) -> None:
        transcript = replace(ended, events=ended.events[:]) if ended else play.fork().play(["pass"])
        out.append((script + ["pass"], transcript))
        if len(script) >= max_env_moves or transcript.verdict in (ENVIRONMENT_ILLEGAL, ABORTED):
            return
        for move in legal_moves_at(play.position, interp, BOT_PLAYER):
            child = play if ended else play.fork()
            explore(child, script + [move], ended or child.play([move]))

    start = _Play(proof, interp)
    explore(start, [], start.play([]))
    return out
