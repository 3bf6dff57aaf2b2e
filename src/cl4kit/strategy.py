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

from dataclasses import dataclass

from .calculus import Proof, check_proof, match_a_premise, rule_a_premises
from .classical import Budget
from .games import (
    BOT_PLAYER,
    Interpretation,
    LabMove,
    ResidualState,
    Run,
    TOP_PLAYER,
    advance,
    choice_mover,
    hybrid_pairs,
    is_manageable,
    legal_moves,
    parse_move,
    project,
    residual,
    winner,
)
from .syntax import (
    Atom,
    Const,
    Formula,
    Occurrence,
    Var,
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
    #            "env-choice" | "env-choice-const" | "pass"
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


def _restrict(valuation: dict[str, int], f: Formula) -> None:
    """Drop the valuation's entries for variables not free in f."""
    for z in set(valuation) - f.free_variables:
        del valuation[z]


def _hybrid_pair(f: Formula, name: str) -> tuple[Occurrence, Occurrence]:
    """The (positive, negative) occurrences of the hybrid letter name in f."""
    return next((p, n) for p, n in hybrid_pairs(f) if p.quasiatom.letter.name == name)


def extract_and_play(
    proof: Proof,
    interp: Interpretation,
    env_moves: list[str],
    max_steps: int = 1000,
    budget: Budget = Budget(),
    check: bool = True,
) -> PlayTranscript:
    """Play the strategy the proof encodes against a scripted environment.

    env_moves is consumed one entry per wait; "pass" (or running out of
    entries) ends the play, which is then scored by the winner evaluator.
    """
    if check:
        result = check_proof(proof, budget)
        if not result:
            raise StrategyError(
                f"proof fails at step {result.step_id}: {result.message}"
            )
        for s in proof.steps:
            if not is_reasonable(s.formula):
                raise StrategyError(f"step {s.id} is not reasonable")
    conclusion = proof.conclusion
    if conclusion.free_variables:
        raise StrategyError("the played formula must be closed")
    if not is_blind_free(conclusion):
        raise StrategyError("certified play requires a blind-free formula")

    current = proof.steps[-1]
    valuation: dict[str, int] = {}
    omega: list[LabMove] = []
    theta: list[LabMove] = []
    events: list[PlayEvent] = []
    script = list(env_moves)
    # the root game's position after theta; None after an illegal machine move
    position: ResidualState | None = ResidualState(conclusion)

    def play(*moves: LabMove) -> None:
        nonlocal position
        for m in moves:
            theta.append(m)
            position = position and advance(position, interp, m)

    def snapshot() -> MachineState:
        # the valuation record mirrors exactly the free variables in play
        assert set(valuation) == current.formula.free_variables
        return MachineState(current.formula, tuple(omega), tuple(sorted(valuation.items())))

    def record(loop: str, case: str, state: MachineState, before: Run, new: list[LabMove]) -> None:
        events.append(PlayEvent(loop, case, state, before, tuple(new)))

    def finish(verdict: str, reason: str = "") -> PlayTranscript:
        return PlayTranscript(tuple(theta), events, verdict, reason)

    steps_taken = 0
    while True:
        steps_taken += 1
        if steps_taken > max_steps:
            break
        state = snapshot()
        theta_before = tuple(theta)
        tag = current.rule.tag

        if tag == "B1":
            addr, i = current.rule.addr, current.rule.index
            move = LabMove(TOP_PLAYER, f"{addr_str(addr)}{i}")
            play(move)
            premise = proof.step(current.premises[0])
            _restrict(valuation, premise.formula)
            current = premise
            record("main", "B1", state, theta_before, [move])
            continue

        if tag == "B2":
            addr, t = current.rule.addr, current.rule.term
            c = t.value if isinstance(t, Const) else valuation.get(t.name, 0)
            move = LabMove(TOP_PLAYER, f"{addr_str(addr)}{c}")
            play(move)
            premise = proof.step(current.premises[0])
            if isinstance(t, Var) and t.name in premise.formula.free_variables:
                valuation[t.name] = c
            current = premise
            record("main", "B2", state, theta_before, [move])
            continue

        if tag == "Co":
            premise = proof.step(current.premises[0])
            pos, neg = _hybrid_pair(premise.formula, current.rule.hybrid)
            pi, nu = pos.address, neg.address
            omega_run = tuple(omega)
            pi_payloads = [m.move for m in project(omega_run, pi, "raw")]
            nu_payloads = [m.move for m in project(omega_run, nu, "raw")]
            new_moves = [
                LabMove(TOP_PLAYER, f"{addr_str(pi)}{payload}") for payload in nu_payloads
            ] + [
                LabMove(TOP_PLAYER, f"{addr_str(nu)}{payload}") for payload in pi_payloads
            ]
            play(*new_moves)
            omega.extend(new_moves)
            current = premise
            record("main", "Co", state, theta_before, new_moves)
            continue

        if tag != "A":
            return finish(ABORTED, f"step {current.id} has unsupported rule {tag}")

        # Rule A: wait for the environment.
        if not script:
            break
        entry = script.pop(0)
        if entry == "pass":
            record("inner", "pass", state, theta_before, [])
            break
        env_move = LabMove(BOT_PLAYER, entry)
        after = position and advance(position, interp, env_move)
        if after is None:
            theta.append(env_move)
            record("inner", "env-illegal", state, theta_before, [env_move])
            return finish(ENVIRONMENT_ILLEGAL, f"environment move {entry!r} is illegal")
        # the proof's formula has the surface of its grounded form
        parsed = parse_move(current.formula, entry)
        if parsed is None:
            theta.append(env_move)
            record("inner", "env-illegal", state, theta_before, [env_move])
            return finish(ENVIRONMENT_ILLEGAL, f"environment move {entry!r} does not resolve")
        position = after
        occ, payload = parsed
        qa = occ.quasiatom

        if isinstance(qa, Atom) and qa.letter.kind == "general":
            theta.append(env_move)
            omega.append(env_move)
            record("inner", "env-general", state, theta_before, [env_move])
            continue

        if isinstance(qa, Atom) and qa.letter.kind == "hybrid":
            pos, neg = _hybrid_pair(current.formula, qa.letter.name)
            sigma = neg.address if occ.address == pos.address else pos.address
            reply = LabMove(TOP_PLAYER, f"{addr_str(sigma)}{payload}")
            theta.append(env_move)
            play(reply)
            omega.append(env_move)
            omega.append(reply)
            record("inner", "env-hybrid", state, theta_before, [env_move, reply])
            continue

        if is_choice(qa):
            if env_move.player != choice_mover(qa, occ.polarity):
                theta.append(env_move)
                return finish(ENVIRONMENT_ILLEGAL, f"move {entry!r} at a machine choice")
            # the required premises for this occurrence, read off the proof's formula
            required = [
                r for r in rule_a_premises(current.formula) if r.occurrence.address == occ.address
            ]
            req = required[int(payload) - 1 if qa.bound_var is None else 0]
            premises = [proof.step(pid) for pid in current.premises]
            found = match_a_premise(current.formula, req, [p.formula for p in premises])
            if found is None:
                return finish(
                    ABORTED, f"no premise of step {current.id} matches {pretty(req.formula)}"
                )
            premise, y = premises[found[0]], found[1]
            theta.append(env_move)
            if y is None:
                _restrict(valuation, premise.formula)
            elif y in premise.formula.free_variables:
                valuation[y] = int(payload)
            current = premise
            case = "env-choice" if y is None else "env-choice-const"
            record("inner", case, state, theta_before, [env_move])
            continue

        theta.append(env_move)
        return finish(ENVIRONMENT_ILLEGAL, f"move {entry!r} fits no subcase")

    record("main", "final", snapshot(), tuple(theta), [])
    won = winner(conclusion, interp, tuple(theta)) == TOP_PLAYER
    return finish(MACHINE_WINS if won else MACHINE_LOSES)


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
    (each script implicitly ends with a pass).  The proof is checked once.

    Scripts are grown move by move: after replaying a prefix, every legal
    environment continuation at the reached position branches."""
    result = check_proof(proof, budget)
    if not result:
        raise StrategyError(f"proof fails at step {result.step_id}: {result.message}")
    root = proof.conclusion
    out: list[tuple[list[str], PlayTranscript]] = []

    def explore(prefix: list[str]) -> None:
        transcript = extract_and_play(
            proof, interp, prefix + ["pass"], check=False, budget=budget
        )
        out.append((prefix + ["pass"], transcript))
        if len(prefix) >= max_env_moves:
            return
        if transcript.verdict in (ENVIRONMENT_ILLEGAL, ABORTED):
            return
        for move in legal_moves(root, interp, transcript.final_run, BOT_PLAYER):
            explore(prefix + [move])

    explore([])
    return out
