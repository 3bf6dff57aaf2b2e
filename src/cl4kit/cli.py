"""Command-line surface.

Exit codes: 0 provable / legal / true, 1 unprovable / illegal / false,
2 unknown (or an aborted play), 3 input or validation error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .calculus import (
    CL4,
    check_proof,
    load_proof,
    make_reasonable,
    proof_to_json,
    save_proof,
    to_cl4o,
)
from .classical import Budget, elementarize, is_stable
from .decide import decide_blindfree, decide_extended
from .games import (
    Interpretation,
    is_manageable,
    is_top_delay,
    is_unilegal,
    load_interpretation,
    load_run,
    read_json,
    run_from_json,
    winner,
)
from .strategy import assert_claim1, extract_and_play
from .syntax import ParseError, parse, pretty
from .translate import MoleculeSignature, floorify, is_good, lift, signature_for

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3


def _budget(args) -> Budget:
    if args.budget is not None:
        return Budget(depth=args.budget)
    return Budget()


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print(text)


def _cmd_decide(args) -> int:
    f = parse(args.formula)
    trace: list[str] | None = [] if args.trace else None
    if args.extended:
        decision = decide_extended(f, _budget(args), trace=trace)
    else:
        decision = decide_blindfree(f, trace=trace)
    payload = {"formula": pretty(f), "status": decision.status}
    if decision.reason:
        payload["reason"] = decision.reason
    if decision.proof is not None and args.emit_proof:
        save_proof(decision.proof, args.emit_proof)
        payload["proof"] = args.emit_proof
    if trace is not None:
        payload["trace"] = trace
        if not args.json:
            print("\n".join(trace), file=sys.stderr)
    _emit(args, payload, decision.status)
    return {"provable": EXIT_YES, "unprovable": EXIT_NO, "unknown": EXIT_UNKNOWN}[
        decision.status
    ]


def _cmd_prove(args) -> int:
    f = parse(args.formula)
    decision = (
        decide_extended(f, _budget(args)) if args.extended else decide_blindfree(f)
    )
    if not decision.is_provable:
        _emit(args, {"formula": pretty(f), "status": decision.status}, decision.status)
        return EXIT_NO if decision.status == "unprovable" else EXIT_UNKNOWN
    proof = decision.proof
    if args.reasonable:
        proof = make_reasonable(to_cl4o(proof, _budget(args)), _budget(args))
    if args.emit_proof:
        save_proof(proof, args.emit_proof)
    doc = proof_to_json(proof)
    lines = [
        f"{s['id']}. {s['formula']}   [{s['rule']}"
        + (f" from {','.join(map(str, s['premises']))}" if s["premises"] else "")
        + "]"
        for s in doc["steps"]
    ]
    _emit(args, doc, "\n".join(lines))
    return EXIT_YES


def _cmd_check(args) -> int:
    proof = load_proof(args.proof)
    result = check_proof(proof, _budget(args))
    payload = {"ok": result.ok, "step": result.step_id, "message": result.message}
    text = "ok" if result.ok else f"step {result.step_id}: {result.message}"
    _emit(args, payload, text)
    return EXIT_YES if result.ok else EXIT_NO


def _cmd_elementarize(args) -> int:
    f = parse(args.formula)
    e = elementarize(f)
    payload = {"formula": pretty(f), "elementarization": pretty(e)}
    if args.stability:
        verdict = is_stable(f, _budget(args))
        payload["stable"] = verdict.status
        if verdict.countermodel is not None:
            payload["countermodel"] = verdict.countermodel.to_json()
        _emit(args, payload, f"{pretty(e)}\nstable: {verdict.status}")
        return {"valid": EXIT_YES, "invalid": EXIT_NO, "unknown": EXIT_UNKNOWN}[
            verdict.status
        ]
    _emit(args, payload, pretty(e))
    return EXIT_YES


def _cmd_translate(args) -> int:
    f = parse(args.formula)
    if args.direction == "lift":
        sig = signature_for(f)
        out = lift(f, sig)
        if args.signature_out:
            with open(args.signature_out, "w") as fh:
                json.dump(sig.to_json(), fh, indent=2)
        _emit(
            args,
            {"formula": pretty(f), "lifted": pretty(out), "signature": sig.to_json()},
            pretty(out),
        )
        return EXIT_YES
    if not args.signature:
        print("translate floor requires --signature", file=sys.stderr)
        return EXIT_ERROR
    sig = MoleculeSignature.from_json(read_json(args.signature))
    good = is_good(f, sig)
    out = floorify(f, sig)
    payload = {
        "formula": pretty(f),
        "floored": pretty(out),
        "good": good.ok,
    }
    if not good.ok:
        payload["violation"] = {"cond": good.cond, "detail": good.detail}
    _emit(args, payload, pretty(out))
    return EXIT_YES


def _cmd_play(args) -> int:
    budget = _budget(args)
    proof = load_proof(args.proof)
    if proof.system == CL4:
        # a CL4 proof plays as the reasonable CL4o proof prove --reasonable emits
        proof = make_reasonable(to_cl4o(proof, budget), budget)
    interp = load_interpretation(args.interp)
    env_moves = read_json(args.env)
    if not isinstance(env_moves, list) or not all(isinstance(m, str) for m in env_moves):
        print("environment script must be a JSON list of move strings", file=sys.stderr)
        return EXIT_ERROR
    transcript = extract_and_play(
        proof, interp, env_moves, max_steps=args.max_steps, budget=budget
    )
    payload = transcript.to_json()
    if args.check_invariants:
        claim = assert_claim1(transcript, proof, interp)
        payload["invariants"] = (
            "ok" if claim.ok else f"iteration {claim.iteration}: {claim.which}"
        )
    lines = [f"verdict: {transcript.verdict}"]
    if transcript.reason:
        lines.append(f"reason: {transcript.reason}")
    lines.append("run: " + " ".join(f"{m.player}:{m.move}" for m in transcript.final_run))
    if "invariants" in payload:
        lines.append(f"invariants: {payload['invariants']}")
    _emit(args, payload, "\n".join(lines))
    if transcript.verdict in ("machine-wins", "environment-illegal"):
        return EXIT_YES
    if transcript.verdict == "machine-loses":
        return EXIT_NO
    return EXIT_UNKNOWN


def _cmd_eval_run(args) -> int:
    f = parse(args.formula)
    if args.interp:
        interp = load_interpretation(args.interp)
    else:
        interp = Interpretation(universe=args.universe)
    if args.run:
        run = load_run(args.run)
    else:
        run = run_from_json(read_json("--moves", args.moves or "[]"))
    legal = is_unilegal(f, interp, run)
    payload = {"formula": pretty(f), "legal": legal}
    if legal:
        payload["winner"] = winner(f, interp, run)
        _emit(args, payload, f"legal, winner: {payload['winner']}")
        return EXIT_YES
    _emit(args, payload, "illegal")
    return EXIT_NO


def _cmd_delay(args) -> int:
    ok = is_top_delay(load_run(args.candidate), load_run(args.of))
    _emit(args, {"top_delay": ok}, "true" if ok else "false")
    return EXIT_YES if ok else EXIT_NO


def _cmd_manageable(args) -> int:
    f = parse(args.formula)
    run = load_run(args.run)
    result = is_manageable(f, run)
    payload = {"manageable": result.ok}
    if not result.ok:
        payload["violation"] = {
            "clause": result.clause,
            "address": result.address,
            "detail": result.detail,
        }
        _emit(args, payload, f"false (clause {result.clause} at {result.address or 'e'})")
        return EXIT_NO
    _emit(args, payload, "true")
    return EXIT_YES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cl4kit",
        description="Toolkit for the logic CL4: decide, prove, check, play.",
    )
    parser.add_argument("--version", action="version", version=f"cl4kit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    def budgeted(p):
        common(p)
        p.add_argument("--budget", type=int, default=None, metavar="N",
                       help="classical-checker budget (tableau depth)")

    p = sub.add_parser("decide", help="decide provability")
    p.add_argument("formula")
    p.add_argument("--extended", action="store_true", help="allow blind quantifiers")
    p.add_argument("--emit-proof", metavar="PATH")
    p.add_argument("--trace", action="store_true", help="dump the search tree")
    budgeted(p)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("prove", help="decide and print the proof")
    p.add_argument("formula")
    p.add_argument("--extended", action="store_true")
    p.add_argument("--reasonable", action="store_true",
                   help="emit a reasonable CL4o proof instead of a CL4 proof")
    p.add_argument("--emit-proof", metavar="PATH")
    budgeted(p)
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("check", help="verify a proof file")
    p.add_argument("--proof", required=True, metavar="PATH")
    budgeted(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("elementarize", help="print the elementarization")
    p.add_argument("formula")
    p.add_argument("--stability", action="store_true", help="also decide stability")
    budgeted(p)
    p.set_defaults(func=_cmd_elementarize)

    p = sub.add_parser("translate", help="molecule translation")
    p.add_argument("direction", choices=["lift", "floor"])
    p.add_argument("formula")
    p.add_argument("--signature", metavar="PATH", help="signature file (floor)")
    p.add_argument("--signature-out", metavar="PATH", help="write the signature (lift)")
    common(p)
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("play", help="play a proof against a scripted environment")
    p.add_argument("--proof", required=True, metavar="PATH")
    p.add_argument("--interp", required=True, metavar="PATH")
    p.add_argument("--env", required=True, metavar="PATH")
    p.add_argument("--max-steps", type=int, default=1000)
    p.add_argument("--check-invariants", action="store_true")
    budgeted(p)
    p.set_defaults(func=_cmd_play)

    p = sub.add_parser("eval-run", help="legality and winner of a run")
    p.add_argument("--formula", required=True)
    p.add_argument("--interp", metavar="PATH")
    p.add_argument("--universe", type=int, default=1)
    p.add_argument("--run", metavar="PATH")
    p.add_argument("--moves", metavar="JSON", help="inline run instead of --run")
    common(p)
    p.set_defaults(func=_cmd_eval_run)

    p = sub.add_parser("delay", help="is one run a machine-delay of another")
    p.add_argument("--candidate", required=True, metavar="PATH")
    p.add_argument("--of", required=True, metavar="PATH")
    common(p)
    p.set_defaults(func=_cmd_delay)

    p = sub.add_parser("manageable", help="manageability of a run")
    p.add_argument("--formula", required=True)
    p.add_argument("--run", required=True, metavar="PATH")
    common(p)
    p.set_defaults(func=_cmd_manageable)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as ex:
        print(f"syntax error: {ex}", file=sys.stderr)
        return EXIT_ERROR
    except KeyError as ex:
        print(f"error: {ex.args[0] if ex.args else ex}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
