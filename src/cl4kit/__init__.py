"""cl4kit: a toolkit for the logic CL4.

Parse formulas and hyperformulas, decide provability of the blind-free
fragment with proof objects, check and transform proofs, compile proofs
into interactive strategies, evaluate game runs over finite constant
games, and perform the molecule translation.
"""

__version__ = "0.1.0"

from .classical import Budget, Verdict, elementarize, fo_validity, is_stable, tautology_qf
from .calculus import (
    CL4,
    CL4O,
    Proof,
    ProofStep,
    RuleApplication,
    check_proof,
    check_step,
    make_reasonable,
    premises_A,
    proof_from_json,
    proof_to_json,
    to_cl4o,
)
from .decide import Decision, decide_blindfree, decide_extended
from .games import (
    GeneralDef,
    Interpretation,
    LabMove,
    ResidualState,
    advance,
    is_manageable,
    is_top_delay,
    is_unilegal,
    negate_run,
    project,
    residual,
    winner,
)
from .strategy import PlayTranscript, assert_claim1, extract_and_play
from .syntax import (
    Formula,
    ParseError,
    aggregate_complexity,
    general_dehybridization,
    is_reasonable,
    parse,
    pretty,
    substitute,
    surface_occurrences,
)
from .translate import MoleculeSignature, floorify, is_good, lift, signature_for
