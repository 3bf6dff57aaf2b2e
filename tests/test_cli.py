import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cl4kit.calculus import make_reasonable, proof_to_json, to_cl4o
from cl4kit.cli import main
from cl4kit.decide import decide_blindfree
from cl4kit.syntax import parse, pretty
from cl4kit.translate import lift, signature_for


def _signature(edits=(), arity=0):
    """A molecule signature document for P with m = 2, its names edited:
    each (key, name) of edits sets the key's name, or drops the key when
    the name is None."""
    names = {"1,1": "p_1_1", "1,2": "p_1_2", "2,1": "p_2_1", "2,2": "p_2_2"}
    names.update(edits)
    names = {key: name for key, name in names.items() if name is not None}
    return {"m": 2, "letters": {"P": {"arity": arity, "names": names}}}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecide:
    def test_provable_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "P \\/ ~P")
        assert code == 0 and "provable" in out

    def test_unprovable_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "P !\\/ ~P")
        assert code == 1 and "unprovable" in out

    def test_syntax_error_exit_three(self, capsys):
        code, _, err = run_cli(capsys, "decide", "P ->")
        assert code == 3 and "syntax error" in err

    def test_non_ascii_letter_exit_three(self, capsys):
        code, _, err = run_cli(capsys, "decide", "P \\/ é")
        assert code == 3 and "unexpected character 'é' (line 1, column 6)" in err

    def test_blind_input_needs_extended(self, capsys):
        code, _, err = run_cli(capsys, "decide", "(A x. P(x)) -> !A x. P(x)")
        assert code == 3
        code, out, _ = run_cli(
            capsys, "decide", "(A x. P(x)) -> !A x. P(x)", "--extended"
        )
        assert code == 0

    @pytest.mark.parametrize(
        "text", ["(" * 150 + "P" + ")" * 150, "~" * 1000 + "P"], ids=["parens", "negations"]
    )
    def test_deep_input_exit_three(self, capsys, text):
        code, _, err = run_cli(capsys, "decide", text)
        assert code == 3
        assert "nested too deeply" in err and "Traceback" not in err

    def test_wide_input_is_decided(self, capsys):
        text = " \\/ ".join(f"(a{i} /\\ b{i})" for i in range(1200))
        code, out, err = run_cli(capsys, "decide", text)
        assert code == 1 and "unprovable" in out
        assert err == ""

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "P \\/ ~P", "--json")
        doc = json.loads(out)
        assert doc["status"] == "provable"

    def test_emitted_proof_passes_check(self, capsys, tmp_path):
        proof_path = tmp_path / "proof.json"
        code, _, _ = run_cli(
            capsys, "decide", "P \\/ ~P", "--emit-proof", str(proof_path)
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "check", "--proof", str(proof_path))
        assert code == 0 and "ok" in out


class TestCheck:
    def test_tampered_proof_fails_with_step(self, capsys, tmp_path):
        proof_path = tmp_path / "proof.json"
        run_cli(capsys, "decide", "P \\/ ~P", "--emit-proof", str(proof_path))
        doc = json.loads(proof_path.read_text())
        doc["steps"][0]["formula"] = "a \\/ ~b"
        proof_path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "check", "--proof", str(proof_path), "--json")
        assert code == 1
        assert json.loads(out)["ok"] is False



class TestMalformedInput:
    @pytest.mark.parametrize(
        "argv, document",
        [
            (["check", "--proof", "{doc}"], []),
            (["eval-run", "--formula", "P", "--moves", "[1]"], None),
            (["eval-run", "--formula", "P", "--interp", "{doc}"], {"universe": "2"}),
            (["translate", "floor", "P", "--signature", "{doc}"], []),
            (
                ["check", "--proof", "{doc}"],
                {
                    "system": "CL4",
                    "steps": [
                        {"id": 1, "formula": "q \\/ ~q", "rule": "A"},
                        {
                            "id": 2,
                            "formula": "(q \\/ ~q) !\\/ q",
                            "rule": "B1",
                            "premises": [1],
                            "params": {"addr": "", "index": "1"},
                        },
                    ],
                },
            ),
        ],
        ids=["proof", "moves", "interp-universe", "signature", "proof-index"],
    )
    def test_malformed_json_exit_three(self, capsys, tmp_path, argv, document):
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(document))
        code, _, err = run_cli(capsys, *(a.replace("{doc}", str(doc_path)) for a in argv))
        assert code == 3
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, document, message",
        [
            (
                ["eval-run", "--formula", "p", "--interp", "{doc}"],
                {"elementary": {"p": "false"}},
                "elementary atom 'p' must be true or false: 'false'",
            ),
            (
                ["eval-run", "--formula", "p", "--interp", "{doc}"],
                {"elementary": {"p": 0}},
                "elementary atom 'p' must be true or false: 0",
            ),
            (
                ["eval-run", "--formula", "P", "--interp", "{doc}"],
                {"general": {"P": {"params": "xy", "body": "p(x, y)"}}},
                "general letter 'P': params must be a list of strings",
            ),
            (
                ["eval-run", "--formula", "P", "--interp", "{doc}"],
                {"general": {"P": {"params": [1], "body": "p"}}},
                "general letter 'P': params must be a list of strings",
            ),
            (
                ["translate", "floor", "p_1_1 !\\/ p_1_2", "--signature", "{doc}"],
                {
                    "m": 2,
                    "letters": {
                        "P": {"arity": 0, "names": {"1,1": "p_1_1", "2,1": "p_2_1", "2,2": "p_2_2"}}
                    },
                },
                "malformed molecule signature: no name for P 1,2",
            ),
            (
                ["translate", "floor", "a", "--signature", "{doc}"],
                {"m": 10**9, "letters": {"P": {"arity": 0, "names": {"1,1": "a"}}}},
                "malformed molecule signature: no name for P 1,2",
            ),
            *(
                (
                    ["translate", "floor", "(a !\\/ b) !/\\ (c !\\/ d)", "--signature", "{doc}"],
                    {
                        "m": 2,
                        "letters": {
                            letter: {
                                "arity": 0,
                                "names": {"1,1": "a", "1,2": "b", "2,1": "c", "2,2": "d"},
                            }
                        },
                    },
                    f"malformed molecule signature: letter {letter!r} must be a general letter",
                )
                for letter in ("q", "x", "P#r", "T", "F", "", "P Q")
            ),
            *(
                (
                    ["translate", "floor", "p_1_1 !\\/ p_1_2", "--signature", "{doc}"],
                    _signature(edits, arity),
                    f"malformed molecule signature: {message}",
                )
                for edits, arity, message in [
                    ([("1,1", 5)], 0, "name for P 1,1 must be an elementary letter, not 5"),
                    ([("1,2", "P")], 0, "name for P 1,2 must be an elementary letter, not 'P'"),
                    ([("2,1", "x1")], 0, "name for P 2,1 must be an elementary letter, not 'x1'"),
                    ([("2,2", "p_1_1")], 0, "P 1,1 and P 2,2 share the name p_1_1"),
                    (
                        [("1,2", None), ("1,2,3", "p_1_2")],
                        0,
                        "key '1,2,3' of P must be two positive integers a,b",
                    ),
                    (
                        [("1,2", None), ("1,x", "p_1_2")],
                        0,
                        "key '1,x' of P must be two positive integers a,b",
                    ),
                    (
                        [("1,1", None), ("0,1", "p_1_1")],
                        0,
                        "key '0,1' of P must be two positive integers a,b",
                    ),
                    ([], -1, "arity of P must be a non-negative integer, not -1"),
                    ([], True, "arity of P must be a non-negative integer, not True"),
                ]
            ),
        ],
        ids=[
            "interp-string-truth", "interp-number-truth", "interp-params-string",
            "interp-params-number", "signature-missing-name", "signature-huge-m",
            "signature-elementary-letter", "signature-variable-letter",
            "signature-hybrid-letter", "signature-true-letter", "signature-false-letter",
            "signature-empty-letter", "signature-spaced-letter",
            "signature-number-name", "signature-general-name", "signature-variable-name",
            "signature-shared-name", "signature-long-key", "signature-letter-key",
            "signature-zero-key", "signature-negative-arity", "signature-boolean-arity",
        ],
    )
    def test_rejected_document_is_named(self, capsys, tmp_path, argv, document, message):
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(document))
        code, _, err = run_cli(capsys, *(a.replace("{doc}", str(doc_path)) for a in argv))
        assert (code, err.strip()) == (3, f"error: {message}")

    # every JSON document the CLI reads, each holding an integer past int()'s
    # digit limit; {doc} is the document's path, {huge} the integer
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--proof", "{doc}"],
            ["eval-run", "--formula", "p", "--interp", "{doc}"],
            ["eval-run", "--formula", "p", "--run", "{doc}"],
            ["eval-run", "--formula", "p", "--moves", "[{huge}]"],
            ["manageable", "--formula", "P", "--run", "{doc}"],
            ["delay", "--candidate", "{doc}", "--of", "{empty}"],
            ["delay", "--candidate", "{empty}", "--of", "{doc}"],
            ["translate", "floor", "p", "--signature", "{doc}"],
            ["play", "--proof", "{doc}", "--interp", "{empty}", "--env", "{empty}"],
            ["play", "--proof", "{proof}", "--interp", "{doc}", "--env", "{empty}"],
            ["play", "--proof", "{proof}", "--interp", "{interp}", "--env", "{doc}"],
        ],
        ids=[
            "proof", "interp", "run", "moves", "manageable-run", "delay-candidate",
            "delay-of", "signature", "play-proof", "play-interp", "play-env",
        ],
    )
    def test_overlong_json_integer_exit_three(self, capsys, tmp_path, argv):
        huge = "1" + "0" * 5000
        paths = {name: tmp_path / f"{name}.json" for name in ("doc", "empty", "proof", "interp")}
        paths["doc"].write_text(f"[{huge}]")
        paths["empty"].write_text("[]")
        paths["interp"].write_text('{"universe": 1}')
        run_cli(capsys, "prove", "P -> P", "--reasonable", "--emit-proof", str(paths["proof"]))
        names = {key: str(path) for key, path in paths.items()}
        code, _, err = run_cli(capsys, *(a.format(huge=huge, **names) for a in argv))
        assert code == 3
        document = "--moves" if "--moves" in argv else names["doc"]
        assert err.startswith(f"error: {document}: the integer 10000000...00000000 has 5001 digits")
        assert "set_int_max_str_digits" not in err

    def test_key_error_is_not_quoted(self, capsys):
        code, _, err = run_cli(capsys, "eval-run", "--formula", "P")
        assert code == 3
        assert err.strip() == "error: general letter P has no interpretation"


def _proof_with_param(key: str, value: str) -> str:
    """A CL4 proof document whose B2 step has params[key] = value."""
    doc = proof_to_json(decide_blindfree(parse("!A x. !E y. (Q(x) -> Q(y))")).proof)
    next(s for s in doc["steps"] if s["rule"] == "B2")["params"][key] = value
    return json.dumps(doc)


class TestOverlongIntegerInString:
    """An integer past int()'s digit limit written inside a string exits 3
    with a message naming the number, not Python's advice; {huge} stands
    for the integer and {doc} for the document's path."""

    @pytest.mark.parametrize(
        "argv, document",
        [
            (["decide", "p({huge})"], None),
            (
                ["eval-run", "--formula", "p", "--interp", "{doc}"],
                '{"universe": 2, "elementary": {"l1({huge})": true}}',
            ),
            (
                ["eval-run", "--formula", "P", "--interp", "{doc}"],
                '{"universe": 2, "general": {"P": {"params": [], "body": "q({huge})"}}}',
            ),
            (
                ["translate", "floor", "P", "--signature", "{doc}"],
                '{"m": 2, "letters": {"P": {"arity": 0, "names": {"1,{huge}": "a"}}}}',
            ),
            (["check", "--proof", "{doc}"], _proof_with_param("term", "{huge}")),
            (["check", "--proof", "{doc}"], _proof_with_param("addr", "{huge}.")),
        ],
        ids=["formula", "interp-key", "interp-body", "signature-key", "proof-term", "proof-addr"],
    )
    def test_exit_three(self, capsys, tmp_path, argv, document):
        huge = "1" + "0" * 5000
        path = tmp_path / "doc.json"
        if document is not None:
            path.write_text(document.replace("{huge}", huge))
        argv = [a.replace("{huge}", huge).replace("{doc}", str(path)) for a in argv]
        code, _, err = run_cli(capsys, *argv)
        assert code == 3
        assert "the integer 10000000...00000000 has 5001 digits" in err
        assert "set_int_max_str_digits" not in err and "Traceback" not in err

    def test_superscript_digit_is_a_syntax_error(self, capsys):
        code, _, err = run_cli(capsys, "decide", "p(\u00b2)")
        assert code == 3 and err.startswith("syntax error: unexpected character")


class TestUsageErrors:
    """Usage errors exit 3, as every input error does; 2 means unknown."""

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["decide"],
            ["eval-run", "--formula", "p", "--universe", "12x"],
        ],
        ids=["no-command", "no-formula", "bad-universe"],
    )
    def test_exit_three(self, capsys, argv):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["decide", "--help"]])
    def test_help_and_version_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 0


class TestBudgetOption:
    def test_only_where_read(self, capsys):
        code, _, _ = run_cli(capsys, "elementarize", "p \\/ ~p", "--stability", "--budget", "3")
        assert code == 0
        with pytest.raises(SystemExit) as exited:
            main(["translate", "lift", "P", "--budget", "3"])
        assert exited.value.code == 3
        assert "unrecognized arguments: --budget 3" in capsys.readouterr().err


class TestElementarize:
    def test_plain(self, capsys):
        code, out, _ = run_cli(capsys, "elementarize", "P \\/ ~P")
        assert code == 0 and out.strip() == "F \\/ ~T"

    def test_stability_exit_codes(self, capsys):
        code, _, _ = run_cli(capsys, "elementarize", "p -> p", "--stability")
        assert code == 0
        code, _, _ = run_cli(capsys, "elementarize", "P \\/ ~P", "--stability")
        assert code == 1


class TestTranslate:
    def test_lift_then_floor_round_trip(self, capsys, tmp_path):
        sig_path = tmp_path / "sig.json"
        code, out, _ = run_cli(
            capsys,
            "translate",
            "lift",
            "P -> P",
            "--signature-out",
            str(sig_path),
        )
        assert code == 0
        lifted = out.strip()
        code, out, _ = run_cli(
            capsys, "translate", "floor", lifted, "--signature", str(sig_path)
        )
        assert code == 0 and out.strip() == "P -> P"


class TestPlay:
    @pytest.fixture
    def artifacts(self, capsys, tmp_path):
        proof = tmp_path / "proof.json"
        code, _, _ = run_cli(
            capsys,
            "prove",
            "P -> P",
            "--reasonable",
            "--emit-proof",
            str(proof),
        )
        assert code == 0
        interp = tmp_path / "interp.json"
        interp.write_text(
            json.dumps(
                {
                    "universe": 1,
                    "elementary": {"l1": True},
                    "general": {"P": {"params": [], "body": "l1 !\\/ l2"}},
                }
            )
        )
        env = tmp_path / "env.json"
        env.write_text(json.dumps(["1.1", "pass"]))
        return proof, interp, env

    def test_play_wins(self, capsys, artifacts):
        proof, interp, env = artifacts
        code, out, _ = run_cli(
            capsys,
            "play",
            "--proof",
            str(proof),
            "--interp",
            str(interp),
            "--env",
            str(env),
            "--check-invariants",
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "machine-wins"
        assert doc["invariants"] == "ok"
        assert [m["move"] for m in doc["run"]] == ["1.1", "2.1"]

    def test_cl4_proof_is_converted(self, capsys, tmp_path, artifacts):
        _, interp, env = artifacts
        proof = tmp_path / "cl4.json"
        code, _, _ = run_cli(capsys, "decide", "P -> P", "--emit-proof", str(proof))
        assert code == 0 and json.loads(proof.read_text())["system"] == "CL4"
        code, out, err = run_cli(
            capsys, "play", "--proof", str(proof), "--interp", str(interp),
            "--env", str(env), "--check-invariants",
        )
        assert code == 0, err
        assert "verdict: machine-wins" in out and "invariants: ok" in out

    def test_failing_cl4_proof_exit_three(self, capsys, tmp_path, artifacts):
        _, interp, env = artifacts
        proof = tmp_path / "cl4.json"
        run_cli(capsys, "decide", "P -> P", "--emit-proof", str(proof))
        doc = json.loads(proof.read_text())
        doc["steps"][0]["formula"] = "a -> b"
        proof.write_text(json.dumps(doc))
        code, _, err = run_cli(
            capsys, "play", "--proof", str(proof), "--interp", str(interp), "--env", str(env)
        )
        assert code == 3 and err.startswith("error: ")


class TestEvalRun:
    def test_legal_run_reports_winner(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval-run",
            "--formula",
            "(e1 !/\\ e2) \\/ (e3 !\\/ e4)",
            "--moves",
            '[{"player":"B","move":"1.2"},{"player":"T","move":"2.1"}]',
        )
        assert code == 0 and "winner" in out

    @pytest.mark.parametrize(
        "move", ["1" + "0" * 5000 + ".1", "1." + "1" * 5000], ids=["index", "payload"]
    )
    def test_overlong_number_is_illegal(self, capsys, move):
        code, out, err = run_cli(
            capsys,
            "eval-run",
            "--formula",
            "(e1 !\\/ e2) /\\ (e3 !/\\ e4)",
            "--universe",
            "2",
            "--moves",
            json.dumps([{"player": "T", "move": move}]),
        )
        assert (code, out.strip(), err) == (1, "illegal", "")

    def test_illegal_run_exit_one(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval-run",
            "--formula",
            "e1",
            "--moves",
            '[{"player":"T","move":"1"}]',
        )
        assert code == 1 and "illegal" in out


class TestDelayAndManageable:
    def test_delay(self, capsys, tmp_path):
        d = tmp_path / "d.json"
        g = tmp_path / "g.json"
        d.write_text(json.dumps([{"player": "B", "move": "d"}, {"player": "T", "move": "b"}]))
        g.write_text(json.dumps([{"player": "T", "move": "b"}, {"player": "B", "move": "d"}]))
        code, out, _ = run_cli(capsys, "delay", "--candidate", str(d), "--of", str(g))
        assert code == 0 and out.strip() == "true"
        code, out, _ = run_cli(capsys, "delay", "--candidate", str(g), "--of", str(d))
        assert code == 1 and out.strip() == "false"

    def test_manageable(self, capsys, tmp_path):
        run = tmp_path / "run.json"
        run.write_text(
            json.dumps(
                [
                    {"player": "B", "move": "1.a"},
                    {"player": "B", "move": "2.b"},
                    {"player": "B", "move": "3.1.d"},
                    {"player": "T", "move": "2.d"},
                    {"player": "T", "move": "3.1.b"},
                ]
            )
        )
        code, out, _ = run_cli(
            capsys,
            "manageable",
            "--formula",
            "S \\/ ~P#q \\/ (P#q /\\ (!A x. Q(x)) /\\ (r \\/ ~r))",
            "--run",
            str(run),
        )
        assert code == 0 and out.strip() == "true"


# Arbitrary runs for the game commands: odd player tags, empty moves,
# non-digit, huge and Unicode-digit indices.
_FUZZ_FORMULAS = [
    "(e1 !/\\ e2) \\/ (e3 !\\/ e4)",
    "S \\/ ~P#q \\/ (P#q /\\ (!A x. Q(x)) /\\ (r \\/ ~r))",
    "P -> P",
    "A x. Q(x) \\/ ~Q(1)",
    "!E x. Q(x) -> (e1 !/\\ ~e2)",
]
_FUZZ_INTERP = {
    "universe": 2,
    "elementary": {"e1": True, "l1(0)": True},
    "general": {
        "P": {"params": [], "body": "a1 !\\/ a2"},
        "Q": {"params": ["x"], "body": "l1(x) !/\\ l2(x)"},
        "S": {"params": [], "body": "s1 !/\\ s2"},
    },
}
_FUZZ_TOKENS = ["0", "1", "2", "3", "", "x", "-1", " 1", "99999999999999999999", "9" * 5000,
                "\u0661", "\u0662", "\u00b2", "\uff11"]
_FUZZ_RUNS = st.lists(
    st.fixed_dictionaries(
        {
            "player": st.sampled_from(["T", "B", "T", "B", "X", "", "t", "TB"]),
            "move": st.one_of(
                st.lists(st.sampled_from("0123"), min_size=1, max_size=4).map(".".join),
                st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=5).map(".".join),
                st.text(max_size=8),
            ),
        }
    ),
    max_size=4,
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "interp.json").write_text(json.dumps(_FUZZ_INTERP))
    return d


def _exit_cleanly(*argv, codes=(0, 1, 3)):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as ex:  # a usage error: argparse exits the process
            code = ex.code
    assert code in codes, (argv[:3], code, err.getvalue()[:300])
    assert "Traceback" not in err.getvalue()
    assert "set_int_max_str_digits" not in err.getvalue()


class TestGameCommandsFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.sampled_from(_FUZZ_FORMULAS), _FUZZ_RUNS, st.booleans())
    def test_eval_run(self, fuzz_dir, formula, run, with_interp):
        interp = ["--interp", str(fuzz_dir / "interp.json")] if with_interp else ["--universe", "2"]
        _exit_cleanly("eval-run", "--formula", formula, "--moves", json.dumps(run), *interp)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.sampled_from(_FUZZ_FORMULAS), _FUZZ_RUNS)
    def test_manageable(self, fuzz_dir, formula, run):
        path = fuzz_dir / "run.json"
        path.write_text(json.dumps(run))
        _exit_cleanly("manageable", "--formula", formula, "--run", str(path))


# Proof documents for the proof loader: valid CL4 and CL4o proofs, mangled
# by a few edits each: wrong types, deleted keys, dangling, forward and
# self-referencing premises, bad addresses and terms, and integers past
# int()'s digit limit (spliced into the JSON text as _HUGE).
_FUZZ_PROOFS = [
    proof_to_json(decide_blindfree(parse("(P !\\/ Q) /\\ (P !\\/ S) -> P !\\/ (Q /\\ S)")).proof),
    proof_to_json(decide_blindfree(parse("!A x. !E y. (Q(x) -> Q(y))")).proof),
    proof_to_json(make_reasonable(to_cl4o(decide_blindfree(parse("P -> P")).proof))),
    proof_to_json(make_reasonable(to_cl4o(decide_blindfree(parse("S -> S !/\\ S")).proof))),
]
_HUGE = "1" + "0" * 5000
_STEP_KEYS = ["id", "formula", "rule", "premises", "params"]
_PARAM_KEYS = ["addr", "index", "term", "pos", "neg", "elem", "hybrid"]
_ADDRESSES = st.sampled_from(["", "1.", "2.", "2.1.", "1..", "0.", "x.", "1", "9" * 5000 + "."])
_FUZZ_FIELDS = {
    "system": st.sampled_from(["CL4", "CL4o", "cl4"]),
    "id": st.integers(-1, 12),
    "formula": st.sampled_from(
        sorted({s["formula"] for d in _FUZZ_PROOFS for s in d["steps"]}) + ["((", "P#q \\/ ~P"]
    ),
    "rule": st.sampled_from(["A", "B1", "B2", "C", "Co", "D"]),
    "premises": st.lists(st.integers(-1, 12), max_size=3),
    "params": st.dictionaries(st.sampled_from(_PARAM_KEYS), st.sampled_from(["1.", "p", 1])),
    "addr": _ADDRESSES,
    "pos": _ADDRESSES,
    "neg": _ADDRESSES,
    "index": st.integers(-1, 4),
    "term": st.sampled_from(["0", "1", "x", "y", "z", "-1", "y z", "\u00b2", "\u0661", "9" * 5000]),
    "elem": st.sampled_from(["p", "q", "P", "T", "x", "P#p"]),
    "hybrid": st.sampled_from(["P#p", "P#q", "S#p", "P", "p"]),
}
_WRONG_TYPES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.just(10**30),
    st.just("<huge>"),
    st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from(["id", "steps"]), st.integers(0, 3), max_size=2),
)


def _fuzz_value(key: str):
    return st.one_of(_FUZZ_FIELDS[key], _WRONG_TYPES)


@st.composite
def _mangled_proofs(draw):
    doc = copy.deepcopy(draw(st.sampled_from(_FUZZ_PROOFS)))
    for _ in range(draw(st.integers(0, 2))):
        steps = doc["steps"] if isinstance(doc["steps"], list) else []
        steps = [s for s in steps if isinstance(s, dict)]
        edit = draw(st.sampled_from(["top", "set", "set", "delete", "param", "param", "premises"]))
        if edit == "top" or not steps:
            key = draw(st.sampled_from(["system", "steps"]))
            doc[key] = draw(_fuzz_value("system") if key == "system" else _WRONG_TYPES)
            continue
        step = draw(st.sampled_from(steps))
        key = draw(st.sampled_from(_STEP_KEYS))
        if edit == "set":
            step[key] = draw(_fuzz_value(key))
        elif edit == "delete":
            step.pop(key, None)
        elif edit == "param" and isinstance(step.get("params"), dict):
            key = draw(st.sampled_from(_PARAM_KEYS))
            step["params"][key] = draw(_fuzz_value(key))
        elif edit == "premises" and type(step.get("id")) is int:
            target = draw(st.sampled_from([0, 1, 99]))  # self, forward, dangling
            step["premises"] = [step["id"] + target]
    return json.dumps(doc).replace('"<huge>"', _HUGE)


class TestProofLoaderFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_mangled_proofs(), st.booleans())
    def test_check(self, fuzz_dir, document, as_json):
        path = fuzz_dir / "proof.json"
        path.write_text(document)
        _exit_cleanly("check", "--proof", str(path), *(["--json"] if as_json else []))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_mangled_proofs(), st.sampled_from([["1.1", "pass"], ["1.2"], ["2.0", "1.1.1"], []]))
    def test_play(self, fuzz_dir, document, env):
        path, env_path = fuzz_dir / "proof.json", fuzz_dir / "env.json"
        path.write_text(document)
        env_path.write_text(json.dumps(env))
        _exit_cleanly(
            "play", "--proof", str(path), "--interp", str(fuzz_dir / "interp.json"),
            "--env", str(env_path), "--check-invariants", codes=(0, 1, 2, 3),
        )


class TestJsonRoundTrips:
    def test_prove_json_is_checkable(self, capsys):
        from cl4kit.calculus import check_proof, proof_from_json

        code, out, _ = run_cli(capsys, "prove", "P /\\ P -> P", "--json")
        assert code == 0
        proof = proof_from_json(json.loads(out))
        assert check_proof(proof).ok


# The remaining loaders: molecule signatures for translate floor, and the
# interpretation and environment script of play, with integers of every
# shape (over-long ones included) written inside keys, formulas and moves.
_NUMBER_TOKENS = ["0", "1", "2", "-1", " 1", "", "x", "1_0", "\u0661", "\u00b2", _HUGE, "9" * 5000]
_NUMBER_LISTS = st.lists(st.sampled_from(_NUMBER_TOKENS), min_size=1, max_size=3).map(",".join)
_QUANTIFIED = parse("!A x. (P(x) -> P(x))")
_SIGNATURE = signature_for(_QUANTIFIED).to_json()
_FLOOR_FORMULAS = [
    pretty(lift(_QUANTIFIED, signature_for(_QUANTIFIED))),
    "P(1) -> P(1)",
    f"p_1_1({_HUGE}) !\\/ p_1_2(0)",
    f"!A x. p_2_1(x) -> P({_HUGE})",
]


@st.composite
def _signatures(draw):
    doc = copy.deepcopy(_SIGNATURE)
    letter = doc["letters"]["P"]
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["key", "key", "name", "arity", "m", "letters"]))
        if edit == "key":
            key = draw(st.sampled_from(sorted(letter["names"])))
            letter["names"][draw(_NUMBER_LISTS)] = letter["names"].pop(key)
        elif edit == "name":
            key = draw(st.sampled_from(sorted(letter["names"])))
            letter["names"][key] = draw(st.one_of(st.sampled_from(["p", "P", "x"]), _WRONG_TYPES))
        elif edit == "arity":
            letter["arity"] = draw(_WRONG_TYPES)
        else:
            doc[edit] = draw(_WRONG_TYPES)
    return json.dumps(doc).replace('"<huge>"', _HUGE)


_PLAY_PROOF = proof_to_json(
    make_reasonable(to_cl4o(decide_blindfree(parse("!A x. !E y. (P(x) -> P(y))")).proof))
)
_ATOM_KEYS = st.one_of(
    st.sampled_from(["l1", "e1", "l1()", "L1(0)", "l1(0"]), _NUMBER_LISTS.map("l1({})".format)
)
_BODIES = st.sampled_from(
    ["l1(x) !\\/ l2(x)", f"l1({_HUGE}) !\\/ l2(x)", f"l1(x) !/\\ l2({_HUGE})", "l1(y)", "(("]
)


@st.composite
def _interpretations(draw):
    doc = {
        "universe": draw(st.one_of(st.integers(1, 3), _WRONG_TYPES)),
        "elementary": draw(st.dictionaries(_ATOM_KEYS, st.booleans(), max_size=3)),
        "general": {
            "P": {
                "params": draw(st.sampled_from([["x"], [], ["x", "y"], ["x", "x"], "x"])),
                "body": draw(_BODIES),
            }
        },
    }
    return json.dumps(doc).replace('"<huge>"', _HUGE)


_ENV_MOVES = st.one_of(
    st.lists(st.sampled_from(["0", "1", "2", "3", _HUGE]), min_size=1, max_size=3).map(".".join),
    st.sampled_from(["pass", "", "1.", f"{_HUGE}.1"]),
)
_ENVIRONMENTS = st.one_of(st.lists(_ENV_MOVES, max_size=4), _WRONG_TYPES).map(json.dumps)


class TestLoaderFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_signatures(), st.sampled_from(_FLOOR_FORMULAS))
    def test_translate_floor(self, fuzz_dir, document, formula):
        path = fuzz_dir / "signature.json"
        path.write_text(document)
        _exit_cleanly("translate", "floor", formula, "--signature", str(path))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_interpretations(), _ENVIRONMENTS)
    def test_play(self, fuzz_dir, interp, env):
        paths = {name: fuzz_dir / f"play-{name}.json" for name in ("proof", "interp", "env")}
        paths["proof"].write_text(json.dumps(_PLAY_PROOF))
        paths["interp"].write_text(interp)
        paths["env"].write_text(env)
        _exit_cleanly(
            "play", *(f"--{name}={path}" for name, path in paths.items()),
            "--check-invariants", codes=(0, 1, 2, 3),
        )


# The formula subcommands, on formula text built from the language's tokens
# (nesting at and past parse's limit, over-long numbers included) and on
# every option they read, and delay on arbitrary run documents.
_TEXT_TOKENS = [
    "P", "Q", "p", "q(x)", "P(0)", "T", "F", "x", "A x.", "E y.", "!A x.", "!E y.", "P#q",
    "(", ")", ",", "~", "/\\", "\\/", "->", "!/\\", "!\\/", "¬", "⊓", "⊔", "∀", "#", "²",
    "é", "Ω", "ª", f"p({_HUGE})",
]
_FORMULA_TEXTS = st.one_of(
    st.sampled_from(_FUZZ_FORMULAS + ["P \\/ ~P", "!A x. !E y. (P(x) -> P(y))", "p !\\/ ~p"]),
    st.lists(st.sampled_from(_TEXT_TOKENS), max_size=12).map(" ".join),
    st.tuples(st.sampled_from(["~", "(", "!E x. "]), st.sampled_from([100, 101])).map(
        lambda t: t[0] * t[1] + "P" + (")" * t[1] if t[0] == "(" else "")
    ),
)
_BUDGETS = st.one_of(st.just([]), st.sampled_from(["0", "1", "-1", "3", "x", _HUGE]).map(
    lambda n: ["--budget", n]
))


def _flags(*names):
    return st.lists(st.sampled_from(names), unique=True)


class TestFormulaCommandsFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_FORMULA_TEXTS, _flags("--extended", "--json", "--trace"), _BUDGETS)
    def test_decide(self, formula, flags, budget):
        _exit_cleanly("decide", formula, *flags, *budget, codes=(0, 1, 2, 3))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_FORMULA_TEXTS, _flags("--extended", "--json", "--reasonable"), _BUDGETS)
    def test_prove(self, formula, flags, budget):
        _exit_cleanly("prove", formula, *flags, *budget, codes=(0, 1, 2, 3))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_FORMULA_TEXTS, _flags("--stability", "--json"), _BUDGETS)
    def test_elementarize(self, formula, flags, budget):
        _exit_cleanly("elementarize", formula, *flags, *budget, codes=(0, 1, 2, 3))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.one_of(_FUZZ_RUNS.map(json.dumps), _ENVIRONMENTS), _FUZZ_RUNS.map(json.dumps))
    def test_delay(self, fuzz_dir, candidate, of):
        paths = fuzz_dir / "candidate.json", fuzz_dir / "of.json"
        paths[0].write_text(candidate)
        paths[1].write_text(of)
        _exit_cleanly("delay", "--candidate", str(paths[0]), "--of", str(paths[1]))
