"""CLI surface: output formats, exit codes, determinism, env-var caps."""

import io
import json
import time

import pytest

from itl.cli import main
from itl.syntax import MAX_NESTING


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_model(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


LASSO_MODEL = {
    "frame": {"kind": "lasso", "worlds": 2, "loop": 1, "reach": [1, 1]},
    "valuations": [{"agent": "V", "letters": {"p": [1]}}],
}

MULTI_MODEL = {
    "frame": {"kind": "lasso", "worlds": 2, "loop": 0, "reach": [1, 1]},
    "valuations": [
        {"agent": "a", "letters": {"p": [0, 1]}},
        {"agent": "b", "letters": {"p": [0]}},
        {"agent": "c", "letters": {"p": []}},
    ],
}


def test_parse_prints_canonical_form(capsys):
    code, out, _ = run(capsys, "parse", "p U q & r")
    assert code == 0
    assert out == "p U q & r\n"


def test_parse_error_exit_code_and_diagnostic(capsys):
    code, out, err = run(capsys, "parse", "p @ q")
    assert code == 1
    assert out == ""
    assert "column 3" in err


def test_usage_error_exit_code(capsys):
    assert run(capsys, "decide", "--formula", "p")[0] == 2  # missing --m
    assert run(capsys, "no-such-command")[0] == 2


def test_decide_emits_verdict_json(capsys):
    code, out, _ = run(capsys, "decide", "--m", "1", "--formula", "G p -> G G p")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "non_theorem"
    assert data["certificate"]["world"] == 0
    assert data["certificate"]["valuations"][0]["letters"]["p"] == [0, 1]


def test_identical_invocations_are_byte_identical(capsys):
    first = run(capsys, "decide", "--m", "2", "--formula", "F F p -> F p")
    second = run(capsys, "decide", "--m", "2", "--formula", "F F p -> F p")
    assert first == second


def test_sat_and_refute(capsys):
    code, out, _ = run(capsys, "sat", "--m", "1", "--formula", "p & !p")
    assert code == 0 and json.loads(out)["verdict"] == "unsatisfiable"
    code, out, _ = run(capsys, "refute", "--rule", "X x / x", "--max-worlds", "2", "--max-reach", "1")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "non_theorem"
    assert data["certificate"]["frame"] == {"kind": "lasso", "worlds": 2, "loop": 1, "reach": [1, 1]}
    code, out, _ = run(capsys, "refute", "--formula", "p -> F p", "--max-worlds", "2", "--max-reach", "2")
    assert json.loads(out)["verdict"] == "inconclusive"
    assert json.loads(out)["caps"] == {"max_worlds": 2, "max_reach": 2}


def test_verify_accepts_emitted_certificates(tmp_path, capsys):
    code, out, _ = run(capsys, "decide", "--m", "1", "--formula", "G p -> G G p")
    verdict_file = tmp_path / "verdict.json"
    verdict_file.write_text(out)
    code, out, _ = run(capsys, "verify", str(verdict_file))
    assert code == 0
    assert json.loads(out) == {"ok": True}


def test_verify_rejects_tampered_certificates(tmp_path, capsys):
    _, out, _ = run(capsys, "decide", "--m", "1", "--formula", "G p -> G G p")
    data = json.loads(out)
    data["certificate"]["valuations"][0]["letters"]["p"] = [0, 1, 2]
    verdict_file = tmp_path / "tampered.json"
    verdict_file.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", str(verdict_file))
    assert code == 1
    assert json.loads(out) == {"ok": False}


def test_eval_command(tmp_path, capsys):
    model = write_model(tmp_path, "model.json", LASSO_MODEL)
    code, out, _ = run(capsys, "eval", "--model", model, "--formula", "X p", "--world", "0")
    assert code == 0
    assert json.loads(out) == {"formula": "X p", "world": 0, "value": True}
    code, out, _ = run(capsys, "eval", "--model", model, "--formula", "p")
    assert json.loads(out)["value"] is False


def test_eval_multi_agent_requires_agent(tmp_path, capsys):
    model = write_model(tmp_path, "multi.json", MULTI_MODEL)
    code, _, err = run(capsys, "eval", "--model", model, "--formula", "p")
    assert code == 1 and "agent" in err
    code, out, _ = run(capsys, "eval", "--model", model, "--formula", "p", "--agent", "a")
    assert code == 0 and json.loads(out)["value"] is True


def test_rnf_command(capsys):
    code, out, _ = run(capsys, "rnf", "--rule", "x / x")
    assert code == 0
    data = json.loads(out)
    assert data["variables"] == 1 and data["disjuncts"] == 2
    assert data["rule"] == "x1 & !X x1 | x1 & X x1 / x1"


def test_rule_valid_command(tmp_path, capsys):
    model = write_model(tmp_path, "model.json", LASSO_MODEL)
    code, out, _ = run(capsys, "rule-valid", "--model", model, "--rule", "X p / p")
    assert code == 0 and json.loads(out)["valid"] is False
    frame = write_model(tmp_path, "frame.json", {"frame": LASSO_MODEL["frame"]})
    code, out, _ = run(capsys, "rule-valid", "--frame", frame, "--rule", "p / p")
    assert code == 0 and json.loads(out)["valid"] is True


def test_admissible_command(capsys):
    code, out, _ = run(capsys, "admissible", "--m", "1", "--rule", "x / false", "--depth", "0")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "refuted"
    assert data["substitution"] == {"x": "true"}
    assert data["certificates"][0]["verdict"] == "non_theorem"
    code, out, _ = run(capsys, "admissible", "--m", "1", "--rule", "X x / x", "--depth", "1")
    assert json.loads(out)["status"] == "no_refutation"


@pytest.mark.parametrize("depth, tuples", [(3, 4593483), (4, 42200181329547)])
def test_admissible_deep_pool_stops_at_the_cap_without_building_it(capsys, depth, tuples):
    start = time.perf_counter()
    code, out, _ = run(capsys, "admissible", "--m", "1", "--rule", "p / X p", "--depth", str(depth))
    assert time.perf_counter() - start < 1.0
    data = json.loads(out)
    assert code == 0 and data["status"] == "no_refutation"
    assert data["cap_note"] == f"{tuples} substitution tuples exceed the cap of 100000"


def test_bound_command(capsys):
    code, out, _ = run(capsys, "bound", "--letters", "2", "--disjuncts", "2")
    assert code == 0 and out == "1552\n"


def test_bound_too_long_to_print_is_refused_before_it_is_built(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "bound", "--letters", "1000", "--disjuncts", "1000")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err == "error: the bound has more than 4300 digits\n"


def test_bound_keeps_the_longest_printable_results(capsys):
    # 2 letters and 420 disjuncts give a bound of exactly 4300 digits; 421 give 4312.
    code, out, err = run(capsys, "bound", "--letters", "2", "--disjuncts", "420")
    assert code == 0 and err == "" and len(out) == 4301
    code, out, err = run(capsys, "bound", "--letters", "2", "--disjuncts", "421")
    assert code == 1 and out == "" and err.startswith("error:") and err.count("\n") == 1


def test_refute_with_an_empty_rule_is_a_parse_error(capsys):
    code, out, err = run(capsys, "refute", "--rule", "", "--max-worlds", "1", "--max-reach", "1")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "'/'" in err


def test_expand_command(capsys):
    code, out, _ = run(capsys, "expand", "--op", "k-past", "--m", "2", "--formula", "p")
    assert code == 0 and out == "p U (X X X !p & X X p)\n"
    code, out, _ = run(capsys, "expand", "--op", "k-since", "--trigger", "q", "--formula", "p")
    assert code == 0 and out == "p U q\n"
    code, _, err = run(capsys, "expand", "--op", "k-since", "--formula", "p")
    assert code == 1 and "trigger" in err
    code, _, err = run(capsys, "expand", "--op", "banana", "--formula", "p")
    assert code == 1 and "unknown operator" in err


@pytest.mark.parametrize(
    "op, k", [("next-iter", "1000"), ("box-iter", "400"), ("next-iter", "200"), ("box-iter", "67")]
)
def test_expand_past_the_height_limit_is_an_error(capsys, op, k):
    code, out, err = run(capsys, "expand", "--op", op, "--k", k, "--formula", "p")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "higher than" in err


def test_expand_at_the_nesting_limit_runs(capsys):
    code, out, err = run(capsys, "expand", "--op", "next-iter", "--k", "100", "--formula", "p")
    assert code == 0 and err == "" and out == "X " * 100 + "p\n"  # MAX_NESTING prefix levels
    code, out, err = run(capsys, "expand", "--op", "box-iter", "--k", "33", "--formula", "p")
    assert code == 0 and err == "" and out.count("true U") == 33  # three levels each: !(true U !...)


@pytest.mark.parametrize(
    "op, k, formula",
    [
        ("next-iter", 100, "p"),
        ("next-iter", 101, "p"),
        ("next-iter", 199, "p"),
        ("box-iter", 33, "p"),
        ("box-iter", 34, "p"),
        ("box-iter", 66, "p"),
        ("diamond-iter", 100, "p"),
        ("diamond-iter", 101, "p"),
        ("next-iter", 1, " & ".join(["p"] * 199)),  # two levels: X (...), and 200 nodes high
        ("next-iter", 2, " & ".join(["p"] * 199)),
    ],
)
def test_expanded_text_parses_again(capsys, op, k, formula):
    code, out, err = run(capsys, "expand", "--op", op, "--k", str(k), "--formula", formula)
    if code == 0:
        assert err == ""
        assert run(capsys, "parse", out.strip())[0] == 0
    else:
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_reused_parser_gives_the_bytes_of_a_fresh_one(capsys):
    from itl import cli

    calls = [
        ("decide", "--m", "1", "--formula", "p -> F p"),
        ("refute", "--max-worlds", "2", "--max-reach", "1", "--rule", "X x / x"),
        ("refute", "--max-worlds", "2", "--formula", "p"),  # usage error: --max-reach missing
        ("--help",),
        ("decide", "--help"),
        ("decide", "--m", "1", "--formula", "p -> F p"),
    ]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    reused = [run(capsys, *argv) for argv in calls]
    assert reused == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 0, 0]


def test_vote_command(tmp_path, capsys):
    model = write_model(tmp_path, "multi.json", MULTI_MODEL)
    code, out, _ = run(capsys, "vote", "--model", model)
    assert code == 0
    data = json.loads(out)
    assert data["valuations"] == [{"agent": "V", "letters": {"p": [0]}}]


def test_env_caps_used_when_flags_absent(monkeypatch, capsys):
    monkeypatch.setenv("ITL_MAX_WORLDS", "2")
    code, out, _ = run(capsys, "decide", "--m", "2", "--formula", "G p")
    assert code == 0
    assert json.loads(out)["verdict"] == "inconclusive"
    # explicit flag wins over the environment
    code, out, _ = run(capsys, "decide", "--m", "2", "--formula", "G p", "--max-worlds", "6")
    assert json.loads(out)["verdict"] == "non_theorem"


def test_jobs_flag_keeps_output_identical(capsys):
    base = run(capsys, "refute", "--formula", "G p -> G G p", "--max-worlds", "4", "--max-reach", "3")
    jobs = run(
        capsys, "refute", "--formula", "G p -> G G p", "--max-worlds", "4", "--max-reach", "3",
        "--jobs", "4",
    )
    assert base == jobs


def test_env_atom_cap_applies_to_rnf(monkeypatch, capsys):
    monkeypatch.setenv("ITL_MAX_ATOMS", "4")
    code, _, err = run(capsys, "rnf", "--rule", "p U q / p")
    assert code == 1 and "cap" in err
    code, out, _ = run(capsys, "rnf", "--rule", "p U q / p", "--max-atoms", "20")
    assert code == 0 and json.loads(out)["variables"] == 3


def test_verify_accepts_refute_and_admissible_certificates(tmp_path, capsys):
    _, out, _ = run(capsys, "refute", "--rule", "X x / x", "--max-worlds", "2", "--max-reach", "1")
    path = tmp_path / "refute.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and json.loads(out) == {"ok": True}

    _, out, _ = run(capsys, "admissible", "--m", "1", "--rule", "x / false", "--depth", "0")
    certificate = json.loads(out)["certificates"][0]
    path = tmp_path / "admissible.json"
    path.write_text(json.dumps(certificate))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and json.loads(out) == {"ok": True}


def test_sat_certificate_verifies_and_negation_is_non_theorem(tmp_path, capsys):
    code, out, _ = run(capsys, "sat", "--m", "1", "--formula", "p & X !p")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "satisfiable"
    path = tmp_path / "sat.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and json.loads(out) == {"ok": True}
    code, out, _ = run(capsys, "decide", "--m", "1", "--formula", "!(p & X !p)")
    assert code == 0
    negated = json.loads(out)
    assert negated["verdict"] == "non_theorem"
    assert negated["certificate"]["valuations"] == data["certificate"]["valuations"]


def _wide_reduced_rule() -> str:
    # one perfect conjunction over 8 variables (72 atoms): true at a one-world
    # lasso exactly when x1 is false and every other variable is true
    from itl import Not, print_formula
    from itl.normalform import _atom_formulas

    atoms = _atom_formulas(tuple(f"x{i}" for i in range(1, 9)))
    false_atoms = {"x1", "X x1"} | {f"x{i} U x1" for i in range(2, 9)}
    literals = [Not(a) if print_formula(a) in false_atoms else a for a in atoms]
    return " & ".join(print_formula(lit) for lit in literals) + " / x1"


def test_wide_reduced_form_rule_uses_node_tables(tmp_path, capsys):
    # 72 atoms do not fit a 64-bit sign key; the rule must fall back to the
    # node-by-node tables rather than fail
    rule = _wide_reduced_rule()
    generic = rule.replace(" / x1", " & true / x1")  # same premise, not in reduced shape
    code, out, err = run(capsys, "refute", "--rule", rule, "--max-worlds", "1", "--max-reach", "1")
    assert code == 0 and err == ""
    reduced = json.loads(out)
    _, out, _ = run(capsys, "refute", "--rule", generic, "--max-worlds", "1", "--max-reach", "1")
    expected = json.loads(out)
    assert reduced["verdict"] == expected["verdict"] == "non_theorem"
    assert reduced["certificate"]["valuations"] == expected["certificate"]["valuations"]
    frame = write_model(tmp_path, "frame.json", {"frame": {"kind": "lasso", "worlds": 1, "loop": 0, "reach": [1]}})
    code, out, err = run(capsys, "rule-valid", "--frame", frame, "--rule", rule)
    assert code == 0 and err == "" and json.loads(out)["valid"] is False


def test_verify_rejects_unknown_or_malformed_caps(tmp_path, capsys):
    for caps in ({"bogus": 1}, [1], 5):
        path = tmp_path / "verdict.json"
        path.write_text(json.dumps({"verdict": "inconclusive", "certificate": None, "caps": caps}))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "caps" in err


def test_rule_valid_rejects_non_list_reach(tmp_path, capsys):
    frame = write_model(tmp_path, "frame.json", {"kind": "lasso", "worlds": 1, "loop": 0, "reach": 5})
    code, out, err = run(capsys, "rule-valid", "--frame", frame, "--rule", "p / p")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "reach" in err


@pytest.mark.parametrize("valuations", [5, [1], [{"agent": "V", "letters": [1]}]])
def test_model_rejects_malformed_valuations(tmp_path, capsys, valuations):
    data = {"frame": {"kind": "lasso", "worlds": 1, "loop": 0, "reach": [1]}, "valuations": valuations}
    model = write_model(tmp_path, "model.json", data)
    code, out, err = run(capsys, "eval", "--model", model, "--formula", "p")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "valuation" in err


def test_model_rejects_negative_world(tmp_path, capsys):
    data = {
        "frame": {"kind": "lasso", "worlds": 1, "loop": 0, "reach": [1]},
        "valuations": [{"agent": "V", "letters": {"p": [-1]}}],
    }
    model = write_model(tmp_path, "model.json", data)
    code, out, err = run(capsys, "eval", "--model", model, "--formula", "p")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "non-negative" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("rule-valid", "--rule", "p / p", "--frame"),
        ("rule-valid", "--rule", "p / p", "--model"),
        ("eval", "--formula", "p", "--model"),
        ("vote", "--model"),
        ("verify",),
    ],
    ids=["rule-valid-frame", "rule-valid-model", "eval", "vote", "verify"],
)
def test_top_level_json_list_is_an_error(tmp_path, capsys, argv):
    path = write_model(tmp_path, "list.json", [1])
    code, out, err = run(capsys, *argv, path)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "JSON object" in err


@pytest.mark.parametrize(
    "formula",
    ["(" * 200 + "p" + ")" * 200, "!" * 3000 + "p", "p -> " * 3000 + "p"],
    ids=["parentheses", "negations", "implications"],
)
def test_deep_nesting_is_a_parse_error(capsys, formula):
    code, out, err = run(capsys, "decide", "--m", "1", "--formula", formula)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "nested deeper" in err


CHAIN_COMMANDS = {
    "decide": ("decide", "--m", "1", "--formula"),
    "refute": ("refute", "--max-worlds", "2", "--max-reach", "1", "--formula"),
    "rnf": ("rnf", "--rule"),
    "parse": ("parse",),
}


@pytest.mark.parametrize("op", ["&", "U"])
@pytest.mark.parametrize("command", sorted(CHAIN_COMMANDS))
def test_long_chain_is_a_parse_error(capsys, command, op):
    chain = f" {op} ".join(["p"] * 1000)
    text = chain + " / p" if command == "rnf" else chain
    code, out, err = run(capsys, *CHAIN_COMMANDS[command], text)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "higher than" in err


@pytest.mark.parametrize("op", ["&", "U"])
@pytest.mark.parametrize("command", ["decide", "refute"])
def test_chain_at_the_height_limit_runs(capsys, command, op):
    chain = f" {op} ".join(["p", "q"] * MAX_NESTING)  # a tree 2 * MAX_NESTING nodes high
    code, out, err = run(capsys, *CHAIN_COMMANDS[command], chain)
    assert code == 0 and err == ""
    assert json.loads(out)["verdict"] in {"theorem", "non_theorem", "inconclusive"}


_CERTIFICATE = {
    "frame": {"kind": "lasso", "worlds": 1, "loop": 0, "reach": [1]},
    "valuations": [{"agent": "V", "letters": {}}],
    "world": 0,
    "target": "p",
}


@pytest.mark.parametrize(
    "field, value",
    [("world", None), ("world", [0]), ("world", "zero"), ("target", 5), ("target", None)],
)
def test_verify_rejects_certificate_fields_of_the_wrong_type(tmp_path, capsys, field, value):
    cert = dict(_CERTIFICATE, **{field: value})
    path = write_model(tmp_path, "verdict.json", {"verdict": "non_theorem", "certificate": cert, "caps": None})
    code, out, err = run(capsys, "verify", path)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and field in err


def test_verify_reads_an_integer_world_written_as_a_number_string(tmp_path, capsys):
    cert = dict(_CERTIFICATE, world="0")
    path = write_model(tmp_path, "verdict.json", {"verdict": "non_theorem", "certificate": cert, "caps": None})
    assert run(capsys, "verify", path) == (0, '{"ok": true}\n', "")


_LASSO = {"kind": "lasso", "worlds": 1, "loop": 0, "reach": [1]}


@pytest.mark.parametrize(
    "frame, letters",
    [
        (dict(_LASSO, worlds=[2]), {}),
        (dict(_LASSO, loop=None), {}),
        (dict(_LASSO, reach=[None]), {}),
        (dict(_LASSO, reach=[float("inf")]), {}),
        ({"kind": "uniform", "worlds": {}, "measure": 1}, {}),
        (_LASSO, {"p": [None]}),
        (_LASSO, {"p": [[0]]}),
    ],
    ids=["worlds-list", "loop-null", "reach-null", "reach-infinite", "uniform-worlds-object", "world-null", "world-list"],
)
@pytest.mark.parametrize("command", ["eval", "vote", "rule-valid-model", "rule-valid-frame"])
def test_model_and_frame_fields_of_the_wrong_type_are_errors(tmp_path, capsys, command, frame, letters):
    model = write_model(tmp_path, "model.json", {"frame": frame, "valuations": [{"agent": "V", "letters": letters}]})
    argv = {
        "eval": ("eval", "--formula", "p", "--model", model),
        "vote": ("vote", "--model", model),
        "rule-valid-model": ("rule-valid", "--rule", "p / p", "--model", model),
        "rule-valid-frame": ("rule-valid", "--rule", "p / p", "--frame", model),
    }[command]
    code, out, err = run(capsys, *argv)
    if command == "rule-valid-frame" and letters:
        assert code == 0  # a frame file's valuations are not read
        return
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["eval", "vote", "rule-valid-model", "rule-valid-frame", "verify", "verify-stdin"])
def test_json_nested_too_deeply_is_an_error(tmp_path, capsys, monkeypatch, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    monkeypatch.setattr("sys.stdin", io.StringIO("[" * 100_000))
    argv = {
        "eval": ("eval", "--formula", "p", "--model", str(path)),
        "vote": ("vote", "--model", str(path)),
        "rule-valid-model": ("rule-valid", "--rule", "p / p", "--model", str(path)),
        "rule-valid-frame": ("rule-valid", "--rule", "p / p", "--frame", str(path)),
        "verify": ("verify", str(path)),
        "verify-stdin": ("verify",),
    }[command]
    assert run(capsys, *argv) == (1, "", "error: the JSON is nested too deeply to read\n")


def test_vote_and_rule_validity_on_a_huge_uniform_frame_finish_at_once(tmp_path, capsys):
    model = write_model(
        tmp_path,
        "big.json",
        {
            "frame": {"kind": "uniform", "worlds": 10**9, "measure": 2},
            "valuations": [{"agent": "V", "letters": {"p": [0, 5, 10**9 - 1]}}],
        },
    )
    start = time.perf_counter()
    code, out, _ = run(capsys, "vote", "--model", model)
    assert code == 0 and json.loads(out)["valuations"] == [{"agent": "V", "letters": {"p": [0, 5, 10**9 - 1]}}]
    assert run(capsys, "rule-valid", "--model", model, "--rule", "true / true")[:2] == (
        0,
        '{"rule": "true / true", "valid": true}\n',
    )
    assert run(capsys, "rule-valid", "--model", model, "--rule", "true / p")[:2] == (
        0,
        '{"rule": "true / p", "valid": false}\n',
    )
    assert time.perf_counter() - start < 1.0


def test_until_on_a_uniform_frame_of_huge_measure_walks_its_window_lazily(tmp_path, capsys):
    model = write_model(
        tmp_path,
        "huge.json",
        {
            "frame": {"kind": "uniform", "worlds": 200_000_001, "measure": 200_000_000},
            "valuations": [{"agent": "V", "letters": {"p": [0], "q": [5]}}],
        },
    )
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "--model", model, "--formula", "p U q")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"formula": "p U q", "world": 0, "value": False}
    assert run(capsys, "eval", "--model", model, "--formula", "F q")[:2] == (
        0,
        '{"formula": "true U q", "value": true, "world": 0}\n',
    )
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("message", ["Unable to allocate 1.00 GiB for an array with shape (1073741824,)", ""])
def test_running_out_of_memory_is_a_one_line_error(capsys, monkeypatch, message):
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("itl.normalform.to_reduced_normal_form", exhausted)
    code, out, err = run(capsys, "rnf", "--rule", "p & X q / p U q", "--max-atoms", "30")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err.strip()) > len("error:")
