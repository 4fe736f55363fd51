"""CLI surface: output formats, exit codes, determinism, env-var caps."""

import hashlib
import importlib
import inspect
import io
import json
import time
from pathlib import Path

import pytest

from itl.cli import main
from itl.syntax import MAX_NESTING, Rule


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


@pytest.mark.parametrize(
    "depth, rule",
    [("13", "x / X x"), ("12", "x, y / x & y"), ("26", "x / X x"), ("28", "true / X false")],
)
def test_admissible_counts_no_tuples_past_what_can_be_printed(capsys, depth, rule):
    start = time.perf_counter()
    code, out, _ = run(capsys, "admissible", "--m", "1", "--rule", rule, "--depth", depth)
    assert time.perf_counter() - start < 1.0
    data = json.loads(out)
    assert code == 0 and data["pool"]["depth"] == int(depth)
    if rule.startswith("true"):  # a letterless rule has one tuple at any depth
        assert data["status"] == "refuted" and data["substitution"] == {}
    else:
        assert data["status"] == "no_refutation"
        assert data["cap_note"] == "at least 10^4300 substitution tuples exceed the cap of 100000"


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


@pytest.mark.parametrize("name", ["ITL_MAX_ATOMS", "ITL_MAX_WORLDS"])
def test_a_cap_variable_that_is_not_an_integer_is_named(monkeypatch, capsys, name):
    monkeypatch.setenv(name, "abc")
    assert run(capsys, "decide", "--m", "1", "--formula", "p") == (1, "", f"error: {name} must be an integer\n")


# Every subcommand that takes a cap, with arguments that are cheap to run.
_CAPPED = {
    "decide": ("decide", "--m", "1", "--formula", "p"),
    "sat": ("sat", "--m", "1", "--formula", "p"),
    "refute": ("refute", "--max-reach", "1", "--formula", "p"),
    "rnf": ("rnf", "--rule", "p / q"),
    "rule-valid": ("rule-valid", "--frame", None, "--rule", "p / p"),
    "admissible": ("admissible", "--m", "1", "--depth", "1", "--rule", "p / X p"),
}
_CAP_FLAGS = {
    "decide": ("--max-atoms", "--max-worlds"),
    "sat": ("--max-atoms", "--max-worlds"),
    "refute": ("--max-atoms", "--max-worlds", "--max-reach"),
    "rnf": ("--max-atoms",),
    "rule-valid": ("--max-atoms",),
    "admissible": ("--max-atoms", "--max-worlds", "--max-tuples"),
}
_CAP_VARIABLES = {
    "decide": ("ITL_MAX_ATOMS", "ITL_MAX_WORLDS"),
    "sat": ("ITL_MAX_ATOMS", "ITL_MAX_WORLDS"),
    "refute": ("ITL_MAX_ATOMS",),
    "rnf": ("ITL_MAX_ATOMS",),
    "rule-valid": ("ITL_MAX_ATOMS",),
    "admissible": ("ITL_MAX_ATOMS", "ITL_MAX_WORLDS"),
}


def _capped_argv(tmp_path, command, *extra):
    frame = write_model(tmp_path, "frame.json", {"kind": "lasso", "worlds": 1, "loop": 0, "reach": [1]})
    argv = [frame if arg is None else arg for arg in _CAPPED[command]] + list(extra)
    if command == "refute" and "--max-worlds" not in extra:
        argv += ["--max-worlds", "1"]
    return argv


@pytest.mark.parametrize("command, flag", [(c, f) for c, flags in _CAP_FLAGS.items() for f in flags])
def test_a_negative_cap_flag_is_a_usage_error(tmp_path, capsys, command, flag):
    code, out, err = run(capsys, *_capped_argv(tmp_path, command, flag, "-1"))
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"itl {command}: error: argument {flag}: must be >= 0, got -1"


_INCONCLUSIVE = '{{"caps": {caps}, "certificate": null, "verdict": "inconclusive"}}\n'
_NO_REFUTATION = (
    '{{{note}"certificates": [], "pool": {{"depth": 1, "signature": "closure of {{true, false, p}} under !, X, U, &"}}, '
    '"status": "no_refutation", "substitution": null}}\n'
)
# What each subcommand answers with one cap at zero: the flag accepts it, and
# the subcommand treats it as it always has.
_AT_ZERO = {
    ("decide", "--max-atoms"): (0, _INCONCLUSIVE.format(caps='{"max_atoms": 0, "max_worlds": 12}'), ""),
    ("decide", "--max-worlds"): (0, _INCONCLUSIVE.format(caps='{"max_atoms": 20, "max_worlds": 0}'), ""),
    ("sat", "--max-atoms"): (0, _INCONCLUSIVE.format(caps='{"max_atoms": 0, "max_worlds": 12}'), ""),
    ("sat", "--max-worlds"): (0, _INCONCLUSIVE.format(caps='{"max_atoms": 20, "max_worlds": 0}'), ""),
    ("refute", "--max-atoms"): (0, _INCONCLUSIVE.format(caps='{"max_atoms": 0, "max_reach": 1, "max_worlds": 1}'), ""),
    ("refute", "--max-worlds"): (1, "", "error: search caps must be positive\n"),
    ("refute", "--max-reach"): (1, "", "error: search caps must be positive\n"),
    ("rnf", "--max-atoms"): (1, "", "error: 2 variables need 6 atoms (cap 0)\n"),
    ("rule-valid", "--max-atoms"): (1, "", "error: 1 letters over 1 worlds needs 2^1 valuations (cap 2^0)\n"),
    ("admissible", "--max-atoms"): (0, _NO_REFUTATION.format(note=""), ""),
    ("admissible", "--max-worlds"): (0, _NO_REFUTATION.format(note=""), ""),
    ("admissible", "--max-tuples"): (
        0,
        _NO_REFUTATION.format(note='"cap_note": "27 substitution tuples exceed the cap of 0", '),
        "",
    ),
}


@pytest.mark.parametrize("command, flag", [(c, f) for c, flags in _CAP_FLAGS.items() for f in flags])
def test_a_zero_cap_flag_keeps_its_meaning(tmp_path, monkeypatch, capsys, command, flag):
    for name in ("ITL_MAX_ATOMS", "ITL_MAX_WORLDS"):
        monkeypatch.delenv(name, raising=False)
    assert run(capsys, *_capped_argv(tmp_path, command, flag, "0")) == _AT_ZERO[command, flag]


@pytest.mark.parametrize("command, name", [(c, n) for c, names in _CAP_VARIABLES.items() for n in names])
def test_a_negative_cap_variable_is_an_error(tmp_path, monkeypatch, capsys, command, name):
    monkeypatch.setenv(name, "-2")
    assert run(capsys, *_capped_argv(tmp_path, command)) == (1, "", f"error: {name} must be >= 0, got -2\n")


def test_jobs_flag_keeps_output_identical(capsys):
    for command in ("decide", "sat"):
        base = run(capsys, command, "--m", "2", "--formula", "F F p -> F p")
        assert run(capsys, command, "--m", "2", "--formula", "F F p -> F p", "--jobs", "4") == base


def test_refute_and_rule_valid_refuse_jobs(capsys):
    refute = ("refute", "--formula", "G p -> G G p", "--max-worlds", "4", "--max-reach", "3")
    rule_valid = ("rule-valid", "--frame", "frame.json", "--rule", "p / p")
    for argv in (refute, rule_valid):
        assert run(capsys, *argv, "--jobs", "2")[0] == 2


def test_env_atom_cap_applies_to_rnf(monkeypatch, capsys):
    monkeypatch.setenv("ITL_MAX_ATOMS", "4")
    code, _, err = run(capsys, "rnf", "--rule", "p U q / p")
    assert code == 1 and "cap" in err
    code, out, _ = run(capsys, "rnf", "--rule", "p U q / p", "--max-atoms", "20")
    assert code == 0 and json.loads(out)["variables"] == 3


def test_refute_leaves_out_frame_sizes_over_the_atom_cap(monkeypatch, capsys):
    # one letter over 40 worlds would be 2^40 valuations a frame; the default
    # cap of 20 bits stops the search after 20 worlds and says so
    start = time.perf_counter()
    code, out, _ = run(capsys, "refute", "--max-worlds", "40", "--max-reach", "1", "--formula", "p | !p")
    assert time.perf_counter() - start < 30
    caps = {"max_atoms": 20, "max_reach": 1, "max_worlds": 40}
    assert (code, json.loads(out)) == (0, {"caps": caps, "certificate": None, "verdict": "inconclusive"})
    # a search the cap does not cut keeps its caps as they were
    _, out, _ = run(capsys, "refute", "--max-worlds", "20", "--max-reach", "1", "--formula", "p | !p")
    assert json.loads(out)["caps"] == {"max_reach": 1, "max_worlds": 20}
    # p -> X p fails on two worlds, which one letter fills with 2 bits
    argv = ("refute", "--max-worlds", "3", "--max-reach", "1", "--formula", "p -> X p")
    monkeypatch.setenv("ITL_MAX_ATOMS", "1")
    _, out, _ = run(capsys, *argv)
    caps = {"max_atoms": 1, "max_reach": 1, "max_worlds": 3}
    assert json.loads(out) == {"caps": caps, "certificate": None, "verdict": "inconclusive"}
    _, out, _ = run(capsys, *argv, "--max-atoms", "2")  # the flag wins over the environment
    assert json.loads(out)["certificate"]["frame"]["worlds"] == 2


LASSO_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "lasso-sweep.json"
# Recorded before the table engine gave its tables a frame axis.
LASSO_POOL_STDOUT_SHA256 = "cbaef7d2d19de2b5ca353ad5ac7537898104fc8d8b3630d9c6f1b2056e12f615"


def test_refute_keeps_its_bytes_on_the_lasso_pool(capsys):
    outs = []
    for entry in json.loads(LASSO_POOL.read_text())["entries"]:
        argv = ("refute", "--max-worlds", "6", "--max-reach", "4", f"--{entry['target']}", entry["text"])
        outs.append(run(capsys, *argv)[1])
    assert len(outs) == 38
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == LASSO_POOL_STDOUT_SHA256


UNIFORM_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "uniform-full.json"
ADMISSIBLE_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "admissible.json"
# Recorded before parsing shared equal subtrees and the lasso search ran one scan per frame size.
UNIFORM_POOL_STDOUT_SHA256 = "22107a8044e5ee55a60d0d16566609b71e1965474f0883e7b81ed4d7a564d477"
ADMISSIBLE_POOL_STDOUT_SHA256 = "4e00143f0981d6f9fe7aa8c03e35efcdc7f795bcca69791ea0be100c69b96853"


def test_decide_and_sat_keep_their_bytes_on_the_uniform_pool(capsys):
    entries = json.loads(UNIFORM_POOL.read_text())["entries"]
    outs = [run(capsys, e["op"], "--m", str(e["m"]), "--formula", e["formula"])[1] for e in entries]
    assert len(outs) == 100
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == UNIFORM_POOL_STDOUT_SHA256


def test_admissible_keeps_its_bytes_on_the_admissible_pool(capsys):
    entries = json.loads(ADMISSIBLE_POOL.read_text())["entries"]
    argvs = [("admissible", "--m", str(e["m"]), "--rule", e["rule"], "--depth", str(e["depth"])) for e in entries]
    outs = [run(capsys, *argv)[1] for argv in argvs]
    assert len(outs) == 48
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == ADMISSIBLE_POOL_STDOUT_SHA256


def test_admissible_keeps_its_bytes_with_its_records_cached(capsys):
    # the second pass walks the reach records the first pass cached in this process
    entries = json.loads(ADMISSIBLE_POOL.read_text())["entries"]
    argvs = [("admissible", "--m", str(e["m"]), "--rule", e["rule"], "--depth", str(e["depth"])) for e in entries]
    for _ in range(2):
        outs = [run(capsys, *argv)[1] for argv in argvs]
        assert hashlib.sha256("".join(outs).encode()).hexdigest() == ADMISSIBLE_POOL_STDOUT_SHA256


def test_every_benchmark_trace_target_resolves(monkeypatch):
    # the traced benchmark wraps these names from outside the package; a lost one leaves its metrics absent
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    layers, spans = importlib.import_module("layers"), importlib.import_module("spans")
    assert [t.metric for t in layers.targets() if spans._find(t)[1] is None] == []
    # the tracer wraps a property's getter, but would wrap a cached_property as a method
    assert isinstance(inspect.getattr_static(Rule, "letters"), property)


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
    # a refutation whose certificate re-checks, so only its caps can fail it
    _, out, _ = run(capsys, "refute", "--rule", "X x / x", "--max-worlds", "2", "--max-reach", "1")
    verdict = json.loads(out)
    malformed = [{"max_worlds": value} for value in ("x", 2.5, True, -3, [1])]
    for caps in ({"bogus": 1}, [1], 5, *malformed):
        path = tmp_path / "verdict.json"
        path.write_text(json.dumps({**verdict, "caps": caps}))
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
    [("world", None), ("world", [0]), ("world", "zero"), ("world", 0.9), ("world", True), ("target", 5), ("target", None)],
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
        (dict(_LASSO, worlds=1.5), {}),
        (dict(_LASSO, reach=[True]), {}),
        ({"kind": "uniform", "worlds": 1, "measure": 2.5}, {}),
        (_LASSO, {"p": [None]}),
        (_LASSO, {"p": [[0]]}),
        (_LASSO, {"p": [0.7]}),
        (_LASSO, {"p": [False]}),
    ],
    ids=[
        "worlds-list",
        "loop-null",
        "reach-null",
        "reach-infinite",
        "uniform-worlds-object",
        "worlds-float",
        "reach-bool",
        "measure-float",
        "world-null",
        "world-list",
        "world-float",
        "world-bool",
    ],
)
@pytest.mark.parametrize("command", ["eval", "vote", "rule-valid-model", "rule-valid-frame", "verify"])
def test_model_and_frame_fields_of_the_wrong_type_are_errors(tmp_path, capsys, command, frame, letters):
    data = {"frame": frame, "valuations": [{"agent": "V", "letters": letters}]}
    model = write_model(tmp_path, "model.json", data)
    certificate = dict(data, world=0, target="!p")
    verdict = write_model(tmp_path, "verdict.json", {"verdict": "non_theorem", "certificate": certificate, "caps": None})
    argv = {
        "eval": ("eval", "--formula", "p", "--model", model),
        "vote": ("vote", "--model", model),
        "rule-valid-model": ("rule-valid", "--rule", "p / p", "--model", model),
        "rule-valid-frame": ("rule-valid", "--rule", "p / p", "--frame", model),
        "verify": ("verify", verdict),
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


@pytest.mark.parametrize(
    "command, data, key",
    [
        ("verify", {}, "verdict"),
        ("eval", {**LASSO_MODEL, "frame": {"kind": "lasso", "worlds": 2, "loop": 1}}, "reach"),
        ("vote", {"valuations": LASSO_MODEL["valuations"]}, "frame"),
        ("rule-valid", {"frame": {"kind": "uniform", "measure": 1}}, "worlds"),
        ("verify", {"verdict": "non_theorem", "certificate": LASSO_MODEL}, "target"),
    ],
)
def test_a_missing_json_key_is_named(tmp_path, capsys, command, data, key):
    path = write_model(tmp_path, "input.json", data)
    argv = {
        "verify": ("verify", path),
        "eval": ("eval", "--formula", "p", "--model", path),
        "vote": ("vote", "--model", path),
        "rule-valid": ("rule-valid", "--rule", "p / p", "--frame", path),
    }[command]
    assert run(capsys, *argv) == (1, "", f"error: missing key {key!r}\n")


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
