"""Every subcommand under arbitrary input: a verdict or a one-line error, never a traceback.

Formula and rule text is drawn from the grammar, from its tokens in any
order and from arbitrary characters; model, frame and verdict files are
well-formed objects with up to two values replaced by arbitrary JSON or
removed, or files that do not parse.  Caps are kept small so each call is
cheap, and the draws are derandomized so each run makes the same calls.  An
exception escaping :func:`itl.cli.main` fails the test by itself.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from itl.cli import main
from itl.decide import VerdictKind
from itl.syntax import DERIVED_OP_NAMES

fuzz = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=80,
    suppress_health_check=[HealthCheck.too_slow],
)


def small(low: int, high: int):
    """Mostly a value from ``low`` to ``high``; now and then one just below it, which the CLI refuses."""
    return st.one_of(st.integers(low, high), st.integers(low - 2, low - 1))


# --- text ---------------------------------------------------------------------

# Formulas from the grammar, bracketed in full, make most draws parse; token
# soup and arbitrary characters exercise the parser's errors.
_formula = st.recursive(
    st.sampled_from(["p", "q", "true", "false"]),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["!", "X ", "G ", "F "]), inner).map("".join),
        st.tuples(inner, st.sampled_from(["&", "|", "U", "->"]), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
    ),
    max_leaves=5,
)
_TOKENS = ["p", "q", "x", "true", "false", "!", "X", "G", "F", "&", "|", "U", "->", "(", ")"]
_garbled = st.one_of(
    st.lists(st.sampled_from(_TOKENS), max_size=10).map(" ".join),
    st.text(alphabet="pqxXGFU!&|->()/, @", max_size=12),
    st.text(max_size=6),
)
formula_text = st.one_of(_formula, _formula, _formula, _garbled)


def _rules(formulas):
    return st.builds(
        lambda premises, conclusion: ", ".join(premises) + " / " + conclusion,
        st.lists(formulas, min_size=1, max_size=2),
        formulas,
    )


_rule = _rules(_formula)
rule_text = st.one_of(_rule, _rule, _rules(formula_text), _garbled)

# --- JSON files ---------------------------------------------------------------

_leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.floats(-3, 5),
    st.sampled_from([float("nan"), float("inf")]),
    st.text(max_size=3),
)
junk = st.recursive(
    _leaf, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=5
)
_DELETE = object()


def _paths(data, path=()):
    yield path
    items = data.items() if isinstance(data, dict) else enumerate(data) if isinstance(data, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _replace(data, path, value):
    if not path:
        return value
    copy = dict(data) if isinstance(data, dict) else list(data)
    inner = _replace(copy[path[0]], path[1:], value)
    if inner is _DELETE:
        del copy[path[0]]
    else:
        copy[path[0]] = inner
    return copy


@st.composite
def perturbed(draw, base):
    """A draw of ``base`` with up to two of its values, itself included, replaced by arbitrary JSON or removed."""
    data = draw(base)
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_paths(data))))
        value = draw(st.one_of(junk, st.integers(-1, 4).map(str), st.just(_DELETE)))
        data = _replace(data, path, {} if value is _DELETE and not path else value)
    return data


@st.composite
def lasso_frame(draw):
    worlds = draw(st.integers(1, 3))
    reach = sorted(draw(st.lists(st.integers(1, worlds), min_size=worlds, max_size=worlds)))
    return {"kind": "lasso", "worlds": worlds, "loop": draw(st.integers(0, worlds - 1)), "reach": reach}


frame = st.one_of(
    lasso_frame(),
    st.fixed_dictionaries({"kind": st.just("uniform"), "worlds": st.integers(1, 4), "measure": st.integers(1, 2)}),
)
entry = st.fixed_dictionaries(
    {
        "agent": st.sampled_from(["V", "a", "b"]),
        "letters": st.dictionaries(st.sampled_from(["p", "q"]), st.lists(st.integers(0, 2), max_size=3), max_size=2),
    }
)
model = st.fixed_dictionaries(
    {"frame": frame, "valuations": st.lists(entry, min_size=1, max_size=3, unique_by=lambda e: e["agent"])}
)
verdict = st.one_of(
    st.fixed_dictionaries(
        {
            "verdict": st.sampled_from(["non_theorem", "satisfiable"]),
            "certificate": st.fixed_dictionaries(
                {
                    "frame": frame,
                    "valuations": st.lists(entry, min_size=1, max_size=1),
                    "world": st.integers(0, 2),
                    "target": _formula | _rule,
                }
            ),
            "caps": st.none(),
        }
    ),
    st.fixed_dictionaries(
        {
            "verdict": st.sampled_from([k.value for k in VerdictKind]),
            "certificate": st.none(),
            "caps": st.dictionaries(st.sampled_from(["max_worlds", "max_reach", "max_atoms"]), st.integers(1, 4)),
        }
    ),
)
file_text = st.one_of(st.just("{"), st.just("\udcff"), st.text(max_size=4))


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _write(folder, data, raw=False) -> str:
    path = folder / "input.json"
    path.write_text(data if raw else json.dumps(data), encoding="utf-8", errors="surrogateescape")
    return str(path)


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check(argv, emits_json=True):
    """Run ``itl`` on ``argv`` and hold it to the exit-code and output contract."""
    code, out, err = _call(argv)
    assert code in (0, 1, 2)
    if code == 1 and argv[0] == "verify" and out == '{"ok": false}\n':
        assert err == ""  # the documented failed check
        return code, out
    if code == 1:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
    if code == 2:
        assert out == ""
    if out and emits_json:
        assert out.count("\n") == 1
        json.loads(out)
    return code, out


# --- subcommands --------------------------------------------------------------


@fuzz
@given(formula_text)
def test_parse(text):
    code, out = check(["parse", text], emits_json=False)
    if code == 0:
        assert _call(["parse", out.rstrip("\n")])[:2] == (0, out)  # the printed form reads back


@fuzz
@given(st.sampled_from(["decide", "sat"]), small(1, 3), formula_text, small(4, 12))
def test_decide_and_sat(command, m, text, atoms):
    check([command, "--m", str(m), "--formula", text, "--max-atoms", str(atoms), "--max-worlds", "4"])


@fuzz
@given(st.booleans(), formula_text, rule_text, small(1, 3), small(1, 3))
def test_refute(as_rule, text, rule, worlds, reach):
    target = ["--rule", rule] if as_rule else ["--formula", text]
    check(["refute", *target, "--max-worlds", str(worlds), "--max-reach", str(reach)])


@fuzz
@given(rule_text)
def test_rnf(rule):
    check(["rnf", "--rule", rule, "--max-atoms", "12"])


@fuzz
@given(rule_text, small(1, 2), small(0, 1), st.one_of(st.none(), st.integers(0, 60)))
def test_admissible(rule, m, depth, tuples):
    cap = [] if tuples is None else ["--max-tuples", str(tuples)]
    check(["admissible", "--m", str(m), "--rule", rule, "--depth", str(depth), *cap])


@fuzz
@given(small(1, 6), small(1, 500))
def test_bound(letters, disjuncts):
    code, out = check(["bound", "--letters", str(letters), "--disjuncts", str(disjuncts)], emits_json=False)
    assert code == 1 or out.rstrip("\n").isdigit()


@fuzz
@given(
    st.one_of(st.sampled_from(sorted(DERIVED_OP_NAMES)), st.sampled_from(sorted(DERIVED_OP_NAMES)), st.text(max_size=4)),
    st.one_of(st.none(), small(1, 4), st.integers(-1, 210)),
    st.one_of(st.none(), small(0, 4), st.integers(-1, 210)),
    st.one_of(st.none(), formula_text),
    formula_text,
)
def test_expand(op, m, k, trigger, text):
    argv = ["expand", "--op", op, "--formula", text]
    for flag, value in (("--m", m), ("--k", k), ("--trigger", trigger)):
        if value is not None:
            argv += [flag, str(value)]
    code, out = check(argv, emits_json=False)
    if code == 0:
        assert _call(["parse", out.rstrip("\n")])[:2] == (0, out)  # whatever expand prints, parse accepts


@fuzz
@given(perturbed(model), formula_text, small(0, 3), st.sampled_from([None, "V", "a", "z"]))
def test_eval(folder, data, text, world, agent):
    argv = ["eval", "--model", _write(folder, data), "--formula", text, "--world", str(world)]
    check(argv + (["--agent", agent] if agent else []))


@fuzz
@given(perturbed(model))
def test_vote(folder, data):
    check(["vote", "--model", _write(folder, data)])


@fuzz
@given(st.sampled_from(["--model", "--frame"]), perturbed(model | frame), rule_text)
def test_rule_valid(folder, flag, data, rule):
    check(["rule-valid", flag, _write(folder, data), "--rule", rule, "--max-atoms", "12"])


@fuzz
@given(perturbed(verdict))
def test_verify(folder, data):
    check(["verify", _write(folder, data)])


@fuzz
@given(st.sampled_from(["eval", "vote", "rule-valid", "verify"]), file_text)
def test_unreadable_files(folder, command, text):
    path = _write(folder, text, raw=True)
    argv = {
        "eval": ["eval", "--model", path, "--formula", "p"],
        "vote": ["vote", "--model", path],
        "rule-valid": ["rule-valid", "--frame", path, "--rule", "p / p"],
        "verify": ["verify", path],
    }[command]
    check(argv)
