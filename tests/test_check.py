"""The certificate checker, ``itl.check``: mutants of real certificates, and its import closure.

The certificates are those of the benchmark's pinned pools
(``perfbench/expected``, read only): the hits of ``lasso-sweep``, found by
``refute --max-worlds 6 --max-reach 4``, and of ``uniform-full``, found by
``decide`` and ``sat``.  Each is mutated one step at a time, and each mutant
is judged twice: by :func:`~itl.check.check_certificate`, the scalar
checker, and by the batch engine, which reads the same claim off one
64-code block of the mutant's frame.
"""

import ast
import copy
import json
from functools import cache
from pathlib import Path

import pytest

from itl import (
    FrameError,
    Rule,
    UniformWindowFrame,
    bounded_nt_refutation,
    check_certificate,
    decide_uniform_satisfiable,
    decide_uniform_theorem,
    letters_of,
    parse_formula,
    parse_rule,
    reach,
    verdict_from_dict,
    verdict_to_dict,
)
from itl.cli import main
from itl.frames import model_from_dict
from itl.tables import BatchEvaluator

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "itl"
POOLS = ROOT / "perfbench" / "expected"


@cache
def pool_certificates(pool: str) -> tuple[str, ...]:
    """The verdict JSON of every hit of a pinned pool, as the CLI prints it."""
    entries = json.loads((POOLS / f"{pool}.json").read_text())["entries"]
    out = []
    for e in entries:
        if pool == "lasso-sweep" and e["cls"] == "hit":
            target = parse_rule(e["text"]) if e["target"] == "rule" else parse_formula(e["text"])
            verdict = bounded_nt_refutation(target, 6, 4)
        elif pool == "uniform-full" and e["cls"].startswith("hit-"):
            decide = decide_uniform_theorem if e["op"] == "decide" else decide_uniform_satisfiable
            verdict = decide(parse_formula(e["formula"]), e["m"])
        else:
            continue
        assert verdict.kind.value == e["expect"], e
        out.append(json.dumps(verdict_to_dict(verdict), sort_keys=True))
    return tuple(out)


def mutants(data: dict):
    """Each one-step change of a certificate: a valuation bit flipped; the world, loop, a reach or the measure moved by 1."""
    cert = data["certificate"]
    target = parse_rule(cert["target"]) if "/" in cert["target"] else parse_formula(cert["target"])
    letters = target.letters if isinstance(target, Rule) else letters_of(target)
    frame = cert["frame"]
    for name in letters:
        for a in range(frame["worlds"]):
            mutant = copy.deepcopy(data)
            valuation = mutant["certificate"]["valuations"][0]["letters"]
            valuation[name] = sorted(set(valuation.get(name, [])) ^ {a})
            yield f"flip {name}@{a}", mutant
    if frame["kind"] == "lasso":
        fields = [(cert, "world"), (frame, "loop"), *((frame["reach"], i) for i in range(frame["worlds"]))]
    else:
        fields = [(cert, "world"), (frame, "measure")]
    for holder, key in fields:
        for delta in (-1, 1):
            holder[key] += delta
            yield f"{key} {delta:+}", copy.deepcopy(data)
            holder[key] -= delta


def engine_ok(verdict) -> bool:
    """The certificate's claim read off the batch tables of one 64-code block at the certificate's code."""
    cm = verdict.certificate
    frame, target = cm.model.frame, cm.target
    letters = target.letters if isinstance(target, Rule) else letters_of(target)
    code = sum(
        1 << (i * frame.worlds + a)
        for i, name in enumerate(letters)
        for a in range(frame.worlds)
        if cm.model.valuation.holds(name, a)
    )
    start = code & ~63
    ev = BatchEvaluator(frame, letters, range(start, start + min(64, 1 << (len(letters) * frame.worlds))))

    def bit(row) -> bool:
        return bool(int(row[0, 0]) >> (code - start) & 1)

    if isinstance(target, Rule):
        premises = all(bit(ev.everywhere(p)) for p in target.premises)
        return premises and not bit(ev.table(target.conclusion)[cm.world])
    holds = bit(ev.table(target)[cm.world])
    return holds if verdict.kind.value == "satisfiable" else not holds


def judged_by_both(data: dict) -> bool:
    """Whether the engine can judge a certificate: a valid frame and world, with the target's window inside the frame."""
    cert = data["certificate"]
    try:
        frame = model_from_dict(cert).frame
    except FrameError:
        return False
    if not 0 <= cert["world"] < frame.worlds:
        return False
    if isinstance(frame, UniformWindowFrame):
        return cert["world"] + reach(parse_formula(cert["target"]), frame.measure) <= frame.worlds - 1
    return True


@pytest.mark.parametrize("pool", ["lasso-sweep", "uniform-full"])
def test_checker_agrees_with_the_engine_on_every_mutant(pool, tmp_path, capsys):
    certificates = pool_certificates(pool)
    assert len(certificates) == {"lasso-sweep": 24, "uniform-full": 48}[pool]
    answers = {"checked": set(), "refused": 0}
    for text in certificates:
        data = json.loads(text)
        assert check_certificate(verdict_from_dict(data)) and engine_ok(verdict_from_dict(data))
        for what, mutant in mutants(data):
            if judged_by_both(mutant):
                verdict = verdict_from_dict(mutant)
                ok = check_certificate(verdict)
                assert ok == engine_ok(verdict), (text, what)
                answers["checked"].add(ok)
                continue
            path = tmp_path / "mutant.json"
            path.write_text(json.dumps(mutant))
            code, out, err = main(["verify", str(path)]), *capsys.readouterr()
            assert code == 1, (text, what)
            answered = (out, err) == ('{"ok": false}\n', "")
            refused = out == "" and err.startswith("error: ") and err.count("\n") == 1
            assert answered or refused, (text, what, out, err)
            answers["refused"] += 1
    assert answers["checked"] == {True, False} and answers["refused"] > 0  # every kind of mutant occurs


# ---------------------------------------------------------------------------
# Static reads of the package source.
# ---------------------------------------------------------------------------


def _imports(module: str) -> tuple[set[str], bool]:
    """The package modules ``module`` imports, and whether it imports numpy, anywhere in its source."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    local, numpy = set(), False
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 1:
                local.update([name.split(".")[0]] if name else [alias.name for alias in node.names])
            elif name.split(".")[0] == "itl":
                local.update([name.split(".")[1]] if "." in name else [alias.name for alias in node.names])
            numpy |= node.level == 0 and name.split(".")[0] == "numpy"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                numpy |= parts[0] == "numpy"
                if parts[0] == "itl" and len(parts) > 1:
                    local.add(parts[1])
    return local, numpy


def test_checker_imports_neither_numpy_nor_the_search():
    closure, todo = set(), ["check"]
    while todo:
        module = todo.pop()
        if module not in closure:
            closure.add(module)
            local, numpy = _imports(module)
            assert not numpy, f"{module} imports numpy"
            todo.extend(local)
    assert {"check", "frames", "syntax"} <= closure <= {"check", "frames", "syntax", "limits"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_sources_parse_as_python_3_10(path):
    # the package supports Python 3.10 (pyproject.toml), whose grammar lacks, for one, except*
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
