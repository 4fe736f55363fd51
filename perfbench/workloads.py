"""The four workloads: input classes, round composition, the operation and its checks.

An operation is what one user request costs: one in-process call to
``itl.cli.main(argv)`` with stdout captured, except in ``rnf-check``, where
the library calls that check validity preservation follow the CLI call.  The
operation is timed; its checks are not.

Inputs come in classes of similar cost.  A round holds a fixed number of
operations from each class, drawn by the seed and shuffled, so the mix, and
with it every end-to-end figure, is the same from one seed to the next while
the inputs themselves differ.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable, Iterator, Optional

import itl
import oracle
from itl import FiniteLassoFrame, cli, parse_formula, parse_rule, verdict_from_dict

JOBS = 2  # --jobs for decide/sat: the core count of the machine the benchmark was defined on
LASSO_MAX_WORLDS = 6
LASSO_MAX_REACH = 4


def small_frames() -> list[FiniteLassoFrame]:
    """The 19 lasso frames of acceptance criterion 4: up to 3 worlds, reach up to 2."""
    return [
        FiniteLassoFrame(worlds, loop, d)
        for worlds in (1, 2, 3)
        for loop in range(worlds)
        for d in combinations_with_replacement(range(1, min(2, worlds) + 1), worlds)
    ]


def call_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def rnf_argv(rule: str) -> list[str]:
    return ["rnf", "--rule", rule]


@dataclass
class Raw:
    """What an operation produced: exit code, stdout, and library results for rnf-check."""

    rc: int
    stdout: str
    extra: Optional[dict] = None


@dataclass
class Outcome:
    ok: bool
    decided: bool
    why: str = ""


def _fail(why: str) -> Outcome:
    return Outcome(False, False, why)


# ---------------------------------------------------------------------------
# Verdict checks shared by decide, sat and refute.
# ---------------------------------------------------------------------------


def _check_verdict(raw: Raw, target, expect: str, certified_kind: str) -> Outcome:
    """Certified verdicts must re-check and be about ``target``; others must match ``expect``.

    An expected ``inconclusive`` may turn conclusive only with a certificate
    that re-checks.
    """
    if raw.rc != 0:
        return _fail(f"exit {raw.rc}")
    data = json.loads(raw.stdout)
    kind = data["verdict"]
    if data.get("certificate") is not None:
        verdict = verdict_from_dict(data)
        if kind != certified_kind:
            return _fail(f"certificate on a {kind} verdict")
        if verdict.certificate.target != target:
            return _fail("certificate is about another target")
        if not itl.check_certificate(verdict):
            return _fail("certificate does not re-check")
        if expect not in (kind, "inconclusive"):
            return _fail(f"expected {expect}, got certified {kind}")
        return Outcome(True, True)
    if kind != expect:
        return _fail(f"expected {expect}, got {kind} without certificate")
    return Outcome(True, kind != "inconclusive")


# ---------------------------------------------------------------------------
# uniform-full
# ---------------------------------------------------------------------------


def _uniform_execute(entry: dict) -> Raw:
    argv = [entry["op"], "--m", str(entry["m"]), "--formula", entry["formula"], "--jobs", str(JOBS)]
    return Raw(*call_cli(argv))


def _uniform_check(entry: dict, raw: Raw) -> Outcome:
    certified = "non_theorem" if entry["op"] == "decide" else "satisfiable"
    return _check_verdict(raw, parse_formula(entry["formula"]), entry["expect"], certified)


# ---------------------------------------------------------------------------
# lasso-sweep
# ---------------------------------------------------------------------------


def _lasso_execute(entry: dict) -> Raw:
    argv = ["refute", "--max-worlds", str(LASSO_MAX_WORLDS), "--max-reach", str(LASSO_MAX_REACH)]
    return Raw(*call_cli(argv + [f"--{entry['target']}", entry["text"]]))


def _lasso_check(entry: dict, raw: Raw) -> Outcome:
    target = parse_rule(entry["text"]) if entry["target"] == "rule" else parse_formula(entry["text"])
    return _check_verdict(raw, target, entry["expect"], "non_theorem")


# ---------------------------------------------------------------------------
# rnf-check
# ---------------------------------------------------------------------------

_FRAMES = small_frames()


def _rnf_execute(entry: dict) -> Raw:
    rc, stdout = 0, ""
    if entry["cls"] == "small":  # the printed form of a 4-variable rule runs to megabytes
        rc, stdout = call_cli(rnf_argv(entry["rule"]))
    # Looked up on the package at call time, so a traced run sees its wrappers.
    rule = itl.parse_rule(entry["rule"])
    rnf = itl.to_reduced_normal_form(rule)
    rendered = rnf.to_rule()
    extra = {
        "variables": rnf.variable_count,
        "disjuncts": rnf.disjunct_count,
        "valid_rule": [itl.rule_valid_in_frame(frame, rule) for frame in _FRAMES],
        "valid_rendered": [itl.rule_valid_in_frame(frame, rendered) for frame in _FRAMES],
    }
    if not stdout:
        stdout = json.dumps(extra, sort_keys=True)
    return Raw(rc, stdout, extra)


def _rnf_check(entry: dict, raw: Raw) -> Outcome:
    if raw.rc != 0:
        return _fail(f"exit {raw.rc}")
    extra = raw.extra
    if entry["cls"] == "small":
        printed = json.loads(raw.stdout)
        if (printed["variables"], printed["disjuncts"]) != (entry["variables"], entry["disjuncts"]):
            return _fail("printed form has the wrong size")
        if hashlib.sha256(raw.stdout.encode()).hexdigest() != entry["stdout_sha256"]:
            return _fail("printed form differs from the recorded bytes")
    if (extra["variables"], extra["disjuncts"]) != (entry["variables"], entry["disjuncts"]):
        return _fail("reduced form has the wrong size")
    if extra["valid_rule"] != entry["valid"]:
        return _fail("rule validity differs from the scalar answer")
    if extra["valid_rendered"] != extra["valid_rule"]:
        return _fail("reduced form does not preserve frame validity")
    return Outcome(True, True)


# ---------------------------------------------------------------------------
# admissible
# ---------------------------------------------------------------------------


def _admissible_execute(entry: dict) -> Raw:
    argv = ["admissible", "--m", str(entry["m"]), "--rule", entry["rule"], "--depth", str(entry["depth"])]
    return Raw(*call_cli(argv))


def _admissible_check(entry: dict, raw: Raw) -> Outcome:
    if raw.rc != 0:
        return _fail(f"exit {raw.rc}")
    data = json.loads(raw.stdout)
    status = data["status"]
    if status == "refuted":
        if entry["expect"] == "admissible_screen":
            return _fail("refuted a rule the screens settle")
        return _check_refutation(entry, data)
    if status != entry["expect"]:
        return _fail(f"expected {entry['expect']}, got {status}")
    if status == "no_refutation" and ("cap_note" in data) != entry["capped"]:
        return _fail("tuple cap reported differently")
    return Outcome(True, status == "admissible_screen")


def _check_refutation(entry: dict, data: dict) -> Outcome:
    """Every premise instance a scalar theorem; the conclusion instance's countermodel re-checks."""
    rule = parse_rule(entry["rule"])
    sub = {name: parse_formula(text) for name, text in (data.get("substitution") or {}).items()}
    if set(sub) != set(rule.letters) or len(data["certificates"]) != 1:
        return _fail("refutation without a full substitution and one certificate")
    theorem = oracle.TheoremCache(entry["m"])
    if not all(theorem(oracle.substitute(p, sub)) for p in rule.premises):
        return _fail("a premise instance is not a theorem")
    verdict = verdict_from_dict(data["certificates"][0])
    if verdict.kind.value != "non_theorem" or verdict.certificate.target != oracle.substitute(rule.conclusion, sub):
        return _fail("conclusion certificate is about another formula")
    if not itl.check_certificate(verdict):
        return _fail("conclusion certificate does not re-check")
    return Outcome(True, True)


# ---------------------------------------------------------------------------
# Registry and rounds.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    round: dict[str, int]  # class -> operations per round
    warmup: tuple[str, ...]  # classes that give one untimed warm-up operation each
    trace_rounds: int  # rounds in the fixed operation set of a traced run
    execute: Callable[[dict], Raw]
    check: Callable[[dict, Raw], Outcome]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "uniform-full",
            {"hit-decide": 6, "hit-sat": 6, "full-small": 4, "full-large": 2, "over-cap": 1},
            ("hit-decide", "hit-sat", "full-small", "over-cap"),
            3,
            _uniform_execute,
            _uniform_check,
        ),
        Workload(
            "lasso-sweep",
            {"hit": 6, "sweep-1": 2, "sweep-2": 1},
            ("hit",),
            2,
            _lasso_execute,
            _lasso_check,
        ),
        Workload(
            "rnf-check",
            {"small": 16, "heavy": 1},
            ("small",),
            1,
            _rnf_execute,
            _rnf_check,
        ),
        Workload(
            "admissible",
            {"refuted": 2, "d1-1": 4, "cap": 2, "d1-2": 1, "d2-1": 1},
            ("refuted", "d1-1", "cap"),
            4,
            _admissible_execute,
            _admissible_check,
        ),
    )
}


def rounds(workload: Workload, entries: list[dict], seed: int) -> Iterator[list[dict]]:
    """Endless seeded rounds: each class cycles through its entries in a fresh shuffle."""
    rng = random.Random(f"{workload.name}/{seed}")
    pools = {cls: [e for e in entries if e["cls"] == cls] for cls in workload.round}
    queues: dict[str, list[dict]] = {cls: [] for cls in workload.round}
    while True:
        ops = []
        for cls, k in workload.round.items():
            for _ in range(k):
                if not queues[cls]:
                    queues[cls] = rng.sample(pools[cls], len(pools[cls]))
                ops.append(queues[cls].pop())
        rng.shuffle(ops)
        yield ops


def warmup_ops(workload: Workload, entries: list[dict], seed: int) -> list[dict]:
    rng = random.Random(f"{workload.name}/{seed}/warmup")
    return [rng.choice([e for e in entries if e["cls"] == cls]) for cls in workload.warmup]
