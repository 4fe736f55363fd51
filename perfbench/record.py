"""Record the input pools and their expected answers, one file per workload.

    python3 perfbench/record.py                       # every workload
    python3 perfbench/record.py --workload lasso-sweep --pool-seed 7

Each pool is drawn from ``gen.py`` with ``--pool-seed`` and sorted into the
classes ``run.py`` builds its rounds from.  Every expected answer is labelled
with its source:

* ``scalar``: brute force with ``eval_nt`` over every valuation (inputs of at
  most 16 valuation bits, and every lasso sweep);
* ``certificate``: the verdict's countermodel, re-checked with
  ``check_certificate``;
* ``engine+duality``: above 16 bits, ``decide(f)`` and ``sat(!f)`` agree;
* ``caps``: the input is over the default search caps, so the answer is
  ``inconclusive``; its true verdict, found with raised caps, is kept under
  ``truth`` for information;
* ``tuple count``: the substitution search has more tuples than its cap;
* ``engine``: the package's own answer at the commit that recorded the file,
  used only for RNF disjunct counts and output digests.

Run it at the commit the benchmark is judged against; the file records that
commit.  It takes tens of minutes, almost all of it the scalar lasso sweeps.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import env  # noqa: E402  (puts the checkout's src/ first on sys.path)

import gen  # noqa: E402
import oracle  # noqa: E402
from itl import (  # noqa: E402
    AdmissibilityStatus,
    Not,
    VerdictKind,
    bounded_nt_refutation,
    check_certificate,
    decide_admissible,
    decide_uniform_satisfiable,
    decide_uniform_theorem,
    parse_formula,
    parse_rule,
    substitution_pool,
    to_reduced_normal_form,
)
from itl.admissibility import DEFAULT_MAX_TUPLES  # noqa: E402

import workloads  # noqa: E402

EXPECTED_DIR = HERE / "expected"


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# uniform-full
# ---------------------------------------------------------------------------

_UNIFORM_WANT = {"hit-decide": 24, "hit-sat": 24, "full-small": 24, "full-large": 16, "over-cap": 12}


def _uniform_truth(f, m: int, op: str, **caps) -> tuple[str, str]:
    """Verdict kind of ``op`` on ``f`` and the source of that answer."""
    if oracle.uniform_bits(f, m) <= oracle.SCALAR_MAX_BITS:
        if op == "decide":
            return ("theorem" if oracle.uniform_holds_everywhere(f, m) else "non_theorem"), "scalar"
        return ("satisfiable" if oracle.uniform_satisfiable(f, m) else "unsatisfiable"), "scalar"
    theorem = decide_uniform_theorem(f, m, jobs=2, **caps)
    dual = decide_uniform_satisfiable(Not(f), m, jobs=2, **caps)
    if theorem.certificate is not None and not check_certificate(theorem):
        raise AssertionError(f"bad certificate for {f}")
    is_theorem = theorem.kind is VerdictKind.THEOREM
    if is_theorem != (dual.kind is VerdictKind.UNSATISFIABLE):
        raise AssertionError(f"decide/sat duality broken on {f}")
    if op == "decide":
        return ("theorem" if is_theorem else "non_theorem"), "engine+duality"
    sat = decide_uniform_satisfiable(f, m, jobs=2, **caps)
    if sat.certificate is not None and not check_certificate(sat):
        raise AssertionError(f"bad certificate for {f}")
    back = decide_uniform_theorem(Not(f), m, jobs=2, **caps)
    if (sat.kind is VerdictKind.SATISFIABLE) == (back.kind is VerdictKind.THEOREM):
        raise AssertionError(f"decide/sat duality broken on {f}")
    return sat.kind.value, "engine+duality"


def record_uniform(rng: random.Random) -> list[dict]:
    entries: list[dict] = []
    have = dict.fromkeys(_UNIFORM_WANT, 0)
    seen: set[tuple] = set()
    while any(have[c] < _UNIFORM_WANT[c] for c in have):
        m = rng.choice((1, 2))
        kind = rng.random()
        if kind < 0.4:
            op = rng.choice(("decide", "sat"))
            tree = gen.random_formula(rng, rng.choice((2, 3, 4)), rng.randint(3, 5))
            cls = f"hit-{op}"
            lo, hi = 12, 20
        elif kind < 0.85:
            op = rng.choice(("decide", "sat"))
            a = gen.random_formula(rng, rng.choice((2, 3, 4)), rng.randint(2, 4))
            b = gen.random_formula(rng, rng.choice((2, 3, 4)), rng.randint(1, 3))
            tree = rng.choice(gen.VALID_SCHEMES)(a, b)
            if op == "sat":
                tree = ("!", tree)
            cls = "full-small" if rng.random() < 0.6 else "full-large"
            lo, hi = (12, 16) if cls == "full-small" else (20, 20)
        else:
            op = rng.choice(("decide", "sat"))
            cls = "over-cap"
            if rng.random() < 0.5:
                tree = gen.next_iter(gen.random_formula(rng, 1, 2), 13)
                lo, hi = 14, 16
            else:
                tree = gen.random_formula(rng, 3, rng.randint(3, 5))
                if rng.random() < 0.5:
                    tree = rng.choice(gen.VALID_SCHEMES)(tree, gen.random_formula(rng, 3, 2))
                lo, hi = 21, 21
        if have[cls] >= _UNIFORM_WANT[cls] or (tree, m, op) in seen:
            continue
        if not lo <= gen.bits(tree, m) <= hi:
            continue
        text = gen.text(tree)
        f = parse_formula(text)
        if oracle.uniform_bits(f, m) != gen.bits(tree, m):
            raise AssertionError(f"bit count disagrees with the package on {text}")
        t0 = time.perf_counter()
        entry = {"cls": cls, "op": op, "m": m, "formula": text, "bits": gen.bits(tree, m)}
        if cls == "over-cap":
            entry["expect"] = "inconclusive"
            entry["source"] = "caps"
            truth, source = _uniform_truth(f, m, op, max_atoms=24, max_worlds=16)
            entry["truth"] = {"verdict": truth, "source": source}
        else:
            truth, source = _uniform_truth(f, m, op)
            conclusive_full = truth in ("theorem", "unsatisfiable")
            if conclusive_full == cls.startswith("hit"):
                continue  # landed in another class; draw again
            entry["expect"] = truth
            entry["source"] = source
        seen.add((tree, m, op))
        have[cls] += 1
        entries.append(entry)
        _log(f"uniform-full {cls:10s} {entry['expect']:13s} {entry['bits']:2d} bits {time.perf_counter() - t0:6.2f}s {text[:60]}")
    return entries


# ---------------------------------------------------------------------------
# lasso-sweep
# ---------------------------------------------------------------------------

_LASSO_WANT = {"hit": 24, "sweep-1": 8, "sweep-2": 6}
_MAX_HIT_FRAME = 9

# Rules valid on every frame: a countermodel search has to sweep them all.
_VALID_RULE_SCHEMES = (
    lambda a, b: ([a], ("|", a, b)),
    lambda a, b: ([a, b], ("&", a, b)),
    lambda a, b: ([a], ("X", a)),
    lambda a, b: ([a], gen.always(a)),
)


def _frame_index(frame) -> int:
    for i, other in enumerate(oracle.lasso_frames(workloads.LASSO_MAX_WORLDS, workloads.LASSO_MAX_REACH)):
        if other == frame:
            return i
    raise AssertionError(f"frame {frame} is outside the search caps")


def record_lasso(rng: random.Random) -> list[dict]:
    entries: list[dict] = []
    have = dict.fromkeys(_LASSO_WANT, 0)
    seen: set[str] = set()
    caps = (workloads.LASSO_MAX_WORLDS, workloads.LASSO_MAX_REACH)
    while any(have[c] < _LASSO_WANT[c] for c in have):
        letters = rng.choice((1, 2))
        as_rule = rng.random() < 0.5
        if rng.random() < 0.5:
            cls = "hit"
            if as_rule:
                premises, conclusion = gen.random_rule(rng, letters, 2)
                text = gen.rule_text(premises, conclusion)
            else:
                text = gen.text(gen.random_formula(rng, letters, rng.randint(2, 3)))
        else:
            cls = f"sweep-{letters}"
            a = gen.random_formula(rng, letters, rng.randint(1, 2), constants=False)
            b = gen.random_formula(rng, letters, rng.randint(1, 2), constants=False)
            if as_rule:
                text = gen.rule_text(*rng.choice(_VALID_RULE_SCHEMES)(a, b))
            else:
                text = gen.text(rng.choice(gen.VALID_SCHEMES)(a, b))
        if have[cls] >= _LASSO_WANT[cls] or text in seen:
            continue
        target = parse_rule(text) if as_rule else parse_formula(text)
        if len(oracle.target_letters(target)) != letters:
            continue
        t0 = time.perf_counter()
        verdict = bounded_nt_refutation(target, *caps)
        engine_s = time.perf_counter() - t0
        if cls == "hit":
            if verdict.certificate is None or _frame_index(verdict.certificate.model.frame) >= _MAX_HIT_FRAME:
                continue
            if not check_certificate(verdict):
                raise AssertionError(f"bad certificate for {text}")
            entry = {"expect": "non_theorem", "source": "certificate"}
        else:
            if verdict.kind is not VerdictKind.INCONCLUSIVE:
                raise AssertionError(f"valid scheme refuted: {text}")
            if oracle.lasso_countermodel_exists(target, *caps):
                raise AssertionError(f"scalar search refutes {text} but the engine does not")
            entry = {"expect": "inconclusive", "source": "scalar"}
        entry = {"cls": cls, "target": "rule" if as_rule else "formula", "text": text, **entry}
        seen.add(text)
        have[cls] += 1
        entries.append(entry)
        _log(f"lasso-sweep {cls:8s} engine {engine_s:6.3f}s total {time.perf_counter() - t0:7.2f}s {text[:60]}")
    return entries


# ---------------------------------------------------------------------------
# rnf-check
# ---------------------------------------------------------------------------

_RNF_WANT = {"small": 48, "heavy": 6}
# Four-variable forms run from 65536 to 131072 disjuncts; one size keeps the
# heavy class's per-operation cost, and so the workload's throughput, steady.
_HEAVY_DISJUNCTS = 65536


def record_rnf(rng: random.Random) -> list[dict]:
    entries: list[dict] = []
    have = dict.fromkeys(_RNF_WANT, 0)
    seen: set[str] = set()
    frames = workloads.small_frames()
    while any(have[c] < _RNF_WANT[c] for c in have):
        premises, conclusion = gen.random_rule(rng, 2, 3)
        n = gen.variable_count(premises, conclusion)
        cls = "small" if n <= 3 else "heavy" if n == 4 else None
        text = gen.rule_text(premises, conclusion)
        if cls is None or have[cls] >= _RNF_WANT[cls] or text in seen:
            continue
        rule = parse_rule(text)
        rnf = to_reduced_normal_form(rule)
        if cls == "heavy" and rnf.disjunct_count != _HEAVY_DISJUNCTS:
            continue
        entry = {
            "cls": cls,
            "rule": text,
            "variables": rnf.variable_count,
            "disjuncts": rnf.disjunct_count,
            "valid": [oracle.rule_valid_in_frame(frame, rule) for frame in frames],
            "source": {"valid": "scalar", "disjuncts": "engine", "stdout_sha256": "engine"},
        }
        if cls == "small":
            entry["stdout_sha256"] = hashlib.sha256(workloads.call_cli(workloads.rnf_argv(text))[1].encode()).hexdigest()
        seen.add(text)
        have[cls] += 1
        entries.append(entry)
        _log(f"rnf-check {cls:5s} {n} vars {rnf.disjunct_count:6d} disjuncts {text[:60]}")
    return entries


# ---------------------------------------------------------------------------
# admissible
# ---------------------------------------------------------------------------

_ADMISSIBLE_WANT = {"refuted": 12, "d1-1": 12, "d1-2": 8, "d2-1": 8, "cap": 8}


def _admissible_class(status: str, letters: int, depth: int) -> str:
    """Refutations stop at the first tuple; the rest search the whole pool or stop at the cap."""
    if status == "refuted":
        return "refuted"
    if depth == 1:
        return f"d1-{letters}"
    return "d2-1" if letters == 1 else "cap"


def _scalar_admissible(rule, m: int, depth: int) -> tuple[str, dict]:
    """Status and reason from scalar theoremhood over the screens and every tuple."""
    theorem = oracle.TheoremCache(m)
    if theorem(rule.conclusion):
        return "admissible_screen", {"reason": "conclusion_is_theorem"}
    if any(theorem(Not(p)) for p in rule.premises):
        return "admissible_screen", {"reason": "premise_unsatisfiable"}
    pool = substitution_pool(depth)
    letters = rule.letters
    total = len(pool) ** len(letters)
    if total > DEFAULT_MAX_TUPLES:
        return "no_refutation", {"capped": True}
    for combo in product(pool, repeat=len(letters)):
        sub = dict(zip(letters, combo))
        if all(theorem(oracle.substitute(p, sub)) for p in rule.premises):
            if not theorem(oracle.substitute(rule.conclusion, sub)):
                return "refuted", {}
    return "no_refutation", {}


def record_admissible(rng: random.Random) -> list[dict]:
    entries: list[dict] = []
    have = dict.fromkeys(_ADMISSIBLE_WANT, 0)
    seen: set[tuple] = set()
    while any(have[c] < _ADMISSIBLE_WANT[c] for c in have):
        letters = rng.choice((1, 2))
        depth = rng.choice((1, 2))
        m = rng.choice((1, 2))
        premises, conclusion = gen.random_rule(rng, letters, 2)
        text = gen.rule_text(premises, conclusion)
        if (text, m, depth) in seen:
            continue
        rule = parse_rule(text)
        if len(rule.letters) != letters:
            continue
        t0 = time.perf_counter()
        report = decide_admissible(rule, m, depth)
        engine_s = time.perf_counter() - t0
        if report.status is AdmissibilityStatus.ADMISSIBLE_SCREEN:
            continue  # settled by the screens: no substitution search to measure
        status, extra = _scalar_admissible(rule, m, depth)
        if status != report.status.value or extra.get("capped", False) != (report.cap_note is not None):
            raise AssertionError(f"engine says {report.status.value}, scalar says {status} on {text}")
        cls = _admissible_class(status, letters, depth)
        if have[cls] >= _ADMISSIBLE_WANT[cls]:
            continue
        entry = {
            "cls": cls,
            "rule": text,
            "m": m,
            "depth": depth,
            "expect": status,
            "capped": extra.get("capped", False),
            "source": "tuple count" if extra.get("capped") else "scalar",
        }
        seen.add((text, m, depth))
        have[cls] += 1
        entries.append(entry)
        _log(f"admissible {cls:4s} {status:13s} engine {engine_s:6.3f}s total {time.perf_counter() - t0:6.2f}s {text[:50]}")
    return entries


RECORDERS = {
    "uniform-full": record_uniform,
    "lasso-sweep": record_lasso,
    "rnf-check": record_rnf,
    "admissible": record_admissible,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(RECORDERS), action="append")
    parser.add_argument("--pool-seed", type=int, default=1)
    args = parser.parse_args()
    EXPECTED_DIR.mkdir(exist_ok=True)
    for name in args.workload or sorted(RECORDERS):
        t0 = time.perf_counter()
        entries = RECORDERS[name](random.Random(f"{name}/{args.pool_seed}"))
        doc = {
            "workload": name,
            "pool_seed": args.pool_seed,
            "recorded_at": env.provenance(),
            "entries": entries,
        }
        path = EXPECTED_DIR / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        _log(f"wrote {path.relative_to(HERE.parent)}: {len(entries)} entries in {time.perf_counter() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
