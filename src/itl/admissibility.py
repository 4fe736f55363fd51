"""Bounded admissibility search for inference rules.

A rule is admissible when every substitution instance with all-theorem
premises has a theorem conclusion.  We search for a *refuting* substitution
over a small formula pool (constants, one letter, closed under !, X, U, &,
up to a tree depth); a hit certifies non-admissibility with re-checkable
verdicts.  No hit only means "no refutation found at this depth": the
routine never claims admissibility from a bounded search, only the fast
screens do (theorem conclusion, or an unsatisfiable premise, both of which
make every instance harmless).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Mapping, Optional

from .decide import Verdict, VerdictKind, decide_uniform_theorem, verdict_to_dict
from .syntax import (
    FALSE,
    TRUE,
    And,
    Formula,
    Letter,
    Next,
    Not,
    Rule,
    Until,
    children,
    print_formula,
)

Substitution = Mapping[str, Formula]

DEFAULT_MAX_TUPLES = 100_000

POOL_SIGNATURE = "closure of {true, false, p} under !, X, U, &"


def apply_substitution(f: Formula, s: Substitution) -> Formula:
    """Simultaneously replace each letter of ``f`` by its image under ``s``."""
    if isinstance(f, Letter):
        try:
            return s[f.name]
        except KeyError:
            raise KeyError(f"unmapped letter {f.name!r}") from None
    kids = children(f)
    return type(f)(*[apply_substitution(c, s) for c in kids]) if kids else f


def substitution_pool(depth: int, letter: str = "p") -> list[Formula]:
    """All formulas over {true, false, letter} closed under !, X, U, & up to ``depth``.

    Deduplicated structurally; deterministic order (generation order by
    level).
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    pool: list[Formula] = [TRUE, FALSE, Letter(letter)]
    seen = set(pool)
    for _ in range(depth):
        snapshot = list(pool)
        for f in snapshot:
            for g in (Not(f), Next(f)):
                if g not in seen:
                    seen.add(g)
                    pool.append(g)
        for f in snapshot:
            for h in snapshot:
                for g in (Until(f, h), And(f, h)):
                    if g not in seen:
                        seen.add(g)
                        pool.append(g)
    return pool


class AdmissibilityStatus(Enum):
    REFUTED = "refuted"
    NO_REFUTATION = "no_refutation"
    ADMISSIBLE_SCREEN = "admissible_screen"
    DEFERRED = "deferred"


@dataclass(frozen=True)
class AdmissibilityReport:
    status: AdmissibilityStatus
    substitution: Optional[dict[str, Formula]] = None
    premise_verdicts: Optional[tuple[Verdict, ...]] = None
    conclusion_verdict: Optional[Verdict] = None
    depth: Optional[int] = None
    reason: Optional[str] = None
    cap_note: Optional[str] = None


def search_refuting_substitution(
    rule: Rule,
    m: int,
    depth: int,
    *,
    max_tuples: Optional[int] = None,
    max_atoms: Optional[int] = None,
    max_worlds: Optional[int] = None,
) -> AdmissibilityReport:
    """Look for a substitution making all premises theorems but not the conclusion.

    Premise theoremhood is checked at the given memory length ``m``; an
    Inconclusive premise verdict conservatively disqualifies the tuple, so
    only fully certified refutations are ever reported.
    """
    pool = substitution_pool(depth)
    letters = rule.letters
    cap = DEFAULT_MAX_TUPLES if max_tuples is None else max_tuples
    total = len(pool) ** len(letters)
    if total > cap:
        return AdmissibilityReport(
            AdmissibilityStatus.NO_REFUTATION,
            depth=depth,
            cap_note=f"{total} substitution tuples exceed the cap of {cap}",
        )
    kwargs = {"max_atoms": max_atoms, "max_worlds": max_worlds}
    for combo in product(pool, repeat=len(letters)):
        sub = dict(zip(letters, combo))
        premise_verdicts = []
        all_theorems = True
        for p in rule.premises:
            v = decide_uniform_theorem(apply_substitution(p, sub), m, **kwargs)
            premise_verdicts.append(v)
            if v.kind is not VerdictKind.THEOREM:
                all_theorems = False
                break
        if not all_theorems:
            continue
        cv = decide_uniform_theorem(apply_substitution(rule.conclusion, sub), m, **kwargs)
        if cv.kind is VerdictKind.NON_THEOREM:
            return AdmissibilityReport(
                AdmissibilityStatus.REFUTED,
                substitution=sub,
                premise_verdicts=tuple(premise_verdicts),
                conclusion_verdict=cv,
                depth=depth,
            )
    return AdmissibilityReport(AdmissibilityStatus.NO_REFUTATION, depth=depth)


def admissibility_consequences_check(
    rule: Rule,
    m: int,
    *,
    max_atoms: Optional[int] = None,
    max_worlds: Optional[int] = None,
) -> AdmissibilityReport:
    """Fast screens that settle admissibility without a substitution search.

    A theorem conclusion makes every instance's conclusion a theorem; a
    premise whose negation is a theorem has no theorem instances at all, so
    the rule is vacuously admissible.  Anything else is deferred to
    :func:`search_refuting_substitution`.
    """
    kwargs = {"max_atoms": max_atoms, "max_worlds": max_worlds}
    cv = decide_uniform_theorem(rule.conclusion, m, **kwargs)
    if cv.kind is VerdictKind.THEOREM:
        return AdmissibilityReport(AdmissibilityStatus.ADMISSIBLE_SCREEN, reason="conclusion_is_theorem")
    for p in rule.premises:
        nv = decide_uniform_theorem(Not(p), m, **kwargs)
        if nv.kind is VerdictKind.THEOREM:
            return AdmissibilityReport(AdmissibilityStatus.ADMISSIBLE_SCREEN, reason="premise_unsatisfiable")
    return AdmissibilityReport(AdmissibilityStatus.DEFERRED)


def decide_admissible(
    rule: Rule,
    m: int,
    depth: int,
    *,
    max_tuples: Optional[int] = None,
    max_atoms: Optional[int] = None,
    max_worlds: Optional[int] = None,
) -> AdmissibilityReport:
    """Screens first, bounded refutation search otherwise."""
    screen = admissibility_consequences_check(rule, m, max_atoms=max_atoms, max_worlds=max_worlds)
    if screen.status is not AdmissibilityStatus.DEFERRED:
        return screen
    return search_refuting_substitution(
        rule, m, depth, max_tuples=max_tuples, max_atoms=max_atoms, max_worlds=max_worlds
    )


def report_to_dict(report: AdmissibilityReport) -> dict:
    out: dict = {"status": report.status.value, "substitution": None, "certificates": []}
    if report.substitution is not None:
        out["substitution"] = {name: print_formula(f) for name, f in sorted(report.substitution.items())}
    if report.conclusion_verdict is not None:
        out["certificates"] = [verdict_to_dict(report.conclusion_verdict)]
    if report.depth is not None:
        out["pool"] = {"depth": report.depth, "signature": POOL_SIGNATURE}
    if report.reason is not None:
        out["reason"] = report.reason
    if report.cap_note is not None:
        out["cap_note"] = report.cap_note
    return out
