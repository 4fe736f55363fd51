"""Bounded admissibility search for inference rules.

A rule is admissible when every substitution instance with all-theorem
premises has a theorem conclusion.  We search for a *refuting* substitution
over a small formula pool (constants, one letter, closed under !, X, U, &,
up to a tree depth); a hit certifies non-admissibility with re-checkable
verdicts.  No hit only means "no refutation found at this depth": the
routine never claims admissibility from a bounded search, only the fast
screens do (theorem conclusion, or an unsatisfiable premise, both of which
make every instance harmless).

Equivalence in the uniform logic is a congruence, so pool formulas with the
same truth table are interchangeable in every substitution instance.  The
search therefore tries tuples of class first members (in pool order) and
finds the tuple the search over the whole pool would find first: a class
first reaches no further and has no more letters than any member of its
class, so its instances stay inside every cap its members' instances fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Mapping, Optional, Sequence

from .decide import Verdict, VerdictKind, decide_uniform_theorem, verdict_to_dict
from .frames import UniformWindowFrame
from .limits import DEFAULT_MAX_ATOMS
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
from .tables import BatchEvaluator

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


# The constructors that grow the substitution pool by one level.
_UNARY = (Not, Next)
_BINARY = (Until, And)


def substitution_pool(depth: int, letter: str = "p") -> list[Formula]:
    """All formulas over {true, false, letter} closed under !, X, U, & up to ``depth``.

    Deduplicated structurally; deterministic order (generation order by
    level).  Every child of a member is an earlier member.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    pool: list[Formula] = [TRUE, FALSE, Letter(letter)]
    # Members are structurally distinct and built from members, so two
    # candidates are equal exactly when their constructors and child
    # identities are: no recursive hashing of the trees.
    seen: set[tuple] = set()

    def add(build: type, *kids: Formula) -> None:
        key = (build, *map(id, kids))
        if key not in seen:
            seen.add(key)
            pool.append(build(*kids))

    for _ in range(depth):
        snapshot = list(pool)
        for f in snapshot:
            for build in _UNARY:
                add(build, f)
        for f in snapshot:
            for h in snapshot:
                for build in _BINARY:
                    add(build, f, h)
    return pool


def pool_size(depth: int) -> int:
    """Length of ``substitution_pool(depth)``, computed without building it.

    A pool one level deeper holds the three leaves, each unary constructor
    over each member and each binary constructor over each pair, all
    distinct: ``s(0) = 3`` and ``s(k+1) = 3 + 2 s(k) + 2 s(k)**2`` for the
    two of each kind.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    size = 3
    for _ in range(depth):
        size = 3 + len(_UNARY) * size + len(_BINARY) * size * size
    return size


def pool_class_firsts(pool: Sequence[Formula], m: int) -> Optional[list[int]]:
    """Index of the first member of each member's equivalence class, or None.

    ``pool`` is a :func:`substitution_pool`.  Two members are equivalent at
    memory ``m`` exactly when their world-0 rows agree on every valuation of
    a window as wide as the larger reach, so members are keyed on their
    world-0 rows on the window of the pool's largest reach ``R``.
    Equivalence is a congruence: a member whose constructor and child
    classes match an earlier member's shares its class without being
    evaluated.

    None when the window's valuation bits (``R + 1`` per letter) exceed
    ``DEFAULT_MAX_ATOMS``, and when some member's class first reaches
    further than the member does: substituting the first could then push an
    instance over a cap the member's instance fits.  Letters need no check:
    a letterless member has a constant row, so its class first is ``true``
    or ``false``, the pool's first two members.
    """
    kids = [children(f) for f in pool]
    reaches: dict[int, int] = {}  # a member's children come before it
    for f, fk in zip(pool, kids):
        r = max([reaches[id(c)] for c in fk], default=0)
        reaches[id(f)] = r + (1 if isinstance(f, Next) else m if isinstance(f, Until) else 0)
    width = max(reaches.values()) + 1
    letters = [f.name for f in pool if isinstance(f, Letter)]
    bits = len(letters) * width
    if bits > DEFAULT_MAX_ATOMS:
        return None
    ev = BatchEvaluator(UniformWindowFrame(width, m), letters, range(1 << bits))
    first_of_row: dict = {}
    first_of_shape: dict = {}
    class_of: dict[int, int] = {}
    for i, (f, fk) in enumerate(zip(pool, kids)):
        shape = (type(f), *[class_of[id(c)] for c in fk]) if fk else f  # a leaf is its own shape
        first = first_of_shape.get(shape)
        if first is None:
            row = ev.table(f)[0]
            key = (row & ev.valid).tobytes()
            first = first_of_shape[shape] = first_of_row.setdefault(key, i)
        class_of[id(f)] = first
    firsts = [class_of[id(f)] for f in pool]
    if any(reaches[id(pool[first])] > reaches[id(f)] for f, first in zip(pool, firsts)):
        return None
    return firsts


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
    only fully certified refutations are ever reported.  Tuples run over the
    class first members of :func:`pool_class_firsts`, or over the whole pool
    when it returns None; either way the report is the whole pool's.  The
    tuple cap counts pool tuples.
    """
    letters = rule.letters
    cap = DEFAULT_MAX_TUPLES if max_tuples is None else max_tuples
    total = pool_size(depth) ** len(letters)  # checked before a pool that may never finish is built
    if total > cap:
        return AdmissibilityReport(
            AdmissibilityStatus.NO_REFUTATION,
            depth=depth,
            cap_note=f"{total} substitution tuples exceed the cap of {cap}",
        )
    candidates: Sequence[Formula] = ()  # a letterless rule has the one empty tuple, and needs no pool
    if letters:
        # Replacing each component of the whole pool's first refuting tuple
        # by its class's first member gives a tuple no later in product
        # order whose instances are equivalent and fit the same caps, so the
        # class search stops at that same tuple.
        candidates = pool = substitution_pool(depth)
        firsts = pool_class_firsts(pool, m)
        if firsts is not None:
            candidates = [pool[i] for i in sorted(set(firsts))]
    kwargs = {"max_atoms": max_atoms, "max_worlds": max_worlds}
    for combo in product(candidates, repeat=len(letters)):
        sub = dict(zip(letters, combo))
        premise_verdicts = []
        for p in rule.premises:
            premise_verdicts.append(decide_uniform_theorem(apply_substitution(p, sub), m, **kwargs))
            if premise_verdicts[-1].kind is not VerdictKind.THEOREM:
                break
        else:
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
