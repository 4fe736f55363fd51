"""Bounded admissibility search for inference rules.

A rule is admissible when every substitution instance with all-theorem
premises has a theorem conclusion.  We search for a *refuting* substitution
over a small formula pool (constants, one letter, closed under !, X, U, &,
up to a tree depth); a hit certifies non-admissibility with re-checkable
verdicts.  No hit only means "no refutation found at this depth": the
routine never claims admissibility from a bounded search, only the fast
screens do (theorem conclusion, or an unsatisfiable premise, both of which
make every instance harmless).

Equivalence in the uniform logic is a congruence, so the search tries
tuples of *reach records* only: members that reach less far than every
earlier member of their class.  Let ``rr(c)`` be the earliest member of
``c``'s class reaching no further than ``c``, a record.  Then:

1. Every member has a record that serves in its place.  Replacing each
   component of the whole pool's first refuting tuple ``T`` by its ``rr``
   gives a tuple no later in product order whose instances are equivalent,
   reach no further and have no more letters (a letterless member's record
   is ``true`` or ``false``), so they fit the same caps and get the same
   verdicts: it refutes too, so it is ``T``, made of records.
2. Records are built from records.  If ``C(a, b)`` is a record, then
   ``C(rr(a), rr(b))`` is equivalent, reaches no further and is offered no
   later (its children sit earlier in the snapshot), so it is ``C(a, b)``:
   :func:`pool_classes` grows the records from records alone.
3. At depth <= 2 the records are exactly the class first members.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Callable, Mapping, Optional

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
    reach,
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


def _grow(depth: int, letter: str, admit: Callable[[Formula], bool]) -> list[Formula]:
    """The leaves, then per level each unary and each binary constructor over the members so far.

    A structurally new candidate becomes a member when ``admit`` accepts it.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    pool = [f for f in (TRUE, FALSE, Letter(letter)) if admit(f)]
    # Members are structurally distinct and built from members, so two
    # candidates are equal exactly when their constructors and child
    # identities are: no recursive hashing of the trees.
    seen: set[tuple] = set()

    def offer(build: type, *kids: Formula) -> None:
        key = (build, *map(id, kids))
        if key not in seen:
            seen.add(key)
            f = build(*kids)
            if admit(f):
                pool.append(f)

    for _ in range(depth):
        snapshot = list(pool)
        for f in snapshot:
            for build in _UNARY:
                offer(build, f)
        for f in snapshot:
            for h in snapshot:
                for build in _BINARY:
                    offer(build, f, h)
    return pool


def substitution_pool(depth: int, letter: str = "p") -> list[Formula]:
    """All formulas over {true, false, letter} closed under !, X, U, & up to ``depth``.

    Deduplicated structurally; deterministic order (generation order by
    level).  Every child of a member is an earlier member.
    """
    return _grow(depth, letter, lambda f: True)


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


def pool_classes(depth: int, m: int) -> Optional[list[Formula]]:
    """The reach records of ``substitution_pool(depth)`` at memory ``m``, in pool order, or None.

    A candidate grown from records is keyed on its world-0 row over the
    pool's widest window, ``depth * m + 1`` worlds, and kept when it reaches
    less far than every record under its key.  None when that window has
    more than ``DEFAULT_MAX_ATOMS`` valuation bits.
    """
    width = depth * m + 1  # every level reaches at most m further
    if width > DEFAULT_MAX_ATOMS:
        return None
    ev = BatchEvaluator(UniformWindowFrame(width, m), ["p"], range(1 << width))
    least: dict[bytes, int] = {}  # least reach kept under each key

    def admit(f: Formula) -> bool:
        key = (ev.table(f)[0] & ev.valid).tobytes()
        r = reach(f, m)
        if r < least.get(key, r + 1):
            least[key] = r
            return True
        ev.forget(f)  # candidates grow from records only, so nothing reads this table again
        return False

    return _grow(depth, "p", admit)


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
    reach records of :func:`pool_classes`, or over the whole pool when it
    returns None; either way the report is the whole pool's, because the
    whole pool's first refuting tuple is made of records (module
    docstring).  The tuple cap counts pool tuples.
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
    classes = pool_classes(depth, m) if letters else ()  # a letterless rule has the one empty tuple, and needs no pool
    candidates = substitution_pool(depth) if classes is None else classes
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
