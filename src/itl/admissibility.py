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
4. Members past the world cap never refute.  A member reaching
   ``max_worlds`` or further makes every instance it enters reach as far,
   so that premise's or conclusion's verdict is Inconclusive and the tuple
   refutes nothing; ``T`` is made of records within the cap.  Any superset
   of those records drawn from the pool and walked in pool order meets
   ``T`` before any other refuting tuple, since its product order is the
   pool's restricted to it, so it finds ``T`` too.
5. The records depend only on (depth, m, world cap).  Their key window uses
   the constant ``DEFAULT_MAX_ATOMS``, so the search builds them once per
   process for each of those keys and walks the same records every time.
6. An instance's verdict depends only on the candidates of the letters its
   formula reads: ``m`` and the caps are fixed for the search.  So the search
   decides each premise or conclusion instance once and later tuples reuse
   its kind.  A formula reading every letter meets a new instance in every
   tuple and keeps only the current one's kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import product
from typing import Callable, Mapping, Optional

from .decide import Verdict, VerdictKind, decide_uniform_theorem, verdict_to_dict
from .frames import UniformWindowFrame
from .limits import DEFAULT_MAX_ATOMS, DEFAULT_MAX_WORLDS, MAX_PRINTED_DIGITS
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
    letters_of,
    print_formula,
    reach,
)
from .tables import BatchEvaluator

Substitution = Mapping[str, Formula]

DEFAULT_MAX_TUPLES = 100_000

# The largest tuple count a cap note prints in full.
_PRINTABLE = 10**MAX_PRINTED_DIGITS - 1

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


def _grow(depth: int, admit: Callable[[Formula], bool]) -> list[Formula]:
    """The leaves, then per level each unary and each binary constructor over the members so far.

    A structurally new candidate becomes a member when ``admit`` accepts it.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    pool = [f for f in (TRUE, FALSE, Letter("p")) if admit(f)]
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


def substitution_pool(depth: int) -> list[Formula]:
    """All formulas over {true, false, p} closed under !, X, U, & up to ``depth``.

    Deduplicated structurally; deterministic order (generation order by
    level).  Every child of a member is an earlier member.
    """
    return _grow(depth, lambda f: True)


def pool_size(depth: int) -> int:
    """Length of ``substitution_pool(depth)``, computed without building it.

    A pool one level deeper holds the three leaves, each unary constructor
    over each member and each binary constructor over each pair, all
    distinct: ``s(0) = 3`` and ``s(k+1) = 3 + 2 s(k) + 2 s(k)**2`` for the
    two of each kind.
    """
    return _tuple_count(depth, 1, math.inf)


def _tuple_count(depth: int, letters: int, limit: float) -> Optional[int]:
    """``pool_size(depth) ** letters``, or None once that count passes ``limit``.

    The count stops growing there, so a deep pool costs no more than a
    shallow one; a letterless rule has its one empty tuple at any depth.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if not letters:
        return 1
    size = 3
    for _ in range(depth):
        size = 3 + len(_UNARY) * size + len(_BINARY) * size * size
        if size > limit:
            return None
    count = 1
    for _ in range(letters):
        count *= size
        if count > limit:
            return None
    return count


def pool_classes(depth: int, m: int, max_worlds: Optional[int] = None) -> list[Formula]:
    """The reach records of ``substitution_pool(depth)`` at memory ``m`` within the world cap, in pool order.

    A candidate grown from the members kept so far is left out when it
    reaches ``max_worlds`` or further: it never refutes (module docstring),
    and reach never shrinks under a constructor, so nothing grown from it
    would fit either.  The rest are keyed on their world-0 row over the
    pool's widest window, ``depth * m + 1`` worlds, narrowed to the world
    cap and to ``DEFAULT_MAX_ATOMS`` valuation bits, and kept when they
    reach less far than every member under their key.  A candidate reaching
    past that window, which takes a world cap above ``DEFAULT_MAX_ATOMS``,
    is kept as a class of its own.
    """
    world_cap = DEFAULT_MAX_WORLDS if max_worlds is None else max_worlds
    width = max(1, min(depth * m + 1, world_cap, DEFAULT_MAX_ATOMS))  # a frame has a world even at cap 0
    ev = BatchEvaluator(UniformWindowFrame(width, m), ["p"], range(1 << width))
    least: dict[bytes, int] = {}  # least reach kept under each key

    def admit(f: Formula) -> bool:
        r = reach(f, m)
        if r >= world_cap:
            return False
        if r >= width:
            return True
        key = (ev.table(f)[0] & ev.valid).tobytes()
        if r < least.get(key, r + 1):
            least[key] = r
            return True
        ev.forget(f)  # candidates grow from kept members only, so nothing reads this table again
        return False

    return _grow(depth, admit)


@lru_cache(maxsize=32)  # every search at the same (depth, m, world cap) walks the same records
def _records(depth: int, m: int, world_cap: int) -> tuple[Formula, ...]:
    return tuple(pool_classes(depth, m, world_cap))


class AdmissibilityStatus(Enum):
    REFUTED = "refuted"
    NO_REFUTATION = "no_refutation"
    ADMISSIBLE_SCREEN = "admissible_screen"


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
    only fully certified refutations are ever reported.  Tuples run over
    :func:`pool_classes` at the world cap, and the report is the whole
    pool's, because the whole pool's first refuting tuple is made of records
    within that cap (module docstring).  The records are built once per
    process for each (depth, m, world cap), and each instance is decided once
    per search (points 5 and 6).  The tuple cap counts pool tuples.
    """
    letters = rule.letters
    cap = DEFAULT_MAX_TUPLES if max_tuples is None else max_tuples
    # Counted before a pool that may never finish is built, and no further than can be printed.
    total = _tuple_count(depth, len(letters), max(cap, _PRINTABLE))
    if total is None or total > cap:
        count = f"at least 10^{MAX_PRINTED_DIGITS}" if total is None else total
        return AdmissibilityReport(
            AdmissibilityStatus.NO_REFUTATION,
            depth=depth,
            cap_note=f"{count} substitution tuples exceed the cap of {cap}",
        )
    world_cap = DEFAULT_MAX_WORLDS if max_worlds is None else max_worlds
    candidates = _records(depth, m, world_cap) if letters else ()  # a letterless rule has the one empty tuple
    kwargs = {"max_atoms": max_atoms, "max_worlds": max_worlds}
    formulas = (*rule.premises, rule.conclusion)
    # Where each formula's letters sit in a tuple, and the kinds of its instances decided so far (point 6).
    reads = {id(f): [letters.index(a) for a in letters_of(f)] for f in formulas}
    kinds: dict[int, dict[tuple[int, ...], VerdictKind]] = {key: {} for key in reads}
    decided: dict[int, Verdict] = {}  # the verdicts decided for the current tuple

    def verdict(f: Formula, sub: Substitution) -> Verdict:
        return decide_uniform_theorem(apply_substitution(f, sub), m, **kwargs)

    def kind(f: Formula, picks: tuple[int, ...], sub: Substitution) -> VerdictKind:
        known = kinds[id(f)]
        key = tuple(picks[i] for i in reads[id(f)])
        if key not in known:
            if len(key) == len(letters):
                known.clear()  # every later tuple is a new instance
            decided[id(f)] = verdict(f, sub)
            known[key] = decided[id(f)].kind
        return known[key]

    for picks in product(range(len(candidates)), repeat=len(letters)):
        sub = {a: candidates[i] for a, i in zip(letters, picks)}
        decided.clear()
        if (
            all(kind(p, picks, sub) is VerdictKind.THEOREM for p in rule.premises)
            and kind(rule.conclusion, picks, sub) is VerdictKind.NON_THEOREM
        ):
            # The report carries all the tuple's verdicts: one an earlier tuple decided is decided again.
            verdicts = [decided.get(id(f)) or verdict(f, sub) for f in formulas]
            return AdmissibilityReport(
                AdmissibilityStatus.REFUTED,
                substitution=sub,
                premise_verdicts=tuple(verdicts[:-1]),
                conclusion_verdict=verdicts[-1],
                depth=depth,
            )
    return AdmissibilityReport(AdmissibilityStatus.NO_REFUTATION, depth=depth)


def admissibility_consequences_check(
    rule: Rule,
    m: int,
    *,
    max_atoms: Optional[int] = None,
    max_worlds: Optional[int] = None,
) -> Optional[AdmissibilityReport]:
    """Fast screens that settle admissibility without a substitution search.

    A theorem conclusion makes every instance's conclusion a theorem; a
    premise whose negation is a theorem has no theorem instances at all, so
    the rule is vacuously admissible.  Anything else returns None and is left
    to :func:`search_refuting_substitution`.
    """
    kwargs = {"max_atoms": max_atoms, "max_worlds": max_worlds}
    cv = decide_uniform_theorem(rule.conclusion, m, **kwargs)
    if cv.kind is VerdictKind.THEOREM:
        return AdmissibilityReport(AdmissibilityStatus.ADMISSIBLE_SCREEN, reason="conclusion_is_theorem")
    for p in rule.premises:
        nv = decide_uniform_theorem(Not(p), m, **kwargs)
        if nv.kind is VerdictKind.THEOREM:
            return AdmissibilityReport(AdmissibilityStatus.ADMISSIBLE_SCREEN, reason="premise_unsatisfiable")
    return None


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
    return screen or search_refuting_substitution(
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
