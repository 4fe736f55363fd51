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
   reads each premise or conclusion instance's kind once and later tuples
   reuse it.  A formula reading every letter meets a new instance in every
   tuple and keeps only the current one's kind.
7. The search and the screens read kinds, not verdicts.  An instance past
   the caps is Inconclusive.  One of at most ``ONE_WORD_BITS`` valuation
   bits is evaluated on one evaluator shared by every formula with its
   (width, letters) window, and is a theorem iff its world-0 row holds at
   every valuation.  That is exact: there the decide scans the same frame,
   the same letters and every valuation.  A wider instance is decided.  The
   candidates are shared subtrees, so their tables are built once per
   search; after each read the tables of the nodes the substitution built
   are dropped, so only candidate tables stay.  Only a refuting tuple's
   conclusion is decided, for its countermodel: a theorem verdict carries
   nothing but its kind.
8. A conjunction holds at world 0 iff each conjunct does, its window is the
   widest conjunct's and its letters are the union of theirs.  So a premise
   or conclusion that is an ``&`` chain, one of whose conjuncts reads fewer
   letters than the whole, is read conjunct by conjunct, each keyed on the
   letters it reads.  Its kind is Inconclusive when that window is past the
   caps, else a theorem iff every conjunct is.  A premise stops at its first
   conjunct that is no theorem: the conjunction is none either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import product
from typing import Callable, Mapping, Optional

from .decide import (
    ONE_WORD_BITS,
    Verdict,
    VerdictKind,
    decide_uniform_theorem,
    uniform_window,
    verdict_to_dict,
    window_fits,
)
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


# The kind of an instance's theoremhood, with the letters and window width it was read at (none past the caps).
Reading = tuple[VerdictKind, tuple[str, ...], int]


class _Kinds:
    """Theorem kinds of uniform formulas at one memory length and caps, read off shared window tables.

    :meth:`read` gives the kind :func:`~itl.decide.decide_uniform_theorem`
    gives.  A formula of at most ``ONE_WORD_BITS`` valuation bits is
    evaluated on the one evaluator of its (width, letters) window and is a
    theorem iff its world-0 row holds at every valuation; a wider one is
    decided (module docstring, point 7).  One reader serves one
    :func:`decide_admissible` call and is dropped with it.
    """

    def __init__(self, m: int, max_atoms: Optional[int], max_worlds: Optional[int]):
        self.m = m
        self.caps = {"max_atoms": max_atoms, "max_worlds": max_worlds}
        self._windows: dict[tuple[tuple[str, ...], int], BatchEvaluator] = {}

    def read(self, f: Formula, pattern: Optional[Formula] = None) -> Reading:
        """The reading of ``f``; for an instance of ``pattern``, drop the tables of the nodes the substitution built."""
        window = uniform_window(f, self.m, **self.caps)
        if window is None:
            return VerdictKind.INCONCLUSIVE, (), 0
        letters, width = window
        if len(letters) * width > ONE_WORD_BITS:
            return decide_uniform_theorem(f, self.m, **self.caps).kind, letters, width
        ev = self._windows.get(window)
        if ev is None:
            frame = UniformWindowFrame(width, self.m)
            ev = self._windows[window] = BatchEvaluator(frame, letters, range(1 << len(letters) * width))
        holds = (ev.table(f)[0, 0, 0] & ev.valid) == ev.valid
        if pattern is not None:
            # apply_substitution builds a node for every node of the pattern but its leaves
            stack = [(pattern, f)]
            while stack:
                g, instance = stack.pop()
                kids = children(g)
                if kids:
                    ev.forget(instance)
                    stack.extend(zip(kids, children(instance)))
        return (VerdictKind.THEOREM if holds else VerdictKind.NON_THEOREM), letters, width

    def conjunction(self, readings: list[Reading]) -> VerdictKind:
        """The kind of a conjunction from the readings of its conjuncts (module docstring, point 8)."""
        if any(kind is VerdictKind.INCONCLUSIVE for kind, _, _ in readings):
            return VerdictKind.INCONCLUSIVE  # a conjunct's window past the caps is inside the conjunction's
        letters = set().union(*(read for _, read, _ in readings))
        width = max(width for _, _, width in readings)
        if not window_fits(len(letters), width, **self.caps):
            return VerdictKind.INCONCLUSIVE
        theorem = all(kind is VerdictKind.THEOREM for kind, _, _ in readings)
        return VerdictKind.THEOREM if theorem else VerdictKind.NON_THEOREM


def _conjuncts(f: Formula) -> list[Formula]:
    """The conjuncts of the ``&`` chain ``f``, left to right, each object once; ``[f]`` when it is not one."""
    out: dict[int, Formula] = {}
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, And):
            stack += (g.right, g.left)
        else:
            out.setdefault(id(g), g)
    return list(out.values())


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
    process for each (depth, m, world cap), each instance is read once per
    search, off a shared window table, and a conjunction conjunct by
    conjunct (points 5 to 8).  The tuple cap counts pool tuples.
    """
    return _search(rule, depth, _Kinds(m, max_atoms, max_worlds), max_tuples)


def _search(rule: Rule, depth: int, kinds: _Kinds, max_tuples: Optional[int]) -> AdmissibilityReport:
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
    max_worlds = kinds.caps["max_worlds"]
    world_cap = DEFAULT_MAX_WORLDS if max_worlds is None else max_worlds
    candidates = _records(depth, kinds.m, world_cap) if letters else ()  # a letterless rule has the one empty tuple
    # Per rule formula or conjunct: where its letters sit in a tuple, and the readings of its instances so far
    # (point 6).  A conjunction is read by its conjuncts when one of them reads fewer letters (point 8).
    known: dict[int, tuple[list[int], dict[tuple[int, ...], Reading]]] = {}
    parts: dict[int, list[Formula]] = {}

    def track(f: Formula) -> None:
        known[id(f)] = [letters.index(a) for a in letters_of(f)], {}

    for f in (*rule.premises, rule.conclusion):
        track(f)
        conjuncts = _conjuncts(f)
        if len(conjuncts) > 1 and any(len(letters_of(g)) < len(known[id(f)][0]) for g in conjuncts):
            parts[id(f)] = conjuncts
            for g in conjuncts:
                track(g)

    def reading(f: Formula, picks: tuple[int, ...]) -> Reading:
        reads, cache = known[id(f)]
        key = tuple([picks[i] for i in reads])
        hit = cache.get(key)
        if hit is None:
            if len(key) == len(letters):
                cache.clear()  # every later tuple is a new instance
            hit = cache[key] = kinds.read(apply_substitution(f, substitution(picks)), f)
        return hit

    def theorem(f: Formula, picks: tuple[int, ...]) -> bool:
        split = parts.get(id(f))
        if split is None:
            return reading(f, picks)[0] is VerdictKind.THEOREM
        readings = []
        for g in split:
            readings.append(reading(g, picks))
            if readings[-1][0] is not VerdictKind.THEOREM:
                return False  # then the conjunction is no theorem either, whatever its window
        return kinds.conjunction(readings) is VerdictKind.THEOREM

    def non_theorem(f: Formula, picks: tuple[int, ...]) -> bool:
        split = parts.get(id(f))
        kind = reading(f, picks)[0] if split is None else kinds.conjunction([reading(g, picks) for g in split])
        return kind is VerdictKind.NON_THEOREM

    def substitution(picks: tuple[int, ...]) -> dict[str, Formula]:
        return {a: candidates[i] for a, i in zip(letters, picks)}

    for picks in product(range(len(candidates)), repeat=len(letters)):
        if all(theorem(p, picks) for p in rule.premises) and non_theorem(rule.conclusion, picks):
            sub = substitution(picks)
            # A theorem verdict carries nothing but its kind; the conclusion's carries the countermodel.
            conclusion = apply_substitution(rule.conclusion, sub)
            return AdmissibilityReport(
                AdmissibilityStatus.REFUTED,
                substitution=sub,
                premise_verdicts=tuple(Verdict(VerdictKind.THEOREM) for _ in rule.premises),
                conclusion_verdict=decide_uniform_theorem(conclusion, kinds.m, **kinds.caps),
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
    return _screen(rule, _Kinds(m, max_atoms, max_worlds))


def _screen(rule: Rule, kinds: _Kinds) -> Optional[AdmissibilityReport]:
    if kinds.read(rule.conclusion)[0] is VerdictKind.THEOREM:
        return AdmissibilityReport(AdmissibilityStatus.ADMISSIBLE_SCREEN, reason="conclusion_is_theorem")
    for p in rule.premises:
        if kinds.read(Not(p))[0] is VerdictKind.THEOREM:
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
    """Screens first, bounded refutation search otherwise, both reading kinds through one reader."""
    kinds = _Kinds(m, max_atoms, max_worlds)
    return _screen(rule, kinds) or _search(rule, depth, kinds, max_tuples)


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
