"""Truth evaluation under bounded-window semantics, plus a classic-LTL oracle.

The window evaluator (:func:`eval_nt`) reads Until with a witness inside the
current world's window only: ``f U g`` holds at ``a`` iff some world ``b``
visible from ``a`` (in path order) satisfies ``g`` while every world strictly
before ``b`` on that path satisfies ``f``.  The witness may be ``a`` itself,
so ``q -> (p U q)`` is valid.  :func:`eval_classic` is the usual unbounded
semantics on an ultimately periodic model and serves as a differential
oracle: the two evaluators agree on Next-only formulas and split on Until.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import normalform, tables
from .frames import (
    Frame,
    FrameError,
    Model,
    MultiAgentModel,
    UniformWindowFrame,
    Valuation,
    WindowOverflowError,
)
from .limits import DEFAULT_MAX_ATOMS, ResourceCapError
from .syntax import (
    And,
    FalseBool,
    Formula,
    Implies,
    Letter,
    Next,
    Not,
    Or,
    Rule,
    TrueBool,
    Until,
    box,
    diamond,
    reach,
    subformulas,
)


def _check_window_fit(frame: Frame, a: int, f: Formula) -> None:
    if not 0 <= a < frame.worlds:
        raise FrameError(f"world {a} out of range for {frame.worlds} worlds")
    if isinstance(frame, UniformWindowFrame):
        horizon = reach(f, frame.measure)
        if a + horizon > frame.worlds - 1:
            raise WindowOverflowError(
                f"formula needs worlds up to {a + horizon}, frame ends at {frame.worlds - 1}"
            )


def eval_nt(model: Model, a: int, f: Formula) -> bool:
    """Truth of ``f`` at world ``a`` under window semantics."""
    _check_window_fit(model.frame, a, f)
    return _eval(model.frame, model.valuation, a, f, {})


def _eval(frame: Frame, valuation: Valuation, a: int, f: Formula, memo: dict) -> bool:
    key = (id(f), a)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(f, Letter):
        value = valuation.holds(f.name, a)
    elif isinstance(f, TrueBool):
        value = True
    elif isinstance(f, FalseBool):
        value = False
    elif isinstance(f, Not):
        value = not _eval(frame, valuation, a, f.arg, memo)
    elif isinstance(f, And):
        value = _eval(frame, valuation, a, f.left, memo) and _eval(frame, valuation, a, f.right, memo)
    elif isinstance(f, Or):
        value = _eval(frame, valuation, a, f.left, memo) or _eval(frame, valuation, a, f.right, memo)
    elif isinstance(f, Implies):
        value = (not _eval(frame, valuation, a, f.left, memo)) or _eval(frame, valuation, a, f.right, memo)
    elif isinstance(f, Next):
        value = _eval(frame, valuation, frame.next_world(a), f.arg, memo)
    elif isinstance(f, Until):
        value = False
        for b in frame.window(a):
            if _eval(frame, valuation, b, f.right, memo):
                value = True
                break
            if not _eval(frame, valuation, b, f.left, memo):
                break
    else:
        raise TypeError(f"not a formula: {f!r}")
    memo[key] = value
    return value


def formula_valid_in_model(model: Model, f: Formula) -> bool:
    """True iff ``f`` holds at every world.

    On uniform frames this requires the formula's window to fit at every
    world, which only reach-0 formulas satisfy; temporal formulas should be
    checked through the decision procedures instead.  Of the worlds whose
    window fits, only those whose window meets a listed world are evaluated,
    plus one whose window meets none, as all of those agree; the result is
    the world-by-world loop's, False or :class:`WindowOverflowError`.
    """
    frame = model.frame
    if not isinstance(frame, UniformWindowFrame):
        return all(eval_nt(model, a, f) for a in range(frame.worlds))
    horizon = reach(f, frame.measure)
    last = frame.worlds - 1 - horizon  # the last world the window fits at
    listed = set().union(*model.valuation.true_worlds.values())
    worlds = {a for b in listed for a in range(max(b - horizon, 0), min(b, last) + 1)}
    quiet = [a for a in (0, *(b + 1 for b in listed)) if a <= last and a not in worlds]
    if not all(eval_nt(model, a, f) for a in [*worlds, *quiet[:1]]):
        return False
    if horizon:
        eval_nt(model, max(last + 1, 0), f)  # the first world the window overflows at: raises
    return True


def rule_valid_in_model(model: Model, rule: Rule) -> bool:
    """False exactly when every premise holds at all worlds but the conclusion fails somewhere."""
    if not all(formula_valid_in_model(model, p) for p in rule.premises):
        return True
    return formula_valid_in_model(model, rule.conclusion)


# ---------------------------------------------------------------------------
# Frame validity: exhaustive over all valuations of the rule's letters.
# ---------------------------------------------------------------------------


def _guard_frame_rule(frame: Frame, rule: Rule, max_atoms: Optional[int]) -> int:
    cap = DEFAULT_MAX_ATOMS if max_atoms is None else max_atoms
    bits = len(rule.letters) * frame.worlds
    if bits > cap:
        raise ResourceCapError(f"{len(rule.letters)} letters over {frame.worlds} worlds needs 2^{bits} valuations (cap 2^{cap})")
    if isinstance(frame, UniformWindowFrame):
        horizon = max(reach(f, frame.measure) for f in (*rule.premises, rule.conclusion))
        if horizon > 0:
            raise WindowOverflowError("rule validity over a uniform window frame needs reach-0 formulas")
    return bits


def rule_refutation_mask(rule: Rule):
    """Hit-vector builder: valuations where all premises are valid but the conclusion fails.

    Rules already in reduced normal form are checked through their sign
    tables (one set-membership test per world) instead of the node-by-node
    tables; the two routes compute the same thing and are cross-checked in
    the test suite.
    """
    rnf = normalform.match_reduced_form(rule)
    if rnf is not None:
        return lambda ev: _reduced_fail_mask(ev, rnf)

    def mask(ev) -> np.ndarray:
        hits = ~ev.everywhere(rule.conclusion)
        for p in rule.premises:
            hits &= ev.everywhere(p)
        return hits

    return mask


def _reduced_fail_mask(ev, rnf: normalform.ReducedNormalFormRule) -> np.ndarray:
    count = ev.words * tables.WORD_BITS  # padding included: frames of fewer than 64 valuations fill a word each
    realized = np.zeros((ev.worlds, count), dtype=np.uint64)
    for j, atom in enumerate(rnf.atom_formulas()):
        realized |= tables.unpack(ev.table(atom), count).astype(np.uint64) << np.uint64(j)
    premise_ok = tables.pack(np.isin(realized, rnf.keys).all(axis=0))
    return premise_ok & ~ev.everywhere(Letter(rnf.variables[0]))


def rule_valid_in_frame(
    frame: Frame,
    rule: Rule,
    *,
    max_atoms: Optional[int] = None,
    jobs: int = 1,
) -> bool:
    """True iff the rule is valid under every valuation of its letters on ``frame``.

    ``jobs`` is accepted for compatibility and has no effect.
    """
    _guard_frame_rule(frame, rule, max_atoms)
    found = tables.scan_valuations(frame, rule.letters, rule_refutation_mask(rule))
    return found is None


# ---------------------------------------------------------------------------
# Consensus knowledge: every agent sees the fact somewhere and, once lost,
# it stays lost through the window.
# ---------------------------------------------------------------------------


def consensus_clause(f: Formula) -> Formula:
    """Per-agent condition of the consensus reading of knowledge."""
    return And(diamond(f), box(Implies(Not(f), Next(Not(f)))))


def eval_consensus(model: Model | MultiAgentModel, a: int, f: Formula) -> bool:
    """True iff the consensus clause for ``f`` holds at ``a`` under every agent's valuation."""
    clause = consensus_clause(f)
    if isinstance(model, Model):
        return eval_nt(model, a, clause)
    return all(eval_nt(Model(model.frame, v), a, clause) for v in model.valuations.values())


# ---------------------------------------------------------------------------
# Classic LTL on ultimately periodic models (differential oracle).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassicLassoModel:
    """Infinite model whose valuation has prefix ``[0, loop)`` and loop ``[loop, worlds)``."""

    worlds: int
    loop: int
    valuation: Valuation

    def __post_init__(self) -> None:
        if self.worlds < 1:
            raise FrameError("a model needs at least one world")
        if not 0 <= self.loop < self.worlds:
            raise FrameError(f"loop target {self.loop} out of range for {self.worlds} worlds")
        if self.valuation.max_world() >= self.worlds:
            raise FrameError("valuation mentions worlds beyond the lasso")

    def next_world(self, a: int) -> int:
        return a + 1 if a < self.worlds - 1 else self.loop


def _classic_until(cm: ClassicLassoModel, left: list[bool], right: list[bool]) -> list[bool]:
    # Least fixpoint of U = right | (left & U after Next): compute on the loop
    # by iterated sweeps, then propagate backward through the prefix.
    res = list(right)
    loop_worlds = range(cm.loop, cm.worlds)
    for _ in range(len(loop_worlds)):
        changed = False
        for b in loop_worlds:
            new = right[b] or (left[b] and res[cm.next_world(b)])
            if new != res[b]:
                res[b] = new
                changed = True
        if not changed:
            break
    for b in range(cm.loop - 1, -1, -1):
        res[b] = right[b] or (left[b] and res[b + 1])
    return res


def eval_classic(cm: ClassicLassoModel, a: int, f: Formula) -> bool:
    """Truth of ``f`` at position ``a`` under classic (unbounded) LTL semantics."""
    if not 0 <= a < cm.worlds:
        raise FrameError(f"world {a} out of range for {cm.worlds} worlds")
    return _classic_row(cm, f)[a]


def classic_valid_in_model(cm: ClassicLassoModel, f: Formula) -> bool:
    return all(_classic_row(cm, f))


def _classic_row(cm: ClassicLassoModel, f: Formula) -> list[bool]:
    """Truth of ``f`` at every position, built bottom-up one subformula row at a time."""
    rows: dict[Formula, list[bool]] = {}
    for g in subformulas(f):
        if isinstance(g, Letter):
            row = [cm.valuation.holds(g.name, b) for b in range(cm.worlds)]
        elif isinstance(g, TrueBool):
            row = [True] * cm.worlds
        elif isinstance(g, FalseBool):
            row = [False] * cm.worlds
        elif isinstance(g, Not):
            row = [not x for x in rows[g.arg]]
        elif isinstance(g, And):
            row = [x and y for x, y in zip(rows[g.left], rows[g.right])]
        elif isinstance(g, Or):
            row = [x or y for x, y in zip(rows[g.left], rows[g.right])]
        elif isinstance(g, Implies):
            row = [(not x) or y for x, y in zip(rows[g.left], rows[g.right])]
        elif isinstance(g, Next):
            arg = rows[g.arg]
            row = [arg[cm.next_world(b)] for b in range(cm.worlds)]
        elif isinstance(g, Until):
            row = _classic_until(cm, rows[g.left], rows[g.right])
        else:
            raise TypeError(f"not a formula: {g!r}")
        rows[g] = row
    return rows[f]
