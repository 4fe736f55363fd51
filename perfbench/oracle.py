"""Independent answers for the benchmark's inputs.

Everything here evaluates with the package's scalar window evaluator
``eval_nt`` over valuations enumerated by this module, never with the batch
tables the decision procedures search with.  ``record.py`` uses it to label
expected answers; ``workloads.py`` uses the cheap part (premise theoremhood
of an admissibility refutation) on every operation that needs it.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Iterator, Optional

from itl import (
    And,
    FiniteLassoFrame,
    Formula,
    Implies,
    Letter,
    Model,
    Next,
    Not,
    Or,
    Rule,
    UniformWindowFrame,
    Until,
    Valuation,
    eval_nt,
    letters_of,
    reach,
)

SCALAR_MAX_BITS = 16


def valuations(letters: tuple[str, ...], worlds: int) -> Iterator[Valuation]:
    """Every valuation of ``letters`` over ``worlds`` worlds."""
    cells = [(name, a) for name in letters for a in range(worlds)]
    for code in range(1 << len(cells)):
        true_worlds: dict[str, set[int]] = {name: set() for name in letters}
        for j, (name, a) in enumerate(cells):
            if code >> j & 1:
                true_worlds[name].add(a)
        yield Valuation({name: frozenset(ws) for name, ws in true_worlds.items()})


def uniform_bits(f: Formula, m: int) -> int:
    return len(letters_of(f)) * (reach(f, m) + 1)


def uniform_holds_everywhere(f: Formula, m: int) -> bool:
    """Theoremhood: ``f`` true at world 0 of every window model of its width."""
    frame = UniformWindowFrame(reach(f, m) + 1, m)
    return all(eval_nt(Model(frame, v), 0, f) for v in valuations(letters_of(f), frame.worlds))


def uniform_satisfiable(f: Formula, m: int) -> bool:
    frame = UniformWindowFrame(reach(f, m) + 1, m)
    return any(eval_nt(Model(frame, v), 0, f) for v in valuations(letters_of(f), frame.worlds))


def lasso_frames(max_worlds: int, max_reach: int) -> Iterator[FiniteLassoFrame]:
    for worlds in range(1, max_worlds + 1):
        for loop in range(worlds):
            for d in combinations_with_replacement(range(1, min(max_reach, worlds) + 1), worlds):
                yield FiniteLassoFrame(worlds, loop, d)


def _valid_in_model(model: Model, f: Formula) -> bool:
    return all(eval_nt(model, a, f) for a in range(model.frame.worlds))


def refutes(model: Model, target: Formula | Rule) -> bool:
    """The model falsifies the formula somewhere, or validates every premise but not the conclusion."""
    if isinstance(target, Rule):
        return all(_valid_in_model(model, p) for p in target.premises) and not _valid_in_model(
            model, target.conclusion
        )
    return not _valid_in_model(model, target)


def target_letters(target: Formula | Rule) -> tuple[str, ...]:
    return target.letters if isinstance(target, Rule) else letters_of(target)


def lasso_countermodel_exists(target: Formula | Rule, max_worlds: int, max_reach: int) -> bool:
    letters = target_letters(target)
    return any(
        refutes(Model(frame, v), target)
        for frame in lasso_frames(max_worlds, max_reach)
        for v in valuations(letters, frame.worlds)
    )


def rule_valid_in_frame(frame: FiniteLassoFrame, rule: Rule) -> bool:
    return not any(refutes(Model(frame, v), rule) for v in valuations(rule.letters, frame.worlds))


def substitute(f: Formula, sub: dict[str, Formula]) -> Formula:
    """Simultaneous substitution of letters, written here so the check does not reuse the engine's."""
    if isinstance(f, Letter):
        return sub[f.name]
    if isinstance(f, (Not, Next)):
        return type(f)(substitute(f.arg, sub))
    if isinstance(f, (And, Or, Implies, Until)):
        return type(f)(substitute(f.left, sub), substitute(f.right, sub))
    return f


class TheoremCache:
    """Scalar theoremhood of small uniform formulas, memoised by structure."""

    def __init__(self, m: int):
        self.m = m
        self._known: dict[Formula, bool] = {}

    def __call__(self, f: Formula) -> Optional[bool]:
        """True/False, or None when the formula is too wide for brute force."""
        hit = self._known.get(f)
        if hit is None:
            if uniform_bits(f, self.m) > SCALAR_MAX_BITS:
                return None
            hit = self._known[f] = uniform_holds_everywhere(f, self.m)
        return hit
