"""Seeded generators of formula and rule text for the benchmark pools.

Formulas are built as small tuples and rendered fully parenthesised, so the
program under test only ever sees text.  Reach and letter counts are computed
here, independently of the package, to place each input in its size band.
"""

from __future__ import annotations

import random

LETTERS = ("p", "q", "r", "s")
_BINARY = ("U", "&", "|", "->")


def random_formula(rng: random.Random, letters: int, depth: int, constants: bool = True) -> tuple:
    """Random formula tree over the first ``letters`` names, at most ``depth`` deep."""
    names = LETTERS[:letters]

    def go(d: int) -> tuple:
        if d == 0 or rng.random() < 0.2:
            roll = rng.random()
            if constants and roll < 0.1:
                return ("true",)
            if constants and roll < 0.2:
                return ("false",)
            return (rng.choice(names),)
        op = rng.choice(("!", "X", "U", "&", "|", "->"))
        if op in ("!", "X"):
            return (op, go(d - 1))
        return (op, go(d - 1), go(d - 1))

    return go(depth)


def text(f: tuple) -> str:
    if len(f) == 1:
        return f[0]
    if len(f) == 2:
        return f"{f[0]} {text(f[1])}" if f[0] == "X" else f"!{text(f[1])}"
    return f"({text(f[1])} {f[0]} {text(f[2])})"


def reach(f: tuple, m: int) -> int:
    """Window horizon: each Next costs 1, each Until widens by ``m``."""
    if len(f) == 1:
        return 0
    if len(f) == 2:
        return reach(f[1], m) + (f[0] == "X")
    return max(reach(f[1], m), reach(f[2], m)) + (m if f[0] == "U" else 0)


def letters_of(f: tuple) -> set[str]:
    if len(f) == 1:
        return {f[0]} if f[0] in LETTERS else set()
    return set().union(*(letters_of(g) for g in f[1:]))


def bits(f: tuple, m: int) -> int:
    """Valuation bits n*W of the uniform window the decision procedure enumerates."""
    return len(letters_of(f)) * (reach(f, m) + 1)


def next_iter(f: tuple, k: int) -> tuple:
    for _ in range(k):
        f = ("X", f)
    return f


def always(f: tuple) -> tuple:
    return ("!", ("U", ("true",), ("!", f)))


def eventually(f: tuple) -> tuple:
    return ("U", ("true",), f)


# Schemes valid in every window model, whatever A and B are: deciding one
# (or refuting its negation) has to sweep the whole valuation space.
VALID_SCHEMES = (
    lambda a, b: ("->", a, ("|", a, b)),
    lambda a, b: ("->", ("&", a, b), b),
    lambda a, b: ("->", ("U", a, b), eventually(b)),
    lambda a, b: ("->", b, ("U", a, b)),
    lambda a, b: ("->", always(a), a),
    lambda a, b: ("->", ("X", ("&", a, b)), ("X", a)),
    lambda a, b: ("|", ("->", a, b), ("->", b, a)),
)


def rule_text(premises: list[tuple], conclusion: tuple) -> str:
    return ", ".join(text(p) for p in premises) + " / " + text(conclusion)


def random_rule(rng: random.Random, letters: int, depth: int, max_premises: int = 2) -> tuple[list[tuple], tuple]:
    premises = [random_formula(rng, letters, rng.randint(1, depth)) for _ in range(rng.randint(1, max_premises))]
    return premises, random_formula(rng, letters, rng.randint(1, depth))


def variable_count(premises: list[tuple], conclusion: tuple) -> int:
    """Distinct subformulas of the joined premise and the conclusion (RNF variables)."""
    joined = premises[0]
    for p in premises[1:]:
        joined = ("&", joined, p)
    seen: set[tuple] = set()

    def walk(g: tuple) -> None:
        seen.add(g)
        for child in g[1:]:
            walk(child)

    walk(joined)
    walk(conclusion)
    return len(seen)
