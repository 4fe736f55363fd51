"""Seeded random generators shared by the test modules."""

from __future__ import annotations

import random

from itl import (
    FALSE,
    TRUE,
    And,
    ClassicLassoModel,
    FiniteLassoFrame,
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
)

LETTER_NAMES = ("p", "q", "r")


def random_formula(rng: random.Random, letters: int = 2, depth: int = 3, constants: bool = True, until: bool = True):
    names = LETTER_NAMES[:letters]
    ops = ("not", "next", "until", "and", "or", "implies") if until else ("not", "next", "and", "or", "implies")

    def go(d: int):
        if d == 0 or rng.random() < 0.2:
            roll = rng.random()
            if constants and roll < 0.1:
                return TRUE
            if constants and roll < 0.2:
                return FALSE
            return Letter(rng.choice(names))
        op = rng.choice(ops)
        if op == "not":
            return Not(go(d - 1))
        if op == "next":
            return Next(go(d - 1))
        if op == "until":
            return Until(go(d - 1), go(d - 1))
        if op == "and":
            return And(go(d - 1), go(d - 1))
        if op == "or":
            return Or(go(d - 1), go(d - 1))
        return Implies(go(d - 1), go(d - 1))

    return go(depth)


def random_rule(
    rng: random.Random, letters: int = 2, depth: int = 3, max_premises: int = 2, until: bool = True
) -> Rule:
    premises = tuple(
        random_formula(rng, letters, rng.randint(1, depth), until=until) for _ in range(rng.randint(1, max_premises))
    )
    return Rule(premises, random_formula(rng, letters, rng.randint(1, depth), until=until))


def random_lasso_frame(rng: random.Random, max_worlds: int = 5, max_reach: int = 3) -> FiniteLassoFrame:
    worlds = rng.randint(1, max_worlds)
    loop = rng.randint(0, worlds - 1)
    cap = min(max_reach, worlds)
    reach_lengths = sorted(rng.randint(1, cap) for _ in range(worlds))
    return FiniteLassoFrame(worlds, loop, tuple(reach_lengths))


def random_valuation(rng: random.Random, letters: int, worlds: int) -> Valuation:
    names = LETTER_NAMES[:letters]
    return Valuation(
        {name: frozenset(a for a in range(worlds) if rng.random() < 0.5) for name in names}
    )


def random_lasso_model(rng: random.Random, letters: int = 2, max_worlds: int = 5, max_reach: int = 3) -> Model:
    frame = random_lasso_frame(rng, max_worlds, max_reach)
    return Model(frame, random_valuation(rng, letters, frame.worlds))


def random_uniform_model(rng: random.Random, letters: int = 2, worlds: int = 5, measure: int = 2) -> Model:
    frame = UniformWindowFrame(worlds, measure)
    return Model(frame, random_valuation(rng, letters, worlds))


def random_classic_model(rng: random.Random, letters: int = 2, max_worlds: int = 6) -> ClassicLassoModel:
    worlds = rng.randint(1, max_worlds)
    loop = rng.randint(0, worlds - 1)
    return ClassicLassoModel(worlds, loop, random_valuation(rng, letters, worlds))
