"""Substitution machinery, refutation search and the admissibility screens."""

import random

import pytest

from itl import (
    AdmissibilityStatus,
    FiniteLassoFrame,
    Letter,
    Until,
    VerdictKind,
    admissibility_consequences_check,
    apply_substitution,
    check_certificate,
    decide_admissible,
    decide_uniform_theorem,
    letters_of,
    parse_formula,
    parse_rule,
    rule_valid_in_frame,
    search_refuting_substitution,
    subformulas,
    substitution_pool,
)

from helpers import random_formula

p, q, x = Letter("p"), Letter("q"), Letter("x")


# --- substitution -----------------------------------------------------------


def test_apply_substitution_examples():
    assert apply_substitution(x, {"x": Until(p, q)}) == Until(p, q)
    assert apply_substitution(parse_formula("X x"), {"x": parse_formula("true")}) == parse_formula("X true")
    assert apply_substitution(
        parse_formula("x & y"), {"x": p, "y": parse_formula("!p")}
    ) == parse_formula("p & !p")


def test_apply_substitution_requires_total_mapping():
    with pytest.raises(KeyError):
        apply_substitution(parse_formula("x & y"), {"x": p})


def test_substitution_is_simultaneous():
    # x and y swap without interference
    swapped = apply_substitution(parse_formula("x U y"), {"x": Letter("y"), "y": Letter("x")})
    assert swapped == parse_formula("y U x")


def test_renaming_letters_and_back_gives_the_original():
    rng = random.Random(29)
    there = {"p": Letter("a"), "q": Letter("b"), "r": Letter("c")}
    back = {"a": p, "b": q, "c": Letter("r")}
    constructors = set()
    for _ in range(200):
        f = random_formula(rng, letters=3, depth=5)
        constructors.update(type(g) for g in subformulas(f))
        renamed = apply_substitution(f, there)
        assert set(letters_of(renamed)) <= {"a", "b", "c"}
        assert apply_substitution(renamed, back) == f
    assert len(constructors) == 9  # every kernel constructor was rebuilt


# --- the pool ----------------------------------------------------------------


def test_pool_depth_zero():
    pool = substitution_pool(0)
    assert [str(f) for f in pool] == ["true", "false", "p"]


def test_pool_growth_and_dedup():
    assert len(substitution_pool(1)) == 27
    pool2 = substitution_pool(2)
    assert len(pool2) == 1515
    assert len(set(pool2)) == len(pool2)


# --- refutation search --------------------------------------------------------


def test_drop_to_false_is_refuted_at_depth_zero():
    report = search_refuting_substitution(parse_rule("x / false"), 1, 0)
    assert report.status is AdmissibilityStatus.REFUTED
    assert report.substitution == {"x": parse_formula("true")}
    assert all(v.kind is VerdictKind.THEOREM for v in report.premise_verdicts)
    assert report.conclusion_verdict.kind is VerdictKind.NON_THEOREM
    assert check_certificate(report.conclusion_verdict)


def test_next_elimination_is_admissible_but_frame_invalid():
    rule = parse_rule("X x / x")
    for m in (1, 2):
        report = search_refuting_substitution(rule, m, 2)
        assert report.status is AdmissibilityStatus.NO_REFUTATION
    assert not rule_valid_in_frame(FiniteLassoFrame(2, 1, (1, 1)), rule)


def test_identity_rule_never_refuted():
    for m in (1, 2):
        for depth in (0, 1):
            report = search_refuting_substitution(parse_rule("x / x"), m, depth)
            assert report.status is AdmissibilityStatus.NO_REFUTATION


def test_tuple_cap_reports_a_note():
    report = search_refuting_substitution(parse_rule("x, y / x & y"), 1, 2, max_tuples=1000)
    assert report.status is AdmissibilityStatus.NO_REFUTATION
    assert "cap" in report.cap_note


# --- screens -------------------------------------------------------------------


def test_screen_conclusion_is_theorem():
    report = admissibility_consequences_check(parse_rule("p / q -> (p U q)"), 1)
    assert report.status is AdmissibilityStatus.ADMISSIBLE_SCREEN
    assert report.reason == "conclusion_is_theorem"


def test_screen_vacuous_premise():
    report = admissibility_consequences_check(parse_rule("x & !x / false"), 1)
    assert report.status is AdmissibilityStatus.ADMISSIBLE_SCREEN
    assert report.reason == "premise_unsatisfiable"


def test_deferred_then_refuted():
    rule = parse_rule("x / false")
    screen = admissibility_consequences_check(rule, 1)
    assert screen.status is AdmissibilityStatus.DEFERRED
    report = decide_admissible(rule, 1, 0)
    assert report.status is AdmissibilityStatus.REFUTED


def test_screened_rules_survive_the_search():
    # whenever a screen declares admissibility, the bounded search agrees
    for text in ("p / q -> (p U q)", "x & !x / false"):
        rule = parse_rule(text)
        report = search_refuting_substitution(rule, 1, 1)
        assert report.status is AdmissibilityStatus.NO_REFUTATION


def test_refutations_re_validate():
    rng = random.Random(59)
    refuted = 0
    for _ in range(30):
        rule = parse_rule("x / false") if refuted == 0 else None
        if rule is None:
            from itl import Rule

            rule = Rule((random_formula(rng, 1, 2),), random_formula(rng, 1, 2))
            rule = Rule(
                tuple(apply_substitution(f, {"p": x}) for f in rule.premises),
                apply_substitution(rule.conclusion, {"p": x}),
            )
        report = search_refuting_substitution(rule, 1, 1)
        if report.status is AdmissibilityStatus.REFUTED:
            refuted += 1
            for v in report.premise_verdicts:
                assert v.kind is VerdictKind.THEOREM
            assert check_certificate(report.conclusion_verdict)
            instance = apply_substitution(rule.conclusion, report.substitution)
            assert decide_uniform_theorem(instance, 1).kind is VerdictKind.NON_THEOREM
    assert refuted >= 1


def test_valid_looking_rules_yield_no_refutation():
    # rules whose premise-to-conclusion step is semantically safe never
    # produce a refuting substitution
    for text in ("x / x", "x & y / x", "x / x | y"):
        report = search_refuting_substitution(parse_rule(text), 1, 1, max_tuples=10**6)
        assert report.status is AdmissibilityStatus.NO_REFUTATION


def test_frame_valid_rules_are_never_refuted():
    # consistency: rules valid over all sampled frames are admissible, so the
    # search must come back empty-handed
    from itertools import combinations_with_replacement

    frames = [
        FiniteLassoFrame(worlds, loop, d)
        for worlds in (1, 2, 3)
        for loop in range(worlds)
        for d in combinations_with_replacement(range(1, min(2, worlds) + 1), worlds)
    ]
    rng = random.Random(89)
    from itl import Rule

    checked = 0
    while checked < 8:
        rule = Rule((random_formula(rng, 1, 2),), random_formula(rng, 1, 2))
        if not all(rule_valid_in_frame(fr, rule) for fr in frames):
            continue
        checked += 1
        report = search_refuting_substitution(rule, 1, 1)
        assert report.status is AdmissibilityStatus.NO_REFUTATION
