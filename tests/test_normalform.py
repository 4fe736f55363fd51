"""Reduced normal forms: construction, shape checking, validity equivalence."""

import random

import numpy as np
import pytest

from itl import (
    And,
    FalseBool,
    FiniteLassoFrame,
    Implies,
    Letter,
    Next,
    Not,
    Or,
    ReducedNormalFormRule,
    ResourceCapError,
    Rule,
    TrueBool,
    Until,
    formula_to_rule,
    is_reduced_normal_form,
    match_reduced_form,
    parse_formula,
    parse_rule,
    print_rule,
    rule_valid_in_frame,
    to_reduced_normal_form,
)
from itl.decide import iter_lasso_runs
from itl.normalform import _variable_order, atom_count
from itl.semantics import rule_refutation_mask
from itl.tables import BatchEvaluator, scan_valuations

from helpers import random_formula, random_rule

p, q = Letter("p"), Letter("q")


def small_frames():
    frames = []
    for worlds in (1, 2, 3):
        for loop in range(worlds):
            seen = set()
            for d in _nondecreasing(worlds, min(2, worlds)):
                if d not in seen:
                    seen.add(d)
                    frames.append(FiniteLassoFrame(worlds, loop, d))
    return frames


def _nondecreasing(length, cap):
    from itertools import combinations_with_replacement

    return list(combinations_with_replacement(range(1, cap + 1), length))


# --- formula_to_rule --------------------------------------------------------


def test_formula_to_rule_uses_fresh_letter():
    rule = formula_to_rule(p)
    assert print_rule(rule) == "x -> x / p"
    rule = formula_to_rule(parse_formula("true"))
    assert print_rule(rule) == "x -> x / true"
    rule = formula_to_rule(parse_formula("G p -> G G p"))
    assert len(rule.premises) == 1 and rule.conclusion == parse_formula("G p -> G G p")


def test_formula_to_rule_avoids_capture():
    rule = formula_to_rule(Letter("x"))
    name = rule.premises[0].left.name
    assert name != "x"
    assert set(rule.letters) == {"x", name}


# --- construction -----------------------------------------------------------


def test_identity_rule_has_two_disjuncts():
    rnf = to_reduced_normal_form(parse_rule("x / x"))
    assert rnf.variables == ("x1",)
    assert rnf.disjunct_count == 2
    # both disjuncts assert x1; they split on X x1
    assert set(map(tuple, rnf.signs.tolist())) == {(True, False), (True, True)}


def test_trivial_premise_leaves_conclusion_free():
    rnf = to_reduced_normal_form(parse_rule("true / x"))
    # the conclusion variable is unconstrained: all four (x1, X x1) sign
    # patterns occur among the disjuncts
    n = rnf.variable_count
    pairs = {(bool(row[0]), bool(row[n])) for row in rnf.signs}
    assert pairs == {(False, False), (False, True), (True, False), (True, True)}


def test_rendered_form_passes_shape_check():
    for text in ("x / x", "p U q / p", "p & q / q", "X p / p"):
        rnf = to_reduced_normal_form(parse_rule(text))
        assert is_reduced_normal_form(rnf.to_rule())


def test_sign_table_rejects_malformed_keys():
    for keys in ([3, 1], [1, 1], [], [4]):  # unsorted, repeated, empty, beyond the two atoms
        with pytest.raises(ValueError):
            ReducedNormalFormRule(("x1",), np.array(keys, dtype=np.uint64))
    with pytest.raises(ValueError):
        ReducedNormalFormRule(tuple(f"x{i}" for i in range(1, 9)), np.array([0], dtype=np.uint64))
    rnf = ReducedNormalFormRule(("x1",), np.array([1, 3]))
    assert rnf.signs.tolist() == [[True, False], [True, True]]
    assert not rnf.signs.flags.writeable


def test_disjunct_count_bounded_by_atom_set():
    rng = random.Random(41)
    for _ in range(20):
        rule = Rule((random_formula(rng, 2, 2),), random_formula(rng, 2, 1))
        try:
            rnf = to_reduced_normal_form(rule)
        except ResourceCapError:
            continue
        n = rnf.variable_count
        assert rnf.disjunct_count <= 2 ** atom_count(n)
        assert rnf.signs.shape[1] == atom_count(n)


def test_construction_is_deterministic():
    rule = parse_rule("p U q / p")
    first = to_reduced_normal_form(rule)
    second = to_reduced_normal_form(rule)
    assert first.variables == second.variables
    assert np.array_equal(first.keys, second.keys)


def test_atom_cap_enforced():
    with pytest.raises(ResourceCapError):
        to_reduced_normal_form(parse_rule("p U q / p"), max_atoms=10)


def test_contradictory_premise_maps_to_always_valid_form():
    rnf = to_reduced_normal_form(parse_rule("x & !x / y"))
    rendered = rnf.to_rule()
    assert is_reduced_normal_form(rendered)
    for frame in small_frames():
        assert rule_valid_in_frame(frame, parse_rule("x & !x / y"))
        assert rule_valid_in_frame(frame, rendered)


def test_reflexive_until_collapses_to_its_argument():
    # p U p is semantically p, so this rule behaves exactly like p / p
    rnf = to_reduced_normal_form(parse_rule("p U p / p"))
    rendered = rnf.to_rule()
    for frame in small_frames():
        assert rule_valid_in_frame(frame, rendered) == rule_valid_in_frame(frame, parse_rule("p / p"))


def _reference_keys(rule):
    """Variables and keys of ``rule``'s reduced form, one Boolean matrix column per atom.

    Kept apart from the table engine as an oracle: atom columns are laid out
    by hand (bases, nexts, then ``x_i U x_k`` for ``i != k``) and every
    constructor is checked by its own branch.
    """
    phi, order = _variable_order(rule)
    n = len(order)
    index = {g: i for i, g in enumerate(order)}
    codes = np.arange(1 << atom_count(n))
    bits = (codes[:, None] >> np.arange(atom_count(n))) & 1 == 1

    def until(i, k):
        return bits[:, i] if i == k else bits[:, 2 * n + i * (n - 1) + k - (k > i)]

    mask = bits[:, index[phi]].copy()
    for g, i in index.items():
        x = bits[:, i]
        if isinstance(g, TrueBool):
            mask &= x
        elif isinstance(g, FalseBool):
            mask &= ~x
        elif isinstance(g, Not):
            mask &= x == ~bits[:, index[g.arg]]
        elif isinstance(g, And):
            mask &= x == (bits[:, index[g.left]] & bits[:, index[g.right]])
        elif isinstance(g, Or):
            mask &= x == (bits[:, index[g.left]] | bits[:, index[g.right]])
        elif isinstance(g, Implies):
            mask &= x == (~bits[:, index[g.left]] | bits[:, index[g.right]])
        elif isinstance(g, Next):
            mask &= x == bits[:, n + index[g.arg]]
        elif isinstance(g, Until):
            mask &= x == until(index[g.left], index[g.right])
    if not mask.any():
        return ("x1",), [0b01, 0b11]
    return tuple(f"x{i + 1}" for i in range(n)), codes[mask].tolist()


def test_keys_match_a_boolean_matrix_oracle():
    rng = random.Random(20)
    rules = [parse_rule(text) for text in ("true / p", "false / p", "p U p / p", "p & !p / q", "q / p U p")]
    while len(rules) < 320:
        rule = random_rule(rng, rng.randint(1, 2), 2)
        if atom_count(len(_variable_order(rule)[1])) <= 12:
            rules.append(rule)
    contradictory = 0
    for rule in rules:
        rnf = to_reduced_normal_form(rule)
        assert (rnf.variables, rnf.keys.tolist()) == _reference_keys(rule), print_rule(rule)
        contradictory += rnf.variables == ("x1",) and rnf.keys.tolist() == [1, 3]
    # the fixed rules and enough random ones reach every branch of the oracle
    assert contradictory >= 2
    kinds = {type(g) for rule in rules for g in _variable_order(rule)[1]}
    assert kinds >= {Letter, TrueBool, FalseBool, Not, And, Or, Implies, Next, Until}
    assert sum(any(isinstance(g, Until) and g.left == g.right for g in _variable_order(r)[1]) for r in rules) >= 10


# --- shape recognition -------------------------------------------------------


def test_shape_examples():
    good = parse_rule("x1 & X x1 | x1 & !X x1 / x1")
    assert is_reduced_normal_form(good)
    assert not is_reduced_normal_form(parse_rule("x / x"))
    assert not is_reduced_normal_form(parse_rule("x1 & X x1 / x2"))


def test_shape_requires_perfect_disjuncts():
    assert not is_reduced_normal_form(parse_rule("x1 | !x1 / x1"))  # missing X x1 signs
    assert not is_reduced_normal_form(parse_rule("x1 & X x1 & X x1 / x1"))  # duplicate atom


def test_extracted_keys_match_sign_tables():
    # re-parse the printed rendering so the matcher walks fresh formula nodes
    texts = ("x / x", "p U q / q", "X p / p", "x & !x / y", "p U p / p")
    forms = [to_reduced_normal_form(parse_rule(t)) for t in texts]
    rng = random.Random(17)
    for _ in range(20):
        rule = Rule((random_formula(rng, 2, 2),), random_formula(rng, 2, 1))
        try:
            forms.append(to_reduced_normal_form(rule, max_atoms=atom_count(3)))
        except ResourceCapError:
            continue
    assert len(forms) >= 10
    for rnf in forms:
        matched = match_reduced_form(parse_rule(print_rule(rnf.to_rule())))
        assert matched is not None
        assert matched.variables == rnf.variables
        assert np.array_equal(matched.keys, rnf.keys)


def test_reduced_path_agrees_with_generic_tables():
    # same frame validity whether the premise is evaluated node by node or
    # through the sign-table membership test
    for text in ("x / x", "p U q / q"):
        rendered = to_reduced_normal_form(parse_rule(text)).to_rule()

        def generic_mask(ev, rendered=rendered):
            return ev.everywhere(rendered.premises[0]) & ~ev.everywhere(rendered.conclusion)

        fast_mask = rule_refutation_mask(rendered)
        for frame in small_frames():
            slow = scan_valuations(frame, rendered.letters, generic_mask)
            fast = scan_valuations(frame, rendered.letters, fast_mask)
            assert slow == fast


def test_reduced_path_reads_the_padded_frame_major_layout():
    # whole runs at once, where frames of under 64 valuations fill a word
    # each; sign-table premises do not depend on reach, so a block read as
    # if unpadded shows mostly as a hit vector of the wrong length
    hits = 0
    for text in ("x / x", "X x / x", "x U y / x", "p U q / q"):
        rendered = to_reduced_normal_form(parse_rule(text)).to_rule()
        fast_mask = rule_refutation_mask(rendered)
        for run in iter_lasso_runs(4, 3):
            n_bits = len(rendered.letters) * run.worlds
            ev = BatchEvaluator(run, rendered.letters, range(len(run) << n_bits))
            valid = np.uint64((1 << (1 << n_bits)) - 1) if n_bits < 6 else ~np.uint64(0)
            generic = ev.everywhere(rendered.premises[0]) & ~ev.everywhere(rendered.conclusion)
            assert np.array_equal(fast_mask(ev) & valid, generic & valid), (text, run.worlds, run.loop)
            hits += int(np.count_nonzero(generic & valid))
    assert hits


# --- validity equivalence (sample; the acceptance suite runs the corpus) ----


@pytest.mark.parametrize(
    "text",
    ["x / x", "p U q / p", "p U q / q", "X p / p", "p & q / p", "q / p U q", "X X p / X p"],
)
def test_validity_equivalence_on_small_frames(text):
    rule = parse_rule(text)
    rendered = to_reduced_normal_form(rule).to_rule()
    for frame in small_frames():
        assert rule_valid_in_frame(frame, rule) == rule_valid_in_frame(frame, rendered), (
            text,
            frame,
        )
