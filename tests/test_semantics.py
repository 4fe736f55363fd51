"""Window semantics, validity notions, consensus and the classic oracle."""

import random

import pytest

from itl import (
    And,
    ClassicLassoModel,
    FiniteLassoFrame,
    Letter,
    Model,
    MultiAgentModel,
    Next,
    Not,
    UniformWindowFrame,
    Until,
    Valuation,
    WindowOverflowError,
    classic_valid_in_model,
    eval_classic,
    eval_consensus,
    eval_nt,
    formula_valid_in_model,
    parse_formula,
    parse_rule,
    reach,
    rule_valid_in_frame,
    rule_valid_in_model,
)
from itl.syntax import Until as UntilNode, letters_of
from itl.tables import BatchEvaluator, decode_valuation, unpack

from helpers import (
    random_classic_model,
    random_formula,
    random_lasso_frame,
    random_lasso_model,
    random_uniform_model,
    random_valuation,
)

p, q = Letter("p"), Letter("q")


def uniform_model(worlds, m, **letters):
    return Model(
        UniformWindowFrame(worlds, m),
        Valuation({name: frozenset(ws) for name, ws in letters.items()}),
    )


# --- eval_nt ---------------------------------------------------------------


def test_until_witness_inside_window():
    model = uniform_model(3, 2, p={0, 1}, q={2})
    assert eval_nt(model, 0, Until(p, q))


def test_until_witness_outside_window_differs_from_classic():
    model = uniform_model(4, 2, p={0, 1, 2}, q={3})
    assert not eval_nt(model, 0, Until(p, q))
    classic = ClassicLassoModel(4, 3, model.valuation)
    assert eval_classic(classic, 0, Until(p, q))


def test_reflexive_until_examples():
    rng = random.Random(1)
    f = parse_formula("q -> (p U q)")
    for _ in range(50):
        model = random_lasso_model(rng)
        for a in range(model.frame.worlds):
            assert eval_nt(model, a, f)


def test_window_overflow_raises():
    model = uniform_model(2, 1, p={0, 1})
    with pytest.raises(WindowOverflowError):
        eval_nt(model, 1, Next(p))
    assert eval_nt(model, 0, Next(p))


def test_next_on_lasso_wraps():
    model = Model(FiniteLassoFrame(2, 1, (1, 1)), Valuation({"p": frozenset({1})}))
    assert eval_nt(model, 1, Next(p))  # Next(1) loops to 1


# --- validity --------------------------------------------------------------


def test_formula_valid_in_model_basics():
    frame = FiniteLassoFrame(3, 0, (1, 1, 1))
    assert formula_valid_in_model(Model(frame, Valuation({"p": frozenset({0, 1, 2})})), p)
    assert not formula_valid_in_model(Model(frame, Valuation({"p": frozenset({0, 2})})), p)


def _outcome(check, model, f):
    try:
        return check(model, f)
    except WindowOverflowError as exc:
        return f"overflow: {exc}"


def _valid_world_by_world(model, f):
    return all(eval_nt(model, a, f) for a in range(model.frame.worlds))


def test_formula_valid_in_uniform_models_matches_the_world_by_world_loop():
    rng = random.Random(29)
    outcomes = {"true": 0, "false": 0, "false-reach": 0, "overflow": 0}
    for _ in range(600):
        worlds, m = rng.randint(1, 14), rng.randint(1, 3)
        density = rng.choice((0.0, 0.1, 0.3, 0.9))
        valuation = Valuation(
            {name: frozenset(a for a in range(worlds) if rng.random() < density) for name in ("p", "q")}
        )
        model = Model(UniformWindowFrame(worlds, m), valuation)
        f = random_formula(rng, letters=2, depth=rng.randint(0, 3))
        want = _outcome(_valid_world_by_world, model, f)
        assert _outcome(formula_valid_in_model, model, f) == want, (f, model)
        if want is False:
            outcomes["false-reach" if reach(f, m) else "false"] += 1
        else:
            outcomes["true" if want is True else "overflow"] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_formula_valid_in_a_huge_uniform_model_evaluates_few_worlds():
    model = uniform_model(10**9, 2, p={5, 10**9 - 1})
    assert not formula_valid_in_model(model, p)
    assert formula_valid_in_model(model, parse_formula("p | !p"))
    assert not formula_valid_in_model(model, parse_formula("X p"))  # false at world 0, before any overflow
    with pytest.raises(WindowOverflowError, match="needs worlds up to 1000000000,"):
        formula_valid_in_model(model, parse_formula("p -> X X !p"))


def test_box_fails_where_window_leaves_truth():
    model = Model(FiniteLassoFrame(3, 2, (1, 1, 1)), Valuation({"p": frozenset({0, 1})}))
    g_p = parse_formula("G p")
    assert eval_nt(model, 0, g_p)
    assert not eval_nt(model, 1, g_p)
    assert not formula_valid_in_model(model, g_p)


def test_rule_valid_in_model_bridge():
    frame = FiniteLassoFrame(2, 0, (1, 1))
    bridge = parse_rule("x -> x / p")
    assert rule_valid_in_model(Model(frame, Valuation({"p": frozenset({0, 1})})), bridge)
    assert not rule_valid_in_model(Model(frame, Valuation({"p": frozenset({0})})), bridge)


def test_rule_refuted_by_premise_valid_conclusion_failing():
    model = Model(FiniteLassoFrame(2, 1, (1, 1)), Valuation({"p": frozenset({1})}))
    rule = parse_rule("X p / p")
    assert formula_valid_in_model(model, Next(p))
    assert not rule_valid_in_model(model, rule)


def test_rule_valid_in_frame_examples():
    frame = FiniteLassoFrame(2, 1, (1, 1))
    assert rule_valid_in_frame(frame, parse_rule("p / p"))
    assert not rule_valid_in_frame(frame, parse_rule("X x / x"))
    for lasso in (frame, FiniteLassoFrame(3, 0, (1, 2, 2))):
        assert rule_valid_in_frame(lasso, parse_rule("x -> x / q -> (p U q)"))


# --- consensus -------------------------------------------------------------


def test_consensus_single_agent():
    model = uniform_model(3, 1, p={0, 1})
    assert eval_consensus(model, 0, p)


def test_consensus_fails_when_one_agent_never_sees_it():
    frame = UniformWindowFrame(3, 1)
    mam = MultiAgentModel(
        frame,
        {"a": Valuation({"p": frozenset({0, 1})}), "b": Valuation({"p": frozenset()})},
    )
    assert not eval_consensus(mam, 0, p)


def test_consensus_everywhere_true():
    model = uniform_model(3, 1, p={0, 1, 2})
    assert eval_consensus(model, 0, p)


# --- classic oracle --------------------------------------------------------


def test_classic_box():
    cm = ClassicLassoModel(3, 0, Valuation({"p": frozenset({0, 1, 2})}))
    assert eval_classic(cm, 0, parse_formula("G p"))


def test_classic_box_transitivity_is_classically_valid():
    f = parse_formula("G p -> G G p")
    cm = ClassicLassoModel(3, 1, Valuation({"p": frozenset({0, 1, 2})}))
    assert eval_classic(cm, 0, f)
    rng = random.Random(2)
    for _ in range(100):
        worlds = rng.randint(1, 6)
        cm = ClassicLassoModel(worlds, rng.randint(0, worlds - 1), random_valuation(rng, 1, worlds))
        assert classic_valid_in_model(cm, f)


def test_classic_validity_matches_the_per_world_loop():
    rng = random.Random(31)
    outcomes = []
    for _ in range(400):
        cm = random_classic_model(rng, letters=2, max_worlds=6)
        f = random_formula(rng, letters=2, depth=rng.randint(1, 4))
        expected = all(eval_classic(cm, a, f) for a in range(cm.worlds))
        assert classic_valid_in_model(cm, f) == expected
        outcomes.append(expected)
    assert outcomes.count(True) >= 50 and outcomes.count(False) >= 50


def test_classic_until_unbounded_witness():
    cm = ClassicLassoModel(3, 1, Valuation({"p": frozenset({0, 1}), "q": frozenset({2})}))
    assert eval_classic(cm, 0, Until(p, q))


def test_classic_matches_brute_force_unrolling():
    # independent route: evaluate Until by scanning a long explicit unrolling
    rng = random.Random(13)

    def unrolled(cm, a, f, horizon=60):
        def at(b, g):
            while b >= cm.worlds:
                b = cm.loop + (b - cm.loop) % (cm.worlds - cm.loop)
            if isinstance(g, Letter):
                return cm.valuation.holds(g.name, b)
            if isinstance(g, UntilNode):
                for j in range(horizon):
                    if at(b + j, g.right) and all(at(b + i, g.left) for i in range(j)):
                        return True
                return False
            if isinstance(g, Next):
                return at(b + 1, g.arg)
            if isinstance(g, Not):
                return not at(b, g.arg)
            if isinstance(g, And):
                return at(b, g.left) and at(b, g.right)
            raise AssertionError(g)

        return at(a, f)

    for _ in range(150):
        worlds = rng.randint(1, 5)
        cm = ClassicLassoModel(worlds, rng.randint(0, worlds - 1), random_valuation(rng, 2, worlds))
        f = random_formula(rng, letters=2, depth=3, constants=False)
        f = _strip_to_core(f)
        for a in range(cm.worlds):
            assert eval_classic(cm, a, f) == unrolled(cm, a, f)


def _strip_to_core(f):
    # unrolled() above only handles the core connectives; rewrite the rest
    from itl.syntax import FalseBool, Implies, Or, TrueBool

    if isinstance(f, Or):
        return Not(And(Not(_strip_to_core(f.left)), Not(_strip_to_core(f.right))))
    if isinstance(f, Implies):
        return Not(And(_strip_to_core(f.left), Not(_strip_to_core(f.right))))
    if isinstance(f, TrueBool):
        return Not(And(p, Not(p)))
    if isinstance(f, FalseBool):
        return And(p, Not(p))
    if isinstance(f, Not):
        return Not(_strip_to_core(f.arg))
    if isinstance(f, And):
        return And(_strip_to_core(f.left), _strip_to_core(f.right))
    if isinstance(f, Next):
        return Next(_strip_to_core(f.arg))
    if isinstance(f, UntilNode):
        return Until(_strip_to_core(f.left), _strip_to_core(f.right))
    return f


def test_next_only_agreement_between_window_and_classic():
    rng = random.Random(17)
    for _ in range(100):
        frame = random_lasso_frame(rng, max_worlds=5, max_reach=3)
        valuation = random_valuation(rng, 2, frame.worlds)
        model = Model(frame, valuation)
        classic = ClassicLassoModel(frame.worlds, frame.loop, valuation)
        f = random_formula(rng, letters=2, depth=3)
        while "U" in str(f):
            f = random_formula(rng, letters=2, depth=3)
        for a in range(frame.worlds):
            assert eval_nt(model, a, f) == eval_classic(classic, a, f)


# --- semantic laws (small scale; the acceptance suite runs the big one) ----


def test_uniform_box_equals_bounded_next_conjunction():
    rng = random.Random(19)
    for _ in range(60):
        m = rng.randint(1, 3)
        worlds = rng.randint(m + 1, m + 4)
        model = random_uniform_model(rng, letters=1, worlds=worlds, measure=m)
        box_p = parse_formula("G p")
        chain = p
        for i in range(1, m + 1):
            chain = And(chain, _nexts(p, i))
        for a in range(worlds - m):
            assert eval_nt(model, a, box_p) == eval_nt(model, a, chain)


def _nexts(f, k):
    for _ in range(k):
        f = Next(f)
    return f


def test_window_locality():
    rng = random.Random(23)
    for _ in range(100):
        m = rng.randint(1, 2)
        f = random_formula(rng, letters=2, depth=3)
        horizon = reach(f, m)
        worlds = horizon + rng.randint(2, 4)
        model = random_uniform_model(rng, letters=2, worlds=worlds, measure=m)
        a = rng.randint(0, worlds - 1 - horizon)
        outside = [b for b in range(worlds) if b < a or b > a + horizon]
        if not outside:
            continue
        b = rng.choice(outside)
        name = rng.choice(("p", "q"))
        flipped = dict(model.valuation.true_worlds)
        flipped[name] = flipped.get(name, frozenset()) ^ {b}
        mutated = Model(model.frame, Valuation(flipped))
        assert eval_nt(model, a, f) == eval_nt(mutated, a, f)


def test_diamond_box_duality():
    rng = random.Random(29)
    for _ in range(60):
        f = random_formula(rng, letters=2, depth=2)
        diamond_f = Until(parse_formula("true"), f)
        not_box_not_f = Not(Not(Until(parse_formula("true"), Not(Not(f)))))
        model = random_lasso_model(rng)
        for a in range(model.frame.worlds):
            assert eval_nt(model, a, diamond_f) == eval_nt(model, a, not_box_not_f)


# --- the batch engine must agree with the scalar evaluator ------------------


def test_batch_tables_match_scalar_eval_on_lassos():
    rng = random.Random(31)
    for _ in range(40):
        frame = random_lasso_frame(rng, max_worlds=4, max_reach=3)
        f = random_formula(rng, letters=2, depth=3)
        letters = letters_of(f)
        n_bits = len(letters) * frame.worlds
        ev = BatchEvaluator(frame, letters, range(1 << n_bits))
        table = unpack(ev.table(f), 1 << n_bits)
        for code in range(1 << n_bits):
            model = Model(frame, decode_valuation(code, letters, frame.worlds))
            for a in range(frame.worlds):
                assert table[a, code] == eval_nt(model, a, f)


def test_batch_tables_match_scalar_eval_on_uniform_windows():
    rng = random.Random(37)
    for _ in range(25):
        m = rng.randint(1, 2)
        f = random_formula(rng, letters=1, depth=3)
        width = reach(f, m) + 1
        frame = UniformWindowFrame(width, m)
        letters = letters_of(f)
        n_bits = len(letters) * width
        ev = BatchEvaluator(frame, letters, range(1 << n_bits))
        table = unpack(ev.table(f), 1 << n_bits)
        for code in range(1 << n_bits):
            model = Model(frame, decode_valuation(code, letters, width))
            assert table[0, code] == eval_nt(model, 0, f)


def test_rule_valid_in_frame_resource_cap():
    from itl import ResourceCapError

    frame = FiniteLassoFrame(4, 0, (1, 1, 1, 1))
    with pytest.raises(ResourceCapError):
        rule_valid_in_frame(frame, parse_rule("p, q / r"), max_atoms=8)


def test_rule_valid_on_uniform_frame_requires_fitting_windows():
    frame = UniformWindowFrame(3, 1)
    assert rule_valid_in_frame(frame, parse_rule("p / p"))
    with pytest.raises(WindowOverflowError):
        rule_valid_in_frame(frame, parse_rule("X p / p"))
