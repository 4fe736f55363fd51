"""Decision procedures, certificates and their serialization."""

import json
import random
from pathlib import Path

import pytest

from itl import (
    Countermodel,
    FiniteLassoFrame,
    Letter,
    Model,
    Rule,
    UniformWindowFrame,
    Until,
    Valuation,
    Verdict,
    VerdictKind,
    bounded_nt_refutation,
    check_certificate,
    decide_uniform_satisfiable,
    decide_uniform_theorem,
    eval_nt,
    finite_model_size_bound,
    iter_lasso_frames,
    letters_of,
    parse_formula,
    parse_rule,
    reach,
    read_set,
    to_reduced_normal_form,
    verdict_from_dict,
    verdict_to_dict,
)
from itl.decide import SearchCaps, _reads_reach, iter_lasso_runs, verdict_to_json
from itl.limits import DEFAULT_MAX_ATOMS, DEFAULT_MAX_WORLDS
from itl.normalform import match_reduced_form
from itl.semantics import rule_refutation_mask
from itl.syntax import children
from itl import tables
from itl.tables import decode_valuation, scan_valuations

from helpers import random_formula, random_rule, random_uniform_model

p = Letter("p")


# --- uniform theoremhood ----------------------------------------------------


def test_bounded_next_conjunction_implies_box():
    f = parse_formula("(p & X p & X X p) -> G p")
    assert decide_uniform_theorem(f, 2).kind is VerdictKind.THEOREM


def test_box_transitivity_fails_in_window_logic():
    verdict = decide_uniform_theorem(parse_formula("G p -> G G p"), 1)
    assert verdict.kind is VerdictKind.NON_THEOREM
    cert = verdict.certificate
    assert cert.world == 0
    assert cert.model.valuation.true_worlds["p"] == frozenset({0, 1})
    assert check_certificate(verdict)


def test_reflexive_eventually_is_a_theorem():
    for m in (1, 2, 3):
        assert decide_uniform_theorem(parse_formula("p -> F p"), m).kind is VerdictKind.THEOREM


def test_double_eventually_needs_a_wider_window():
    verdict = decide_uniform_theorem(parse_formula("F F p -> F p"), 2)
    assert verdict.kind is VerdictKind.NON_THEOREM
    assert verdict.certificate.model.valuation.true_worlds["p"] == frozenset({3})
    assert check_certificate(verdict)


def test_caps_give_inconclusive():
    verdict = decide_uniform_theorem(parse_formula("G G G p"), 4, max_worlds=5)
    assert verdict.kind is VerdictKind.INCONCLUSIVE
    assert verdict.caps == SearchCaps(max_worlds=5, max_atoms=20)


# --- uniform satisfiability ---------------------------------------------------


def test_contradiction_unsatisfiable():
    assert decide_uniform_satisfiable(parse_formula("p & !p"), 1).kind is VerdictKind.UNSATISFIABLE


def test_flip_satisfiable_with_witness():
    verdict = decide_uniform_satisfiable(parse_formula("p & X !p"), 1)
    assert verdict.kind is VerdictKind.SATISFIABLE
    assert verdict.certificate.model.valuation.true_worlds["p"] == frozenset({0})
    assert check_certificate(verdict)


def test_box_against_eventually_not_shares_one_window():
    # G p and F !p quantify over the same window at world 0, so their
    # conjunction is contradictory; the duality with theoremhood of the
    # negation pins the verdict
    f = parse_formula("G p & F !p")
    assert decide_uniform_satisfiable(f, 1).kind is VerdictKind.UNSATISFIABLE
    from itl.syntax import Not

    assert decide_uniform_theorem(Not(f), 1).kind is VerdictKind.THEOREM


def test_satisfiable_witness_self_checks():
    rng = random.Random(43)
    found = 0
    for _ in range(100):
        f = random_formula(rng, letters=2, depth=3)
        verdict = decide_uniform_satisfiable(f, 1)
        if verdict.kind is VerdictKind.SATISFIABLE:
            found += 1
            assert check_certificate(verdict)
    assert found > 10


# --- bounded refutation -------------------------------------------------------


def test_refute_box_transitivity_on_lassos():
    verdict = bounded_nt_refutation(parse_formula("G p -> G G p"), 4, 3)
    assert verdict.kind is VerdictKind.NON_THEOREM
    assert check_certificate(verdict)


def test_validity_stays_inconclusive():
    verdict = bounded_nt_refutation(parse_formula("p -> F p"), 3, 2)
    assert verdict.kind is VerdictKind.INCONCLUSIVE
    assert verdict.caps == SearchCaps(max_worlds=3, max_reach=2)


def test_rule_refutation_with_certificate():
    verdict = bounded_nt_refutation(parse_rule("X x / x"), 2, 1)
    assert verdict.kind is VerdictKind.NON_THEOREM
    cert = verdict.certificate
    assert cert.model.frame == FiniteLassoFrame(2, 1, (1, 1))
    assert cert.model.valuation.true_worlds["x"] == frozenset({1})
    assert cert.world == 0
    assert check_certificate(verdict)


def test_monotone_caps_keep_refutations():
    rng = random.Random(47)
    checked = 0
    for _ in range(60):
        f = random_formula(rng, letters=2, depth=3)
        small = bounded_nt_refutation(f, 3, 2)
        if small.kind is VerdictKind.NON_THEOREM:
            checked += 1
            assert bounded_nt_refutation(f, 4, 3).kind is VerdictKind.NON_THEOREM
    assert checked > 10


def test_frame_enumeration_order():
    frames = list(iter_lasso_frames(2, 2))
    assert frames[0] == FiniteLassoFrame(1, 0, (1,))
    assert frames[1] == FiniteLassoFrame(2, 0, (1, 1))
    assert frames[2] == FiniteLassoFrame(2, 0, (1, 2))
    assert frames[3] == FiniteLassoFrame(2, 0, (2, 2))
    assert frames[4] == FiniteLassoFrame(2, 1, (1, 1))
    assert len(frames) == 7


@pytest.mark.parametrize("caps", [(6, 4), (5, 5), (3, 2), (1, 1), (4, 1)])
def test_runs_concatenate_to_the_frame_order(caps):
    runs = list(iter_lasso_runs(*caps))
    assert [run.frame(i) for run in runs for i in range(len(run))] == list(iter_lasso_frames(*caps))
    assert [run.worlds for run in runs] == list(range(1, caps[0] + 1))  # one run per frame size


def test_a_run_keeps_one_reach_array_for_all_its_loops():
    run = list(iter_lasso_runs(8, 8))[-1]
    assert (run.worlds, run.reaches.shape) == (8, (6435, 8))  # C(15, 8) vectors
    assert len(run) == 8 * 6435
    assert run.frame(6435) == FiniteLassoFrame(8, 1, (1,) * 8)  # the loop of frame i is i // 6435


# --- the batched lasso search against a frame-by-frame reference --------------


def _frame_by_frame_search(target, max_worlds, max_reach):
    """The search of bounded_nt_refutation, one scan per frame of iter_lasso_frames: (verdict, code)."""
    if isinstance(target, Rule):
        letters, mask, failing = target.letters, rule_refutation_mask(target), target.conclusion
    else:
        letters, mask, failing = letters_of(target), (lambda ev: ~ev.everywhere(target)), target
    for frame in iter_lasso_frames(max_worlds, max_reach):
        code = scan_valuations(frame, letters, mask)
        if code is not None:
            model = Model(frame, decode_valuation(code, letters, frame.worlds))
            world = next(a for a in range(frame.worlds) if not eval_nt(model, a, failing))
            return Verdict(VerdictKind.NON_THEOREM, Countermodel(model, world, target)), code
    return Verdict(VerdictKind.INCONCLUSIVE, caps=SearchCaps(max_worlds=max_worlds, max_reach=max_reach)), None


def _has_until(f):
    """Whether an Until occurs in ``f``, by plain recursion (reference for the search's iterative walk)."""
    return isinstance(f, Until) or any(map(_has_until, children(f)))


def _assert_same_search(target, max_worlds, max_reach):
    """The batched search finds the reference's frame, world and code; returns (frame, its index in its shape, code).

    A frame's shape is its ``(worlds, loop)`` pair, and its index counts the
    frames of that shape before it in :func:`iter_lasso_frames` order.
    """
    formulas = (*target.premises, target.conclusion) if isinstance(target, Rule) else (target,)
    assert _reads_reach(formulas) == any(map(_has_until, formulas))
    batched = bounded_nt_refutation(target, max_worlds, max_reach)
    reference, code = _frame_by_frame_search(target, max_worlds, max_reach)
    assert verdict_to_json(batched) == verdict_to_json(reference)
    assert batched == reference  # same frame, world and valuation, i.e. the same code
    if code is None:
        return None
    frame = batched.certificate.model.frame
    shape = [g for g in iter_lasso_frames(max_worlds, max_reach) if (g.worlds, g.loop) == (frame.worlds, frame.loop)]
    return frame, shape.index(frame), code


@pytest.mark.parametrize("caps, count", [((6, 4), 20), ((5, 5), 16), ((3, 2), 40)])
def test_batched_search_matches_frame_by_frame_scans(caps, count):
    rng = random.Random(61 + caps[0])
    outcomes = set()
    for _ in range(count):
        letters = rng.randint(1, 2)
        if rng.random() < 0.3:
            target = random_rule(rng, letters=letters, depth=2)
        else:
            target = random_formula(rng, letters=letters, depth=rng.randint(1, 4))
        outcomes.add(_assert_same_search(target, *caps) is None)
    assert outcomes == {True, False}  # both refutations and exhausted searches


@pytest.mark.parametrize("caps", [(4, 3), (5, 2)])
def test_until_free_search_matches_frame_by_frame_scans_over_all_frames(caps):
    # an Until-free target is searched on the all-ones reach vector only
    rng = random.Random(67 + caps[0])
    outcomes = []
    for _ in range(60):
        letters = rng.randint(1, 2)
        if rng.random() < 0.4:
            target = random_rule(rng, letters=letters, depth=2, until=False)
        else:
            target = random_formula(rng, letters=letters, depth=rng.randint(1, 4), until=False)
        outcomes.append(_assert_same_search(target, *caps) is None)
    assert 10 < sum(outcomes) < 50  # both refutations and exhausted searches


def test_until_free_target_scans_one_frame_per_shape(monkeypatch):
    from itl import decide

    scanned = []

    def counting(run, *args, **kwargs):
        scanned.append(len(run))
        return scan_valuations(run, *args, **kwargs)

    monkeypatch.setattr(decide, "scan_valuations", counting)
    f = parse_formula("X p -> (X p | (X q | p))")  # valid on every frame: the search runs to the end
    verdict = bounded_nt_refutation(f, 8, 4)
    assert verdict.kind is VerdictKind.INCONCLUSIVE
    assert verdict.caps == SearchCaps(max_worlds=8, max_reach=4)  # the caps the caller gave
    assert scanned == list(range(1, 9)) and sum(scanned) == 36  # one frame per (worlds, loop) shape
    scanned.clear()
    bounded_nt_refutation(parse_formula("(p U q) | !(p U q)"), 4, 3)
    assert sum(scanned) == len(list(iter_lasso_frames(4, 3)))  # an Until reads reach: every frame


# A hit needs a 6-cycle with p at one world only (so loop 0), and F p two,
# three and four steps on needs reach (1, 1, 1, 4, 4, 4): frame 19 of its run.
_SIX_CYCLE = (
    "p & X !p & X X !p & X X X !p & X X X X !p & X X X X X !p & X X X X X X p"
    " & X X F p & X X X F p & X X X X F p"
)
# Six worlds in a row with distinct 3-letter states 4, 0, 5, 1, 6, 7: r holds
# at four of them, one always at world 4 or 5, so the code is >= 2**16.
_STATES = " & ".join(
    "X " * i + "(" + " & ".join(("" if (state >> b) & 1 else "!") + name for b, name in enumerate("pqr")) + ")"
    for i, state in enumerate((4, 0, 5, 1, 6, 7))
)


@pytest.mark.parametrize(
    "text, worlds, index, min_code",
    [
        ("p", 1, 0, 0),  # a 1-world frame: 2 valuations in a padded word
        ("F p -> p | X p", 3, 1, 0),  # the second frame of a batch of 3-bit frames
        (f"!({_SIX_CYCLE})", 6, 19, 0),  # a later frame of a one-word-per-frame batch
        (f"!({_SIX_CYCLE} & (q | !q))", 6, 19, 0),  # 16 frames a batch: the run's second batch
        (f"!({_STATES})", 6, 0, 1 << 16),  # a 2**18-valuation frame: a later chunk of it
    ],
    ids=["one-world", "later-frame-partial-words", "later-frame", "later-batch", "later-chunk"],
)
def test_batched_search_finds_hits_in_later_frames_batches_and_chunks(text, worlds, index, min_code):
    frame, found_index, code = _assert_same_search(parse_formula(text), 6, 4)
    assert (frame.worlds, found_index) == (worlds, index) and code >= min_code


@pytest.mark.parametrize(
    "text, caps, refuted",
    [("X x / x", (6, 4), True), ("x / X x", (6, 4), False), ("X X x / x", (3, 2), True), ("x U y / x", (3, 2), True)],
)
def test_batched_search_on_reduced_form_rules(text, caps, refuted):
    rule = to_reduced_normal_form(parse_rule(text)).to_rule()
    assert match_reduced_form(rule) is not None  # the sign-table path
    assert (_assert_same_search(rule, *caps) is not None) == refuted


# --- size bound ----------------------------------------------------------------


def test_size_bound_values():
    assert finite_model_size_bound(1, 1) == 2
    assert finite_model_size_bound(1, 2) == 20
    assert finite_model_size_bound(2, 2) == 1552


def test_size_bound_against_independent_arithmetic():
    # second route: factorial and power by explicit products
    def slow(n, l):
        nl = n * l
        power = 1
        for _ in range(nl):
            power *= l
        fact = 1
        for i in range(1, nl + 1):
            fact *= i
        return nl * power * fact + power

    for n in (1, 2, 3):
        for l in (1, 2, 3):
            assert finite_model_size_bound(n, l) == slow(n, l)
    assert finite_model_size_bound(2, 3) == slow(2, 3)


def test_size_bound_rejects_bad_counts():
    with pytest.raises(ValueError):
        finite_model_size_bound(0, 1)


# --- certificates ----------------------------------------------------------------


def test_bogus_certificate_rejected():
    model = Model(UniformWindowFrame(2, 1), Valuation({"p": frozenset({0, 1})}))
    bogus = Verdict(
        VerdictKind.NON_THEOREM, Countermodel(model, 0, parse_formula("G p"))
    )
    assert not check_certificate(bogus)


@pytest.mark.parametrize(
    "kind, target",
    [
        (VerdictKind.NON_THEOREM, parse_formula("X p")),
        (VerdictKind.SATISFIABLE, parse_formula("p U q")),
        (VerdictKind.NON_THEOREM, parse_rule("X p / p")),  # the premise's window overruns at the last world
    ],
)
def test_certificate_whose_window_overruns_its_frame_rejected(kind, target):
    model = Model(UniformWindowFrame(1, 1), Valuation({"p": frozenset({0})}))
    assert not check_certificate(Verdict(kind, Countermodel(model, 0, target)))


def test_verdict_without_certificate_rejected():
    with pytest.raises(ValueError):
        check_certificate(Verdict(VerdictKind.THEOREM))


def test_certificate_serialization_round_trip():
    verdict = decide_uniform_theorem(parse_formula("G p -> G G p"), 2)
    data = verdict_to_dict(verdict)
    again = verdict_from_dict(data)
    assert again.kind is verdict.kind
    assert check_certificate(again)
    assert verdict_to_dict(again) == data

    rule_verdict = bounded_nt_refutation(parse_rule("X x / x"), 2, 1)
    again = verdict_from_dict(verdict_to_dict(rule_verdict))
    assert check_certificate(again)


def test_caps_read_back_as_non_negative_integers_or_null():
    data = {"verdict": "inconclusive", "certificate": None, "caps": {"max_worlds": 3, "max_reach": None}}
    assert verdict_from_dict(data).caps == SearchCaps(max_worlds=3)


# --- world-0 reduction is justified by shift invariance ---------------------


def test_truth_at_any_world_is_truth_at_zero_of_the_shifted_window():
    rng = random.Random(53)
    for _ in range(100):
        m = rng.randint(1, 2)
        f = random_formula(rng, letters=2, depth=3)
        horizon = reach(f, m)
        worlds = horizon + rng.randint(1, 3)
        model = random_uniform_model(rng, letters=2, worlds=worlds, measure=m)
        a = rng.randint(0, worlds - 1 - horizon)
        shifted = Model(
            UniformWindowFrame(horizon + 1, m),
            Valuation(
                {
                    name: frozenset(
                        b - a for b in ws if a <= b <= a + horizon
                    )
                    for name, ws in model.valuation.true_worlds.items()
                }
            ),
        )
        assert eval_nt(model, a, f) == eval_nt(shifted, 0, f)


def test_parallel_jobs_do_not_change_results():
    f = parse_formula("F F p -> F p")
    sequential = decide_uniform_theorem(f, 2, jobs=1)
    parallel = decide_uniform_theorem(f, 2, jobs=4)
    assert sequential == parallel


def test_next_only_uniform_verdicts_agree_with_classic_validity():
    # for Next-only formulas both logics see just the prefix, so theoremhood
    # must coincide with classic validity over all short-lasso valuations
    from itl import ClassicLassoModel, eval_classic
    from itl.syntax import letters_of
    from itl.tables import decode_valuation

    rng = random.Random(83)
    for _ in range(60):
        f = random_formula(rng, letters=2, depth=3)
        while "U" in str(f):
            f = random_formula(rng, letters=2, depth=3)
        depth = reach(f, 1)  # with no Until, reach is the Next depth
        letters = letters_of(f)
        width = depth + 1
        classic_valid = all(
            eval_classic(
                ClassicLassoModel(width, width - 1, decode_valuation(code, letters, width)),
                0,
                f,
            )
            for code in range(1 << (len(letters) * width))
        )
        verdict = decide_uniform_theorem(f, rng.choice((1, 2)))
        assert (verdict.kind is VerdictKind.THEOREM) == classic_valid


# --- read-set sweep against the plain full-window sweep ----------------------

UNIFORM_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "uniform-full.json"


def _plain_uniform_verdict(f, m, want):
    """The uniform decision as a sweep over every bit of the window."""
    letters = letters_of(f)
    width = reach(f, m) + 1
    if width > DEFAULT_MAX_WORLDS or len(letters) * width > DEFAULT_MAX_ATOMS:
        caps = SearchCaps(max_worlds=DEFAULT_MAX_WORLDS, max_atoms=DEFAULT_MAX_ATOMS)
        return Verdict(VerdictKind.INCONCLUSIVE, caps=caps)
    frame = UniformWindowFrame(width, m)
    found = scan_valuations(frame, letters, lambda ev: ev.table(f)[0] if want else ~ev.table(f)[0])
    if found is None:
        return Verdict(VerdictKind.UNSATISFIABLE if want else VerdictKind.THEOREM)
    model = Model(frame, decode_valuation(found, letters, width))
    return Verdict(VerdictKind.SATISFIABLE if want else VerdictKind.NON_THEOREM, Countermodel(model, 0, f))


def _differential_corpus():
    rng = random.Random(2024)
    cases = [(random_formula(rng, letters=3, depth=rng.randint(1, 6)), rng.randint(1, 3)) for _ in range(1000)]
    entries = json.loads(UNIFORM_POOL.read_text())["entries"]
    cases += [(parse_formula(e["formula"]), e["m"]) for e in entries]
    return cases


def test_read_set_sweep_matches_the_plain_sweep_byte_for_byte():
    reduced = 0
    for f, m in _differential_corpus():
        for decide, want in ((decide_uniform_theorem, False), (decide_uniform_satisfiable, True)):
            assert verdict_to_json(decide(f, m)) == verdict_to_json(_plain_uniform_verdict(f, m, want)), (f, m)
        bits = len(letters_of(f)) * (reach(f, m) + 1)
        reduced += 6 < bits <= DEFAULT_MAX_ATOMS and sum(map(int.bit_count, read_set(f, m).values())) < bits
    assert reduced >= 100  # the corpus exercises the reduced layout


def test_full_large_theorem_evaluates_fewer_rows_than_its_window(monkeypatch):
    f = parse_formula("((((false U r) U !s) & (p & q)) -> (p & q))")
    assert len(letters_of(f)) * (reach(f, 2) + 1) == 20
    rows = []

    class Counting(tables.BatchEvaluator):
        def __init__(self, frame, letters, indices, layout=None):
            super().__init__(frame, letters, indices, layout)
            rows.append(len(indices))

    monkeypatch.setattr(tables, "BatchEvaluator", Counting)
    assert decide_uniform_theorem(f, 2).kind is VerdictKind.THEOREM
    assert 0 < sum(rows) < 1 << 20
