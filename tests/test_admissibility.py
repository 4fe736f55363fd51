"""Substitution machinery, refutation search and the admissibility screens."""

import json
import random
from itertools import product

import pytest

from itl import (
    FALSE,
    TRUE,
    AdmissibilityReport,
    AdmissibilityStatus,
    And,
    FiniteLassoFrame,
    Implies,
    Letter,
    Next,
    Not,
    Rule,
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
    pool_size,
    reach,
    rule_valid_in_frame,
    search_refuting_substitution,
    subformulas,
    substitution_pool,
)
from itl import admissibility
from itl.admissibility import DEFAULT_MAX_TUPLES, pool_classes, report_to_dict
from itl.cli import main
from itl.frames import UniformWindowFrame
from itl.limits import DEFAULT_MAX_ATOMS, DEFAULT_MAX_WORLDS
from itl.syntax import _post_order, children
from itl.tables import BatchEvaluator

from helpers import random_formula

p, q, x = Letter("p"), Letter("q"), Letter("x")


@pytest.fixture(autouse=True)
def cold_records():
    """Every test starts with no reach records cached, so none reads another's."""
    admissibility._records.cache_clear()
    yield
    admissibility._records.cache_clear()


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


def test_pool_size_follows_the_built_pools():
    assert [pool_size(d) for d in range(3)] == [len(substitution_pool(d)) for d in range(3)]
    assert pool_size(3) == 4593483


def test_letterless_rule_needs_no_pool():
    report = search_refuting_substitution(parse_rule("true / X false"), 1, 9)
    assert report.status is AdmissibilityStatus.REFUTED and report.substitution == {}
    report = search_refuting_substitution(parse_rule("true / X false"), 1, 28, max_tuples=0)
    assert report.cap_note == "1 substitution tuples exceed the cap of 0"  # its one tuple at any depth


def _structural_pool(depth):
    """The pool deduplicated by structural equality, as it was first written."""
    pool = [TRUE, FALSE, Letter("p")]
    seen = set(pool)
    for _ in range(depth):
        snapshot = list(pool)
        candidates = [g for f in snapshot for g in (Not(f), Next(f))]
        candidates += [g for f in snapshot for h in snapshot for g in (Until(f, h), And(f, h))]
        for g in candidates:
            if g not in seen:
                seen.add(g)
                pool.append(g)
    return pool


def test_pool_equals_the_structural_dedup_in_order():
    for depth in (0, 1, 2):
        assert substitution_pool(depth) == _structural_pool(depth)


def _equivalent(f, g, m):
    return decide_uniform_theorem(And(Implies(f, g), Implies(g, f)), m).kind is VerdictKind.THEOREM


def _row_key(depth, m):
    """A formula's world-0 row on the window of the depth's widest member: equal exactly for equivalent members."""
    width = depth * m + 1
    ev = BatchEvaluator(UniformWindowFrame(width, m), ["p"], range(1 << width))
    return lambda f: (ev.table(f)[0] & ev.valid).tobytes()


def _post_hoc_classes(depth, m):
    """The whole pool, each member's class first and the reach records, found after building the pool.

    Every member is keyed on its row.  Equivalence is a congruence, so a
    member whose constructor and child classes match an earlier member's
    takes that member's key without being evaluated.
    """
    pool = substitution_pool(depth)
    key_of_row = _row_key(depth, m)
    key_of_shape, first_of_key, least = {}, {}, {}
    keys, firsts, records = {}, [], []
    for f in pool:
        kids = children(f)
        shape = (type(f), *[keys[id(c)] for c in kids]) if kids else f  # a leaf is its own shape
        key = key_of_shape.get(shape)
        if key is None:
            key = key_of_shape[shape] = key_of_row(f)
        keys[id(f)] = key
        firsts.append(first_of_key.setdefault(key, f))
        r = reach(f, m)
        if r < least.get(key, r + 1):
            least[key] = r
            records.append(f)
    return pool, firsts, records


@pytest.mark.parametrize("depth, m, classes", [(1, 1, 6), (1, 3, 6), (2, 1, 16), (2, 2, 19)])
def test_pool_classes_are_the_equivalence_classes(depth, m, classes):
    reps = pool_classes(depth, m)
    assert len(reps) == classes
    pool, firsts, _ = _post_hoc_classes(depth, m)
    assert reps == list(dict.fromkeys(firsts))
    for f, first in zip(pool, firsts):
        assert _equivalent(f, first, m)
    for a, b in product(reps, repeat=2):
        assert a is b or not _equivalent(a, b, m)


# The (depth, m) at which the pool is classified: its widest window,
# 2m + 1 worlds at depth 2 and m + 1 at depth 1, has at most 20 bits.
_CLASSIFIED = [(0, m) for m in (1, 2, 5, 20, 40)] + [(1, m) for m in range(1, 20)] + [(2, m) for m in range(1, 10)]


@pytest.mark.parametrize("depth, m", _CLASSIFIED)
def test_class_firsts_reach_no_further_and_have_no_more_letters(depth, m):
    pool, firsts, records = _post_hoc_classes(depth, m)
    assert pool_classes(depth, m, max_worlds=depth * m + 1) == records  # a world cap that leaves no member out
    assert pool_classes(depth, m) == [f for f in records if reach(f, m) < DEFAULT_MAX_WORLDS]
    assert records == list(dict.fromkeys(firsts))  # at depth <= 2 the reach records are the class firsts
    for f, first in zip(pool, firsts):
        assert reach(first, m) <= reach(f, m)
        if not letters_of(f):
            assert first in (TRUE, FALSE)


def test_class_first_reaching_further_than_a_member_is_not_used():
    # At depth 3 some class first reaches further than a later member of its
    # class.  Substituting the first for that member could push an instance
    # over a cap, so the later member that reaches less far is a record too.
    m = 2
    key = _row_key(3, m)
    first_of_key = {}
    later = []
    for f in pool_classes(3, m):
        first = first_of_key.setdefault(key(f), f)
        if first is not f:
            later.append((f, first))
    assert len(first_of_key) == 112 and len(later) == 2
    for f, first in later:
        assert reach(f, m) < reach(first, m)
        assert _equivalent(f, first, m)


def test_pool_classes_keep_the_tables_of_records_only(monkeypatch):
    made = []

    class Recorded(BatchEvaluator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.built = 0
            made.append(self)

        def table(self, f):
            self.built += id(f) not in self._memo
            return super().table(f)

    monkeypatch.setattr(admissibility, "BatchEvaluator", Recorded)
    records = pool_classes(2, 2)
    (ev,) = made
    assert ev.built > 2 * len(records)  # it built a table for every candidate
    assert set(ev._memo) == {id(f) for f in records}  # no table of a rejected candidate is kept
    assert {id(f) for f in ev._pinned} == set(ev._memo)  # nor its pin


def test_pool_too_wide_to_classify_is_searched_whole(monkeypatch):
    # p U p reaches m, so its window needs m + 1 valuation bits; (p U p) U p
    # needs 2m + 1.  The world cap narrows the keyed window, so the search
    # still walks the classes and never builds the whole pool.
    def no_pool(*args, **kwargs):
        raise AssertionError("the whole pool was built")

    monkeypatch.setattr(admissibility, "substitution_pool", no_pool)
    for depth, m in [(1, DEFAULT_MAX_ATOMS), (2, DEFAULT_MAX_ATOMS // 2)]:
        rule = parse_rule("x / x U X x")
        got = search_refuting_substitution(rule, m, depth)
        assert report_to_dict(got) == report_to_dict(_full_search(rule, m, depth))


def test_depth_three_is_searched_without_building_the_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("the depth-3 pool was built")

    monkeypatch.setattr(admissibility, "substitution_pool", no_pool)
    for m in (1, 2):
        report = search_refuting_substitution(parse_rule("x | !x / x | X !x"), m, 3, max_tuples=5_000_000)
        assert report.status is AdmissibilityStatus.REFUTED
        assert report.substitution == {"x": p}


@pytest.mark.parametrize("m", [1, 2])
def test_random_depth_three_members_have_a_record_in_their_place(m):
    rng = random.Random(211 + m)
    below = substitution_pool(2)
    key = _row_key(3, m)
    records = {}
    for g in pool_classes(3, m):
        records.setdefault(key(g), []).append(g)
    for _ in range(2000):
        build = rng.choice([Not, Next, Until, And])
        f = build(rng.choice(below)) if build in (Not, Next) else build(rng.choice(below), rng.choice(below))
        assert any(
            reach(g, m) <= reach(f, m) and set(letters_of(g)) <= set(letters_of(f)) for g in records[key(f)]
        ), f


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
    assert admissibility_consequences_check(rule, 1) is None
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


# --- the class search against the whole pool ------------------------------------


def _full_search(rule, m, depth, *, max_tuples=None, max_atoms=None, max_worlds=None):
    """Every tuple of the whole pool in product order: the search the class search replaces."""
    pool = substitution_pool(depth)
    letters = rule.letters
    cap = DEFAULT_MAX_TUPLES if max_tuples is None else max_tuples
    total = len(pool) ** len(letters)
    if total > cap:
        return AdmissibilityReport(
            AdmissibilityStatus.NO_REFUTATION,
            depth=depth,
            cap_note=f"{total} substitution tuples exceed the cap of {cap}",
        )
    caps = {"max_atoms": max_atoms, "max_worlds": max_worlds}
    for combo in product(pool, repeat=len(letters)):
        sub = dict(zip(letters, combo))
        verdicts = []
        for p in rule.premises:
            verdicts.append(decide_uniform_theorem(apply_substitution(p, sub), m, **caps))
            if verdicts[-1].kind is not VerdictKind.THEOREM:
                break
        else:
            cv = decide_uniform_theorem(apply_substitution(rule.conclusion, sub), m, **caps)
            if cv.kind is VerdictKind.NON_THEOREM:
                return AdmissibilityReport(
                    AdmissibilityStatus.REFUTED, sub, tuple(verdicts), cv, depth=depth
                )
    return AdmissibilityReport(AdmissibilityStatus.NO_REFUTATION, depth=depth)


def _random_rule(rng, letters):
    names = {"p": Letter("x"), "q": Letter("y")}
    rule = Rule(
        tuple(random_formula(rng, letters, 2) for _ in range(rng.randint(1, 2))),
        random_formula(rng, letters, 2),
    )
    return Rule(
        tuple(apply_substitution(f, names) for f in rule.premises),
        apply_substitution(rule.conclusion, names),
    )


# Rules whose first refuting tuple is not made of constants: x = p or !p at
# depth 1, x = !p & X p (pool member 452) at depth 2.
_REFUTED_BY_LETTER_FORMULAS = [
    (1, 1, "x | !x / x | X !x"),
    (1, 2, "y | x / X x | (y | y)"),
    (2, 1, "(x -> x) U !x / x -> X x"),
    (2, 2, "x U (x -> false) / X !x"),
]


@pytest.mark.parametrize("tight", [False, True], ids=["default-caps", "tight-caps"])
def test_class_search_reports_what_the_whole_pool_search_reports(monkeypatch, tight):
    reads = _reads(monkeypatch)
    rng = random.Random(131 if tight else 137)
    # (depth, letters) mixes: a 1-letter rule at depth 2 walks all 1515 pool tuples in the reference
    mixes = [(0, 1), (0, 2)] * 4 + [(1, 1), (1, 2)] * 5 + [(2, 1)] * 3 + [(2, 2)]
    corpus = [(depth, rng.randint(1, 3), _random_rule(rng, letters), {}) for depth, letters in mixes]
    if not tight:
        corpus += [(depth, m, parse_rule(text), {}) for depth, m, text in _REFUTED_BY_LETTER_FORMULAS]
        # Pools whose widest window, 21 worlds, has more valuation bits than
        # DEFAULT_MAX_ATOMS: the world cap narrows the keyed window to 12.
        corpus += [(1, 20, parse_rule(text), {}) for text in ("x | !x / x | X !x", "y | x / X x | (y | y)", "X x / x")]
        corpus += [(2, 10, parse_rule(text), {}) for text in ("(x -> x) U !x / x -> X x", "X x / x")]
        # Caps past DEFAULT_MAX_ATOMS: the members reaching 20 have no key on
        # the 20-world window, so each is kept as a class of its own.
        wide = {"max_worlds": 22, "max_atoms": 22}
        past = [f for f in substitution_pool(1) if reach(f, 20) >= 20]
        assert past and [f for f in pool_classes(1, 20, wide["max_worlds"]) if reach(f, 20) >= 20] == past
        corpus.append((1, 20, parse_rule("(x -> x) U !x / x -> X x"), wide))
    statuses = set()
    for depth, m, rule, caps in corpus:
        if tight:
            caps = {"max_worlds": rng.randint(2, 4), "max_atoms": rng.randint(3, 8)}
        got = search_refuting_substitution(rule, m, depth, **caps)
        want = _full_search(rule, m, depth, **caps)
        assert json.dumps(report_to_dict(got), sort_keys=True) == json.dumps(report_to_dict(want), sort_keys=True)
        assert got.premise_verdicts == want.premise_verdicts
        statuses.add((got.status, got.cap_note is not None))
    assert (AdmissibilityStatus.REFUTED, False) in statuses
    assert (AdmissibilityStatus.NO_REFUTATION, False) in statuses
    if tight:
        # the class search met verdicts the caps left open
        assert VerdictKind.INCONCLUSIVE in {kind for _, (kind, _, _) in reads}


# --- work kept across tuples and searches ----------------------------------------


def _reads(monkeypatch):
    """Record every formula whose kind the search reads, with its reading."""
    calls = []
    real = admissibility._Kinds.read

    def spy(self, f, pattern=None):
        reading = real(self, f, pattern)
        calls.append((f, reading))
        return reading

    monkeypatch.setattr(admissibility._Kinds, "read", spy)
    return calls


def test_a_premise_reading_one_letter_is_decided_once_per_candidate(monkeypatch):
    reads = _reads(monkeypatch)
    rule = parse_rule("X X x, y / x & y")
    report = search_refuting_substitution(rule, 1, 1)
    assert report.status is AdmissibilityStatus.NO_REFUTATION  # every tuple was walked
    calls = [f for f, _ in reads]
    records = pool_classes(1, 1)
    instances = [apply_substitution(rule.premises[0], {"x": c}) for c in records]
    assert [f for f in calls if f in instances] == instances  # not once per tuple of len(records) ** 2


def test_a_formula_reading_every_letter_is_decided_once_per_tuple(monkeypatch):
    reads = _reads(monkeypatch)
    rule = parse_rule("X (x & y) / X X (y & x)")  # a premise x & y would be read by its conjuncts
    assert search_refuting_substitution(rule, 1, 1).status is AdmissibilityStatus.NO_REFUTATION
    calls = [f for f, _ in reads]
    records = pool_classes(1, 1)
    instances = [apply_substitution(rule.premises[0], {"x": a, "y": b}) for a, b in product(records, repeat=2)]
    assert [f for f in calls if f in instances] == instances


def test_a_conclusion_that_is_the_premise_is_decided_once(monkeypatch):
    reads = _reads(monkeypatch)
    rule = parse_rule("x / x")
    assert rule.conclusion is rule.premises[0]  # the parser shares equal subtrees
    assert search_refuting_substitution(rule, 1, 1).status is AdmissibilityStatus.NO_REFUTATION
    assert [f for f, _ in reads] == pool_classes(1, 1)  # the instance of x is the candidate itself


def _built(monkeypatch):
    """Record the world cap of every pool_classes call."""
    caps = []
    real = admissibility.pool_classes

    def spy(depth, m, max_worlds=None):
        caps.append(max_worlds)
        return real(depth, m, max_worlds)

    monkeypatch.setattr(admissibility, "pool_classes", spy)
    return caps


def test_records_are_built_once_per_depth_m_and_world_cap(monkeypatch):
    caps = _built(monkeypatch)
    rule = parse_rule("x | !x / x | X X !x")
    default = search_refuting_substitution(rule, 1, 1)
    assert search_refuting_substitution(rule, 1, 1, max_worlds=DEFAULT_MAX_WORLDS) == default
    assert default.status is AdmissibilityStatus.REFUTED and caps == [DEFAULT_MAX_WORLDS]
    tight = search_refuting_substitution(rule, 1, 1, max_worlds=3)
    assert caps == [DEFAULT_MAX_WORLDS, 3]
    want = _full_search(rule, 1, 1, max_worlds=3)
    assert report_to_dict(tight) == report_to_dict(want) and tight.premise_verdicts == want.premise_verdicts


def test_cli_world_cap_reads_its_own_records(monkeypatch, capsys):
    caps = _built(monkeypatch)
    argv = ["admissible", "--m", "1", "--depth", "1", "--rule", "x | !x / x | X X !x"]

    def stdout(env):
        if env is None:
            monkeypatch.delenv("ITL_MAX_WORLDS", raising=False)
        else:
            monkeypatch.setenv("ITL_MAX_WORLDS", env)
        assert main(argv) == 0
        return capsys.readouterr().out

    cold = stdout("2")
    admissibility._records.cache_clear()
    refuted = stdout(None)
    assert stdout("2") == cold != refuted  # at 2 worlds the refuting instance is Inconclusive
    assert caps == [2, DEFAULT_MAX_WORLDS, 2]  # the warm default-cap records did not serve the 2-world search


# --- kinds read off shared window tables ------------------------------------------


def _reading_caps(rng, caps):
    if caps == "tight":
        return {"max_worlds": rng.randint(0, 6), "max_atoms": rng.randint(0, 10)}
    return {"max_worlds": 16, "max_atoms": 24} if caps == "raised" else {}


@pytest.mark.parametrize("caps", ["default", "tight", "raised"])
def test_the_kind_reader_reads_what_decide_gives(caps):
    rng = random.Random({"default": 401, "tight": 409, "raised": 419}[caps])
    candidates = substitution_pool(1)
    met = set()
    for _ in range(30):
        m, cap = rng.randint(1, 3), _reading_caps(rng, caps)
        # one reader for every read below, as in one search
        kinds = admissibility._Kinds(m, cap.get("max_atoms"), cap.get("max_worlds"))
        for _ in range(4):
            rule = _random_rule(rng, rng.randint(1, 2))
            for f in (*rule.premises, rule.conclusion):
                f = And(f, rule.conclusion) if rng.random() < 0.3 else f
                for g in (f, Not(f)):  # what the screens read
                    assert kinds.read(g)[0] is decide_uniform_theorem(g, m, **cap).kind, (g, m, cap)
                sub = {a: rng.choice(candidates) for a in rule.letters}
                instance = apply_substitution(f, sub)
                want = decide_uniform_theorem(instance, m, **cap).kind
                kind, letters, width = kinds.read(instance, f)
                assert kind is want, (instance, m, cap)
                conjuncts = admissibility._conjuncts(f)
                readings = [kinds.read(apply_substitution(c, sub), c) for c in conjuncts]
                assert kinds.conjunction(readings) is want, (instance, m, cap)
                met.add(want)
                if want is not VerdictKind.INCONCLUSIVE:
                    bits = len(letters) * width
                    met.add("letterless" if not letters else "over one word" if bits > 6 else "one word")
    assert {VerdictKind.THEOREM, VerdictKind.NON_THEOREM, "letterless", "one word"} <= met
    if caps == "tight":
        assert VerdictKind.INCONCLUSIVE in met
    else:
        assert "over one word" in met


def test_a_search_keeps_no_table_of_an_instance_node(monkeypatch):
    made = []

    class Recorded(BatchEvaluator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.instances = 0  # tables built for nodes neither a candidate nor the rule holds
            made.append(self)

        def table(self, f):
            self.instances += id(f) not in self._memo and id(f) not in kept
            return super().table(f)

    built = 0
    for text, m, depth in [
        ("x, y / x & y", 1, 1),
        ("X X x, y / x U y", 2, 1),
        ("(x -> x) U !x / x -> X x", 2, 2),
        ("x & X y & (x U y) / X x", 1, 1),
        ("x | !x / x | X !x", 1, 1),
    ]:
        rule = parse_rule(text)
        # built before the spy, as a warm search finds them
        records = admissibility._records(depth, m, DEFAULT_MAX_WORLDS)
        kept = {id(g) for g in _post_order((*records, *rule.premises, rule.conclusion))}
        monkeypatch.setattr(admissibility, "BatchEvaluator", Recorded)
        made.clear()
        search_refuting_substitution(rule, m, depth)
        monkeypatch.undo()
        for ev in made:
            assert set(ev._memo) <= kept
            assert {id(g) for g in ev._pinned} == set(ev._memo)
        built += sum(ev.instances for ev in made)
    assert built > 0  # the searches evaluated instance nodes on these evaluators


_CONJUNCTION_RULES = [
    "x & y / x",
    "x & X y, y / X (x & y)",
    "x & (y U x) / y",
    "x & !y / false",
    "x / x & X x",
    "y / (x | y) & X x",
    "x & y & !x / y",
    "(x U y) & X y / x",
    "X x & X X y / X (x | y)",
]


@pytest.mark.parametrize("tight", [False, True], ids=["default-caps", "tight-caps"])
def test_a_split_conjunction_reports_what_the_whole_pool_search_reports(tight):
    caps = {"max_worlds": 3, "max_atoms": 2} if tight else {}
    statuses = set()
    for text in _CONJUNCTION_RULES:
        rule = parse_rule(text)
        for m, depth in [(1, 1), (2, 1), (1, 2)][: 3 if len(rule.letters) == 1 else 2]:
            got = search_refuting_substitution(rule, m, depth, **caps)
            want = _full_search(rule, m, depth, **caps)
            assert json.dumps(report_to_dict(got), sort_keys=True) == json.dumps(report_to_dict(want), sort_keys=True)
            assert got.premise_verdicts == want.premise_verdicts
            statuses.add(got.status)
    assert statuses == {AdmissibilityStatus.REFUTED, AdmissibilityStatus.NO_REFUTATION}


def test_a_conjunction_is_read_once_per_candidate_of_each_conjunct(monkeypatch):
    reads = _reads(monkeypatch)
    rule = parse_rule("a & b & c & d / X a | (b U c)")
    got = search_refuting_substitution(rule, 1, 0)
    assert report_to_dict(got) == report_to_dict(_full_search(rule, 1, 0))
    calls = [f for f, _ in reads]
    conclusion = apply_substitution(rule.conclusion, dict.fromkeys("abc", TRUE))  # read when every premise holds
    assert calls.count(conclusion) == 1
    assert len(calls) == 4 * len(pool_classes(0, 1)) + 1  # not once per tuple of len(records) ** 4
