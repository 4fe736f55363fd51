"""Parser, printer, derived operators and structural measures."""

import random
import re
import sys

import pytest
from hypothesis import given, strategies as st

from itl import (
    FALSE,
    TRUE,
    And,
    Box,
    BoxIter,
    Diamond,
    DiamondIter,
    Implies,
    K1Past,
    K2Past,
    KDiscovered,
    KPast,
    KRigid,
    KSince,
    Letter,
    Next,
    NextIter,
    Not,
    Or,
    ParseError,
    Rule,
    Until,
    expand_derived,
    letters_of,
    parse_formula,
    parse_rule,
    print_formula,
    print_rule,
    reach,
    read_set,
    subformulas,
)
from itl.syntax import (
    _CONSTANTS,
    _INFIX,
    _PREFIX,
    MAX_NESTING,
    FalseBool,
    Formula,
    TrueBool,
    _height,
    _iterate,
    _tokenize,
    children,
)

from helpers import random_formula

p, q, r = Letter("p"), Letter("q"), Letter("r")


# --- parsing ---------------------------------------------------------------


def test_parse_until():
    assert parse_formula("p U q") == Until(p, q)


def test_parse_expands_box_at_parse_time():
    expected = Implies(
        Not(Until(TRUE, Not(p))),
        Not(Until(TRUE, Not(Not(Until(TRUE, Not(p)))))),
    )
    assert parse_formula("G p -> G G p") == expected


def test_parse_not_and_next():
    assert parse_formula("!p & X p") == And(Not(p), Next(p))


def test_parse_diamond():
    assert parse_formula("F p") == Until(TRUE, p)


def test_parse_precedence_until_binds_tighter_than_and():
    assert parse_formula("p U q & r") == And(Until(p, q), r)


def test_parse_until_left_associative():
    assert parse_formula("p U q U r") == Until(Until(p, q), r)


def test_parse_implies_right_associative():
    assert parse_formula("p -> q -> r") == Implies(p, Implies(q, r))


def test_parse_constants_and_identifiers():
    assert parse_formula("true U falseFlag_2") == Until(TRUE, Letter("falseFlag_2"))
    assert parse_formula("false") == FALSE


@pytest.mark.parametrize(
    "text, column",
    [
        ("p @ q", 3),
        ("Y p", 1),
        ("(p", 3),
        ("p U", 4),
        ("p - q", 3),
        ("(" * (MAX_NESTING + 1) + "p" + ")" * (MAX_NESTING + 1), MAX_NESTING + 1),
        ("!" * MAX_NESTING + "X p", MAX_NESTING + 1),
        ("G " * (MAX_NESTING // 3 + 1) + "p", 2 * (MAX_NESTING // 3) + 1),
        ("p -> " * (MAX_NESTING + 1) + "p", 5 * MAX_NESTING + 3),
        ("p & " * (2 * MAX_NESTING) + "p", 8 * MAX_NESTING - 1),  # the & that makes the tree too high
        ("!(" + "p U " * (2 * MAX_NESTING - 1) + "p)", 1),
        ("q é", 3),
    ],
)
def test_parse_errors_carry_one_based_columns(text, column):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert err.value.column == column


_NAME = re.compile(r"[a-z][a-zA-Z0-9_]*")


def _tokenize_by_character(text):
    """The tokenizer as a loop over characters: the reference for the one-regex tokenizer."""
    tokens, i = [], 0
    while i < len(text):
        ch, col = text[i], i + 1
        if ch in " \t\r\n":
            i += 1
            continue
        name = _NAME.match(text, i)
        if name:
            word = name.group()
            tokens.append((word if word in _CONSTANTS else "name", word, col))
            i = name.end()
            continue
        symbol = "->" if text.startswith("->", i) else ch
        if symbol in _INFIX or symbol in _PREFIX or symbol in "()":
            tokens.append((symbol, symbol, col))
            i += len(symbol)
            continue
        if ch == "-":
            raise ParseError("expected '->'", col)
        if ch.isupper():
            raise ParseError(f"unknown operator token {ch!r}", col)
        raise ParseError(f"unexpected character {ch!r}", col)
    tokens.append(("end", "", len(text) + 1))
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as err:
        return str(err), err.column


def test_the_tokenizer_matches_a_character_loop_token_for_token_and_error_for_error():
    rng = random.Random(5)
    pieces = [*"pqxXGFUZ!&|-<>()/,_1é\t\n\r\x0b ", "->", "true", "false", "ab", "p_1"]
    for _ in range(20000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))
        assert _tokens_or_error(_tokenize, text) == _tokens_or_error(_tokenize_by_character, text), repr(text)


@pytest.mark.parametrize(
    "text",
    [
        "(" * MAX_NESTING + "p" + ")" * MAX_NESTING,
        "!" * (MAX_NESTING - 1) + "X p",
        "G " * (MAX_NESTING // 3) + "p",
        "F " * MAX_NESTING + "p",
        "p -> " * MAX_NESTING + "p",
        "(p U " * (MAX_NESTING // 2) + "q" + ")" * (MAX_NESTING // 2),
        "p & " * (2 * MAX_NESTING - 1) + "p",
        "!(" + "p U " * (2 * MAX_NESTING - 2) + "p)",
    ],
)
def test_formulas_at_the_nesting_limit_parse_and_print_round_trip(text):
    f = parse_formula(text)
    assert parse_formula(print_formula(f)) == f


def test_parse_rule_text():
    rule = parse_rule("p, X q / p U q")
    assert rule == Rule((p, Next(q)), Until(p, q))
    with pytest.raises(ParseError):
        parse_rule("p, q")


# --- printing --------------------------------------------------------------

# (outer, inner, inner as the left operand, inner as the right operand)
NESTED_INFIX = [
    (Implies, Implies, "(p -> q) -> r", "p -> q -> r"),
    (Implies, Or, "p | q -> r", "p -> q | r"),
    (Implies, And, "p & q -> r", "p -> q & r"),
    (Implies, Until, "p U q -> r", "p -> q U r"),
    (Or, Implies, "(p -> q) | r", "p | (q -> r)"),
    (Or, Or, "p | q | r", "p | (q | r)"),
    (Or, And, "p & q | r", "p | q & r"),
    (Or, Until, "p U q | r", "p | q U r"),
    (And, Implies, "(p -> q) & r", "p & (q -> r)"),
    (And, Or, "(p | q) & r", "p & (q | r)"),
    (And, And, "p & q & r", "p & (q & r)"),
    (And, Until, "p U q & r", "p & q U r"),
    (Until, Implies, "(p -> q) U r", "p U (q -> r)"),
    (Until, Or, "(p | q) U r", "p U (q | r)"),
    (Until, And, "(p & q) U r", "p U (q & r)"),
    (Until, Until, "p U q U r", "p U (q U r)"),
]

# (infix, under !, under X)
PREFIX_OVER_INFIX = [
    (Implies, "!(p -> q)", "X (p -> q)"),
    (Or, "!(p | q)", "X (p | q)"),
    (And, "!(p & q)", "X (p & q)"),
    (Until, "!(p U q)", "X (p U q)"),
]


@pytest.mark.parametrize(
    "f, text",
    [
        (Until(p, q), "p U q"),
        (Not(Next(p)), "!X p"),
        (And(Or(p, q), r), "(p | q) & r"),
        (Implies(Implies(p, q), r), "(p -> q) -> r"),
        (Until(p, Until(q, r)), "p U (q U r)"),
        (Next(And(p, q)), "X (p & q)"),
        *((outer(inner(p, q), r), left) for outer, inner, left, _ in NESTED_INFIX),
        *((outer(p, inner(q, r)), right) for outer, inner, _, right in NESTED_INFIX),
        *((Not(inner(p, q)), under_not) for inner, under_not, _ in PREFIX_OVER_INFIX),
        *((Next(inner(p, q)), under_next) for inner, _, under_next in PREFIX_OVER_INFIX),
    ],
)
def test_print_minimal_parentheses(f, text):
    assert print_formula(f) == text


def test_round_trip_seeded():
    rng = random.Random(7)
    for _ in range(300):
        f = random_formula(rng, letters=3, depth=5)
        assert parse_formula(print_formula(f)) == f


@st.composite
def formulas(draw, max_depth=5):
    depth = draw(st.integers(0, max_depth))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_formula(random.Random(seed), letters=3, depth=depth)


@given(formulas())
def test_round_trip_property(f):
    assert parse_formula(print_formula(f)) == f


def test_equal_subtrees_are_one_node_within_a_parse():
    f = parse_formula("(p | p) & (p | p)")
    assert f.left is f.right and f.left.left is f.left.right
    g = parse_formula("G p & G p")
    assert g.left is g.right  # G keys on its operand like any constructor
    rule = parse_rule("p | q, X (p | q) / (p | q) U q")
    assert rule.premises[1].arg is rule.premises[0] is rule.conclusion.left
    assert rule.conclusion.right is rule.premises[0].right
    assert parse_formula("p & q").left is not parse_formula("p & q").left  # nothing is shared between parses


def _node_ids(formulas):
    seen, stack = set(), list(formulas)
    while stack:
        g = stack.pop()
        if id(g) not in seen:
            seen.add(id(g))
            stack.extend(children(g))
    return seen


@given(st.lists(formulas(), min_size=2, max_size=3))
def test_parsing_shares_every_repeated_subtree_and_keeps_text_and_equality(fs):
    text = ", ".join(print_formula(f) for f in fs[:-1]) + " / " + print_formula(fs[-1])
    rule = parse_rule(text)
    assert rule == Rule(tuple(fs[:-1]), fs[-1]) and str(rule) == text
    distinct = {g for f in fs for g in subformulas(f)}
    assert len(_node_ids((*rule.premises, rule.conclusion))) == len(distinct)
    f = parse_formula(print_formula(fs[0]))
    assert f == fs[0] and print_formula(f) == print_formula(fs[0])
    assert len(_node_ids([f])) == len(subformulas(fs[0]))


# formula text from the grammar, G and F included, bracketed in full
_grammar_text = st.recursive(
    st.sampled_from(["p", "q", "true", "false"]),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["!", "X ", "G ", "F "]), inner).map("".join),
        st.tuples(inner, st.sampled_from(["&", "|", "U", "->"]), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
    ),
    max_leaves=8,
)


def _unshared(f):
    """A copy of ``f`` in which no node occurs twice."""
    kids = children(f)
    return type(f)(*map(_unshared, kids)) if kids else f


@given(_grammar_text, _grammar_text)
def test_shared_parses_print_and_compare_like_unshared_trees(left, right):
    for text in (left, f"{left} & {right} | {left}"):
        f = parse_formula(text)
        copy = _unshared(f)
        assert f == copy and print_formula(f) == print_formula(copy)
    rule = parse_rule(f"{left}, {right} / {left}")
    assert rule.premises[0] is rule.conclusion
    assert print_rule(rule) == print_rule(Rule(tuple(map(_unshared, rule.premises)), _unshared(rule.conclusion)))


# --- derived operators -----------------------------------------------------


def test_expand_k_past():
    expected = Until(p, And(Next(Next(Next(Not(p)))), Next(Next(p))))
    assert expand_derived(KPast(), [p], m=2) == expected


def test_expand_k_since():
    assert expand_derived(KSince(q), [p], m=1) == Until(p, q)


def test_expand_box_on_true():
    assert expand_derived(Box(), [TRUE], m=1) == Not(Until(TRUE, Not(TRUE)))


def test_expansions_past_the_height_limit_are_refused():
    deep = parse_formula(" & ".join(["p"] * (MAX_NESTING + 1)))  # MAX_NESTING + 1 nodes high, nesting 0
    highest = deep
    for _ in range(MAX_NESTING - 1):
        highest = Next(highest)  # prints as X X ... (p & ...): MAX_NESTING levels deep
    assert expand_derived(NextIter(MAX_NESTING - 1), [deep]) == highest
    taller = sys.getrecursionlimit() + 10
    assert _height(_iterate(Next, deep, taller)) == MAX_NESTING + 1 + taller  # measured without recursing
    for op, args in [
        (NextIter(MAX_NESTING), [deep]),  # one level too many
        (DiamondIter(10**9), [p]),  # refused before the tree is built
        (KPast(MAX_NESTING), [deep]),
        (K2Past(2 * MAX_NESTING + 1, 1), [p]),
    ]:
        with pytest.raises(ValueError, match="higher than"):
            expand_derived(op, args, m=2)


def test_expansions_the_parser_would_reject_are_refused():
    # the same bound as the parser's: its spelled-out form parses, one more iteration does not
    for op, spelled, inside in [(NextIter, "X ", MAX_NESTING), (BoxIter, "G ", MAX_NESTING // 3)]:
        f = expand_derived(op(inside), [p])
        assert parse_formula(print_formula(f)) == f == parse_formula(spelled * inside + "p")
        with pytest.raises(ParseError, match="nested deeper"):
            parse_formula(spelled * (inside + 1) + "p")
        with pytest.raises(ValueError, match=f"nested deeper than {MAX_NESTING} levels"):
            expand_derived(op(inside + 1), [p])


def test_expand_diamond_and_iterates():
    assert expand_derived(Diamond(), [p]) == Until(TRUE, p)
    assert expand_derived(BoxIter(2), [p]) == Not(Until(TRUE, Not(Not(Until(TRUE, Not(p))))))
    assert expand_derived(DiamondIter(1), [p]) == Until(TRUE, p)
    assert expand_derived(NextIter(3), [p]) == Next(Next(Next(p)))
    assert expand_derived(NextIter(0), [p]) == p


def test_expand_k_variants():
    k_past = expand_derived(KPast(1), [p])
    assert expand_derived(K1Past(1), [p]) == And(
        Not(Until(TRUE, Not(Not(p)))),
        Until(TRUE, And(Not(p), Next(k_past))),
    )
    k2 = expand_derived(K2Past(m=1, k=2), [p])
    assert isinstance(k2, And)
    assert expand_derived(KDiscovered(), [p]) == Until(p, And(p, Next(Not(p))))
    assert expand_derived(KRigid(), [p]) == Not(Until(TRUE, Not(p)))


def test_expand_errors():
    with pytest.raises(ValueError):
        expand_derived(Box(), [p, q])
    with pytest.raises(ValueError):
        expand_derived(KPast(), [p])  # no m anywhere
    with pytest.raises(ValueError):
        expand_derived(BoxIter(), [p])


def _kernel_only(f: Formula) -> bool:
    kernel = (Letter, TrueBool, FalseBool, Not, And, Or, Implies, Next, Until)
    return isinstance(f, kernel) and all(_kernel_only(c) for c in children(f))


def test_expansion_purity():
    rng = random.Random(3)
    ops = [
        Box(),
        Diamond(),
        BoxIter(2),
        DiamondIter(2),
        NextIter(2),
        KPast(2),
        K1Past(2),
        K2Past(2, 2),
        KDiscovered(),
        KRigid(),
        KSince(q),
    ]
    for op in ops:
        f = random_formula(rng, letters=2, depth=2)
        assert _kernel_only(expand_derived(op, [f]))


# --- structural measures ---------------------------------------------------


def test_subformulas_examples():
    assert subformulas(p) == [p]
    assert subformulas(Until(p, q)) == [p, q, Until(p, q)]
    assert subformulas(And(Not(p), Not(p))) == [p, Not(p), And(Not(p), Not(p))]
    # one shared And node from the parser, two equal ones built by hand: the same post-order
    shared = parse_formula("(p & q) U (q | (p & q))")
    distinct = Until(And(p, q), Or(q, And(Letter("p"), Letter("q"))))
    assert shared.left is shared.right.right and shared == distinct
    assert subformulas(shared) == subformulas(distinct) == [p, q, And(p, q), Or(q, And(p, q)), shared]


def test_letters_first_occurrence_order():
    assert letters_of(parse_formula("q & p U q")) == ("q", "p")
    rule = parse_rule("q / p & q")
    assert rule.letters == ("q", "p")


def test_reach_examples():
    assert reach(p, 3) == 0
    assert reach(Next(p), 3) == 1
    assert reach(Next(Until(p, q)), 2) == 3


def _temporal_depth(f: Formula) -> int:
    if isinstance(f, Next):
        return 1 + _temporal_depth(f.arg)
    if isinstance(f, Until):
        return 1 + max(_temporal_depth(f.left), _temporal_depth(f.right))
    kids = children(f)
    return max((_temporal_depth(c) for c in kids), default=0)


def test_reach_bounded_by_temporal_nesting():
    rng = random.Random(11)
    for _ in range(200):
        f = random_formula(rng, letters=3, depth=4)
        for m in (1, 2, 3):
            assert reach(f, m) <= _temporal_depth(f) * max(m, 1)


# --- read set -------------------------------------------------------------------


def test_read_set_of_a_next_chain_is_its_far_end():
    assert read_set(parse_formula("X X p"), 1) == {"p": 0b100}


def test_read_set_of_until_spans_the_window():
    assert read_set(parse_formula("p U q"), 2) == {"p": 0b011, "q": 0b111}


def test_read_set_walks_a_shared_subtree_at_each_offset():
    shared = Next(Letter("p"))
    assert read_set(And(shared, Next(shared)), 1) == {"p": 0b110}
    # reached again at an offset it already has: nothing new
    assert read_set(Or(shared, And(shared, Letter("q"))), 1) == {"p": 0b10, "q": 0b1}


def test_read_set_of_a_letterless_formula_is_empty():
    assert read_set(parse_formula("X (true U !false)"), 3) == {}


def test_read_set_lies_inside_the_window():
    rng = random.Random(61)
    for _ in range(200):
        f = random_formula(rng, letters=2, depth=4)
        m = rng.randint(1, 3)
        read = read_set(f, m)
        assert set(read) == set(letters_of(f))
        assert all(0 < mask < 2 << reach(f, m) for mask in read.values())
