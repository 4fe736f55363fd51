"""Formula and rule syntax: AST, text grammar, printing, derived operators.

The kernel language has nine constructors: letters, the two constants,
Boolean connectives, Next and Until.  Everything else (G, F, the knowledge
operators) is a macro expanded by :func:`expand_derived`; parsing already
expands ``G``/``F``, so a parsed formula only ever contains kernel nodes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Sequence


class Formula:
    """Base class of the nine kernel constructors."""

    __slots__ = ()

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True)
class Letter(Formula):
    name: str


@dataclass(frozen=True)
class TrueBool(Formula):
    pass


@dataclass(frozen=True)
class FalseBool(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next(Formula):
    arg: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


TRUE = TrueBool()
FALSE = FalseBool()


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, (Not, Next)):
        return (f.arg,)
    if isinstance(f, (And, Or, Implies, Until)):
        return (f.left, f.right)
    return ()


def subformulas(f: Formula) -> list[Formula]:
    """All distinct subtrees of ``f`` in post-order, merged by structural equality."""
    seen: set[Formula] = set()
    out: list[Formula] = []

    def walk(g: Formula) -> None:
        if g in seen:
            return
        for child in children(g):
            walk(child)
        seen.add(g)
        out.append(g)

    walk(f)
    return out


def letters_of(f: Formula) -> tuple[str, ...]:
    """Letters occurring in ``f``, in first-occurrence (pre-order) order."""
    out: list[str] = []
    seen: set[str] = set()
    visited: set[int] = set()  # shared subtrees carry no new letters

    def walk(g: Formula) -> None:
        if id(g) in visited:
            return
        visited.add(id(g))
        if isinstance(g, Letter):
            if g.name not in seen:
                seen.add(g.name)
                out.append(g.name)
            return
        for child in children(g):
            walk(child)

    walk(f)
    return tuple(out)


def reach(f: Formula, m: int) -> int:
    """Window horizon of ``f`` under uniform memory length ``m``.

    Truth of ``f`` at a world ``a`` of a uniform model depends only on the
    valuation at worlds ``[a, a + reach(f, m)]``: each Next step costs 1 and
    each Until widens the horizon by ``m``.
    """
    if m < 1:
        raise ValueError("memory length m must be >= 1")
    memo: dict[int, int] = {}

    def go(g: Formula) -> int:
        key = id(g)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if isinstance(g, (Letter, TrueBool, FalseBool)):
            r = 0
        elif isinstance(g, Not):
            r = go(g.arg)
        elif isinstance(g, (And, Or, Implies)):
            r = max(go(g.left), go(g.right))
        elif isinstance(g, Next):
            r = 1 + go(g.arg)
        elif isinstance(g, Until):
            r = m + max(go(g.left), go(g.right))
        else:
            raise TypeError(f"not a formula: {g!r}")
        memo[key] = r
        return r

    return go(f)


@dataclass(frozen=True)
class Rule:
    """An inference rule: nonempty premises over a shared conclusion."""

    premises: tuple[Formula, ...]
    conclusion: Formula

    def __post_init__(self) -> None:
        object.__setattr__(self, "premises", tuple(self.premises))
        if not self.premises:
            raise ValueError("a rule needs at least one premise")

    @property
    def letters(self) -> tuple[str, ...]:
        """Distinct letters of premises then conclusion, first-occurrence order."""
        cached = self.__dict__.get("_letters")
        if cached is not None:
            return cached
        out: list[str] = []
        seen: set[str] = set()
        for f in (*self.premises, self.conclusion):
            for name in letters_of(f):
                if name not in seen:
                    seen.add(name)
                    out.append(name)
        object.__setattr__(self, "_letters", tuple(out))
        return self.__dict__["_letters"]

    def __str__(self) -> str:
        return print_rule(self)


# ---------------------------------------------------------------------------
# Parsing.
#
# Grammar (ASCII): letters [a-z][a-zA-Z0-9_]*, "true", "false";
# prefix !, X, G, F; infix U (left-assoc), &, | (left-assoc), -> (right-assoc);
# precedence, tightest first: {! X G F}, U, &, |, ->.
# G and F are expanded at parse time, so the result is a kernel formula.
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    """Syntax error with a 1-based column position."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


_NAME_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")

_SINGLE = {"!": "not", "&": "and", "|": "or", "(": "lparen", ")": "rparen"}
_PREFIX_OPS = {"X": "next", "G": "box", "F": "diamond"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        col = i + 1
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in _SINGLE:
            tokens.append((_SINGLE[ch], ch, col))
            i += 1
            continue
        if ch == "-":
            if text.startswith("->", i):
                tokens.append(("implies", "->", col))
                i += 2
                continue
            raise ParseError("expected '->'", col)
        if ch.islower():
            m = _NAME_RE.match(text, i)
            assert m is not None
            word = m.group()
            if word == "true":
                tokens.append(("true", word, col))
            elif word == "false":
                tokens.append(("false", word, col))
            else:
                tokens.append(("name", word, col))
            i = m.end()
            continue
        if ch.isupper():
            if ch == "U":
                tokens.append(("until", ch, col))
            elif ch in _PREFIX_OPS:
                tokens.append((_PREFIX_OPS[ch], ch, col))
            else:
                raise ParseError(f"unknown operator token {ch!r}", col)
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", col)
    tokens.append(("end", "", len(text) + 1))
    return tokens


# Deepest nesting of parentheses, prefix operators and right-nested
# implications the parser accepts.  Each level costs the parser up to six
# Python frames, so the limit keeps the parser inside the interpreter's
# recursion limit.  It does not bound tree depth: the ``&``, ``|`` and ``U``
# loops build left-deep chains the counter never sees, and a long enough chain
# still overflows the recursion of printing and evaluation (ROADMAP item 5).
# ``G`` counts three levels because it prints as ``!(true U !...)``: the
# printed form of every accepted formula is accepted again.
MAX_NESTING = 100

_PREFIX_KINDS = ("not", *_PREFIX_OPS.values())


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def nested(self, parse: Callable[[], Formula], col: int, levels: int = 1) -> Formula:
        """Run ``parse`` ``levels`` nesting levels deeper; ``col`` locates the opening token."""
        if self.depth + levels > MAX_NESTING:
            raise ParseError(f"formula nested deeper than {MAX_NESTING} levels", col)
        self.depth += levels
        f = parse()
        self.depth -= levels
        return f

    def implies(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "implies":
            col = self.take()[2]
            return Implies(left, self.nested(self.implies, col))
        return left

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek()[0] == "or":
            self.take()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.until()
        while self.peek()[0] == "and":
            self.take()
            f = And(f, self.until())
        return f

    def until(self) -> Formula:
        f = self.unary()
        while self.peek()[0] == "until":
            self.take()
            f = Until(f, self.unary())
        return f

    def unary(self) -> Formula:
        kind, _, col = self.peek()
        if kind not in _PREFIX_KINDS:
            return self.atom()
        self.take()
        arg = self.nested(self.unary, col, 3 if kind == "box" else 1)
        if kind == "not":
            return Not(arg)
        if kind == "next":
            return Next(arg)
        if kind == "box":
            return Not(Until(TRUE, Not(arg)))
        return Until(TRUE, arg)

    def atom(self) -> Formula:
        kind, text, col = self.take()
        if kind == "name":
            return Letter(text)
        if kind == "true":
            return TRUE
        if kind == "false":
            return FALSE
        if kind == "lparen":
            f = self.nested(self.implies, col)
            k2, _, col2 = self.take()
            if k2 != "rparen":
                raise ParseError("unbalanced parentheses", col2)
            return f
        raise ParseError(f"expected a formula, found {text!r}" if text else "unexpected end of input", col)


def parse_formula(text: str) -> Formula:
    """Parse formula text.

    Parentheses, prefix operators (``!``, ``X``, ``F``, and ``G`` counting
    three) and right-nested implications may nest at most
    :data:`MAX_NESTING` levels deep; deeper text raises :class:`ParseError`
    at the column of the first token past the limit.
    """
    p = _Parser(_tokenize(text))
    f = p.implies()
    kind, tok, col = p.peek()
    if kind != "end":
        raise ParseError(f"unexpected token {tok!r}", col)
    return f


def parse_rule(text: str) -> Rule:
    """Parse rule text of the form ``f1, f2, ... / g``."""
    if text.count("/") != 1:
        raise ParseError("a rule needs exactly one '/'", text.find("/") + 1 if "/" in text else len(text) + 1)
    prem_text, concl_text = text.split("/")
    premises = tuple(parse_formula(part) for part in prem_text.split(","))
    return Rule(premises, parse_formula(concl_text))


# ---------------------------------------------------------------------------
# Printing.  Levels mirror the parser so parse(print(f)) == f.
# ---------------------------------------------------------------------------

_LEVEL_IMPLIES, _LEVEL_OR, _LEVEL_AND, _LEVEL_UNTIL, _LEVEL_UNARY, _LEVEL_ATOM = range(6)


def _level(f: Formula) -> int:
    if isinstance(f, Implies):
        return _LEVEL_IMPLIES
    if isinstance(f, Or):
        return _LEVEL_OR
    if isinstance(f, And):
        return _LEVEL_AND
    if isinstance(f, Until):
        return _LEVEL_UNTIL
    if isinstance(f, (Not, Next)):
        return _LEVEL_UNARY
    return _LEVEL_ATOM


def _print_at(f: Formula, level: int, out: list[str]) -> None:
    own = _level(f)
    if own < level:
        out.append("(")
        _print_at(f, 0, out)
        out.append(")")
        return
    if isinstance(f, Letter):
        out.append(f.name)
    elif isinstance(f, TrueBool):
        out.append("true")
    elif isinstance(f, FalseBool):
        out.append("false")
    elif isinstance(f, Not):
        out.append("!")
        _print_at(f.arg, _LEVEL_UNARY, out)
    elif isinstance(f, Next):
        out.append("X ")
        _print_at(f.arg, _LEVEL_UNARY, out)
    elif isinstance(f, Until):
        _print_at(f.left, _LEVEL_UNTIL, out)
        out.append(" U ")
        _print_at(f.right, _LEVEL_UNTIL + 1, out)
    elif isinstance(f, And):
        _print_at(f.left, _LEVEL_AND, out)
        out.append(" & ")
        _print_at(f.right, _LEVEL_AND + 1, out)
    elif isinstance(f, Or):
        _print_at(f.left, _LEVEL_OR, out)
        out.append(" | ")
        _print_at(f.right, _LEVEL_OR + 1, out)
    elif isinstance(f, Implies):
        _print_at(f.left, _LEVEL_IMPLIES + 1, out)
        out.append(" -> ")
        _print_at(f.right, _LEVEL_IMPLIES, out)
    else:
        raise TypeError(f"not a formula: {f!r}")


def print_formula(f: Formula) -> str:
    out: list[str] = []
    _print_at(f, 0, out)
    return "".join(out)


def print_rule(r: Rule) -> str:
    return ", ".join(print_formula(f) for f in r.premises) + " / " + print_formula(r.conclusion)


# ---------------------------------------------------------------------------
# Derived operators.
# ---------------------------------------------------------------------------


class DerivedOp:
    """Base class for macro operators expanded into kernel formulas."""

    __slots__ = ()


@dataclass(frozen=True)
class Box(DerivedOp):
    """Throughout the visible window."""


@dataclass(frozen=True)
class Diamond(DerivedOp):
    """Somewhere in the visible window."""


@dataclass(frozen=True)
class BoxIter(DerivedOp):
    """Box applied k times (horizon k windows deep)."""

    k: int | None = None


@dataclass(frozen=True)
class DiamondIter(DerivedOp):
    k: int | None = None


@dataclass(frozen=True)
class NextIter(DerivedOp):
    """Next applied k times (k may be 0)."""

    k: int | None = None


@dataclass(frozen=True)
class KPast(DerivedOp):
    """Known: became true exactly m steps before the window edge and held since."""

    m: int | None = None


@dataclass(frozen=True)
class K1Past(DerivedOp):
    """False throughout the window, but preceded by an m-long stretch of truth."""

    m: int | None = None


@dataclass(frozen=True)
class K2Past(DerivedOp):
    """False for k nested windows, then an m-long stretch of truth before that."""

    m: int | None = None
    k: int | None = None


@dataclass(frozen=True)
class KDiscovered(DerivedOp):
    """Held since some point at which it had just flipped from false."""


@dataclass(frozen=True)
class KRigid(DerivedOp):
    """Held at every visible moment (Box)."""


@dataclass(frozen=True)
class KSince(DerivedOp):
    """Held continuously since the trigger event."""

    trigger: Formula = TRUE


def box(f: Formula) -> Formula:
    return Not(Until(TRUE, Not(f)))


def diamond(f: Formula) -> Formula:
    return Until(TRUE, f)


def next_iter(f: Formula, k: int) -> Formula:
    for _ in range(k):
        f = Next(f)
    return f


def _box_iter(f: Formula, k: int) -> Formula:
    for _ in range(k):
        f = box(f)
    return f


def _diamond_iter(f: Formula, k: int) -> Formula:
    for _ in range(k):
        f = diamond(f)
    return f


def _require(value: int | None, fallback: int | None, what: str, minimum: int) -> int:
    v = value if value is not None else fallback
    if v is None:
        raise ValueError(f"missing {what}")
    if v < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {v}")
    return v


def _k_past(f: Formula, m: int) -> Formula:
    return Until(f, And(next_iter(Not(f), m + 1), next_iter(f, m)))


def expand_derived(
    op: DerivedOp,
    args: Sequence[Formula],
    m: int | None = None,
    k: int | None = None,
) -> Formula:
    """Expand a derived operator applied to ``args`` into a kernel formula.

    All operators are unary in their subject formula; ``KSince`` carries its
    trigger inside the operator.  ``m``/``k`` fill in parameters the operator
    instance left unset.
    """
    if len(args) != 1:
        raise ValueError(f"{type(op).__name__} takes exactly one formula, got {len(args)}")
    f = args[0]
    if isinstance(op, Box):
        return box(f)
    if isinstance(op, Diamond):
        return diamond(f)
    if isinstance(op, BoxIter):
        return _box_iter(f, _require(op.k, k, "iteration count k", 1))
    if isinstance(op, DiamondIter):
        return _diamond_iter(f, _require(op.k, k, "iteration count k", 1))
    if isinstance(op, NextIter):
        return next_iter(f, _require(op.k, k, "step count k", 0))
    if isinstance(op, KPast):
        return _k_past(f, _require(op.m, m, "memory length m", 1))
    if isinstance(op, K1Past):
        mm = _require(op.m, m, "memory length m", 1)
        return And(box(Not(f)), diamond(And(Not(f), Next(_k_past(f, mm)))))
    if isinstance(op, K2Past):
        mm = _require(op.m, m, "memory length m", 1)
        kk = _require(op.k, k, "iteration count k", 1)
        return And(
            _box_iter(Not(f), kk),
            _diamond_iter(And(Not(f), Next(_k_past(f, mm))), kk),
        )
    if isinstance(op, KDiscovered):
        return Until(f, And(f, Next(Not(f))))
    if isinstance(op, KRigid):
        return box(f)
    if isinstance(op, KSince):
        return Until(f, op.trigger)
    raise TypeError(f"not a derived operator: {op!r}")


DERIVED_OP_NAMES: dict[str, type[DerivedOp]] = {
    "box": Box,
    "diamond": Diamond,
    "box-iter": BoxIter,
    "diamond-iter": DiamondIter,
    "next-iter": NextIter,
    "k-past": KPast,
    "k1-past": K1Past,
    "k2-past": K2Past,
    "k-discovered": KDiscovered,
    "k-rigid": KRigid,
    "k-since": KSince,
}
