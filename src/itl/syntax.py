"""Formula and rule syntax: AST, text grammar, printing, derived operators.

The kernel language has nine constructors: letters, the two constants,
Boolean connectives, Next and Until.  Everything else (G, F, the knowledge
operators) is a macro expanded by :func:`expand_derived`; parsing already
expands ``G``/``F``, so a parsed formula only ever contains kernel nodes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence


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


def box(f: Formula) -> Formula:
    return Not(Until(TRUE, Not(f)))


def diamond(f: Formula) -> Formula:
    return Until(TRUE, f)


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, (Not, Next)):
        return (f.arg,)
    if isinstance(f, (And, Or, Implies, Until)):
        return (f.left, f.right)
    return ()


def _post_order(roots: Iterable[Formula]) -> Iterator[Formula]:
    """Every node under ``roots`` once per object, children left to right before their parent.

    Iterative, so a tree of any height can be walked; a subtree shared by
    object identity is visited once.
    """
    done: set[int] = set()
    stack = [(f, False) for f in reversed(tuple(roots))]
    while stack:
        g, expanded = stack.pop()
        if id(g) in done:
            continue
        if expanded:
            done.add(id(g))
            yield g
        else:
            stack.append((g, True))
            stack.extend((c, False) for c in reversed(children(g)))


def subformulas(f: Formula) -> list[Formula]:
    """All distinct subtrees of ``f`` in post-order, merged by structural equality."""
    return list(dict.fromkeys(_post_order((f,))))


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
    del walk  # it refers to itself through its closure: left bound, each call would leave a cycle to collect
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

    r = go(f)
    del go  # as in letters_of: no cycle is left for the collector
    return r


def read_set(f: Formula, m: int) -> dict[str, int]:
    """Worlds of the window at which truth of ``f`` at world 0 reads each letter.

    Bit ``a`` of ``read_set(f, m)[name]`` is set when the truth of ``f`` at
    world 0 of a uniform window frame depends on ``name`` at world ``a``;
    every other valuation bit of the window can change without changing it.
    The root is read at offset 0, ``X g`` reads ``g`` at +1, ``s U t`` reads
    ``s`` at +0..m-1 and ``t`` at +0..m (the window :func:`~itl.semantics.eval_nt`
    walks), and the Boolean connectives pass their offsets through.  Offsets
    are int bitmasks; a shared subtree is walked again only for offsets it
    has not been reached at before.
    """
    if m < 1:
        raise ValueError("memory length m must be >= 1")
    seen: dict[int, int] = {}
    out: dict[str, int] = {}

    def go(g: Formula, offsets: int) -> None:
        key = id(g)
        new = offsets & ~seen.get(key, 0)
        if not new:
            return
        seen[key] = seen.get(key, 0) | new
        if isinstance(g, Letter):
            out[g.name] = out.get(g.name, 0) | new
        elif isinstance(g, Next):
            go(g.arg, new << 1)
        elif isinstance(g, Until):
            left = 0
            for d in range(m):
                left |= new << d
            go(g.left, left)
            go(g.right, left | new << m)
        else:
            for child in children(g):
                go(child, new)

    go(f, 1)
    del go  # as in letters_of: no cycle is left for the collector
    return out


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
# Parsing and printing, both driven by one operator table.
# ---------------------------------------------------------------------------


class _Op(NamedTuple):
    """One operator of the grammar."""

    build: Callable[..., Formula]
    level: int  # binding strength: a higher level binds tighter
    right: bool = False  # right-associative
    cost: int = 1  # nesting levels it adds when it recurses into its right operand


# Every prefix operator binds tighter than every infix one.  A prefix
# operator's cost is also the height of its expansion: G expands to
# !(true U !...), so it costs three, as printing it back takes two prefix
# operators and a parenthesis.
_INFIX = {
    "->": _Op(Implies, 1, right=True),
    "|": _Op(Or, 2),
    "&": _Op(And, 3),
    "U": _Op(Until, 4),
}
_PREFIX = {
    "!": _Op(Not, 5),
    "X": _Op(Next, 5),
    "G": _Op(box, 5, cost=3),
    "F": _Op(diamond, 5),
}
_CONSTANTS = {"true": TRUE, "false": FALSE}


class ParseError(ValueError):
    """Syntax error with a 1-based column position."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


# One token after optional blanks: a name, an operator or parenthesis, or
# any other non-blank character, which is an error.  Blanks that end the
# text match nothing.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:([a-z][a-zA-Z0-9_]*)|("
    + "|".join(re.escape(symbol) for symbol in sorted([*_INFIX, *_PREFIX, "(", ")"], key=len, reverse=True))
    + r")|([^ \t\r\n]))",
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, text, column)`` triples; an operator or parenthesis is its own kind."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        name, symbol, other = match.groups()
        col = match.start(match.lastindex) + 1
        if name is not None:
            tokens.append((name if name in _CONSTANTS else "name", name, col))
        elif symbol is not None:
            tokens.append((symbol, symbol, col))
        elif other == "-":
            raise ParseError("expected '->'", col)
        elif other.isupper():
            raise ParseError(f"unknown operator token {other!r}", col)
        else:
            raise ParseError(f"unexpected character {other!r}", col)
    tokens.append(("end", "", len(text) + 1))
    return tokens


# Deepest nesting the parser accepts: a parenthesis adds one level, a prefix
# operator or a right-nested ``->`` its ``cost`` in the operator table.  Each
# level costs the parser up to seven Python frames, so the limit keeps the
# parser inside the interpreter's recursion limit.  Chains of ``&``, ``|``
# and ``U`` are built in a loop and nest no deeper, so the parser also
# rejects a tree more than ``2 * MAX_NESTING`` nodes high: printing,
# evaluation and structural equality recurse over the tree's height.  The
# printed form of every accepted formula is accepted again.
MAX_NESTING = 100


class _Parser:
    """Precedence climbing over the operator table.

    Each method returns a formula together with its tree height, a leaf
    counting one.  ``nodes`` holds every node built so far, a letter under
    its name and any other node under its constructor and its children's
    ids, so an equal subtree is built once and shared.
    """

    def __init__(self, tokens: list[tuple[str, str, int]], nodes: dict):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.nodes = nodes

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def nested(self, col: int, levels: int, parse: Callable[..., tuple[Formula, int]], *args) -> tuple[Formula, int]:
        """Run ``parse(*args)`` ``levels`` nesting levels deeper; ``col`` locates the opening token."""
        if self.depth + levels > MAX_NESTING:
            raise ParseError(f"formula nested deeper than {MAX_NESTING} levels", col)
        self.depth += levels
        parsed = parse(*args)
        self.depth -= levels
        return parsed

    def node(self, height: int, col: int, build: Callable[..., Formula], arg: Formula, right=None) -> tuple[Formula, int]:
        """``build(arg)``, or ``build(arg, right)``, with its height, unless the tree is too high.

        ``col`` locates the operator.  The operands are shared nodes, so
        their ids stand for their structure in the key.
        """
        if height > 2 * MAX_NESTING:
            raise ParseError(f"formula tree higher than {2 * MAX_NESTING} levels", col)
        key = (build, id(arg), id(right))
        f = self.nodes.get(key)
        if f is None:
            f = self.nodes[key] = build(arg) if right is None else build(arg, right)
        return f, height

    def infix(self, level: int = 1) -> tuple[Formula, int]:
        """Operands joined by infix operators that bind at least as tightly as ``level``."""
        left, height = self.unary()
        while True:
            kind, _, col = self.peek()
            op = _INFIX.get(kind)
            if op is None or op.level < level:
                return left, height
            self.take()
            if op.right:
                right, right_height = self.nested(col, op.cost, self.infix, op.level)
            else:
                right, right_height = self.infix(op.level + 1)
            left, height = self.node(1 + max(height, right_height), col, op.build, left, right)

    def unary(self) -> tuple[Formula, int]:
        kind, _, col = self.peek()
        op = _PREFIX.get(kind)
        if op is None:
            return self.atom()
        self.take()
        arg, height = self.nested(col, op.cost, self.unary)
        return self.node(height + op.cost, col, op.build, arg)

    def atom(self) -> tuple[Formula, int]:
        kind, text, col = self.take()
        if kind == "name":
            f = self.nodes.get(text)
            if f is None:
                f = self.nodes[text] = Letter(text)
            return f, 1
        if kind in _CONSTANTS:
            return _CONSTANTS[kind], 1
        if kind == "(":
            parsed = self.nested(col, 1, self.infix)
            k2, _, col2 = self.take()
            if k2 != ")":
                raise ParseError("unbalanced parentheses", col2)
            return parsed
        raise ParseError(f"expected a formula, found {text!r}" if text else "unexpected end of input", col)


def parse_formula(text: str) -> Formula:
    """Parse formula text.

    Parentheses, prefix operators (``!``, ``X``, ``F``, and ``G`` counting
    three) and right-nested implications may nest at most
    :data:`MAX_NESTING` levels deep, and the tree, chains of ``&``, ``|``
    and ``U`` included, may be at most ``2 * MAX_NESTING`` nodes high.
    Text past either limit raises :class:`ParseError` at the column of the
    operator or parenthesis that crosses it.  Structurally equal subtrees
    are one shared object within one parse, so the memos keyed on node ids
    evaluate each distinct subformula once; printing and ``==`` see no
    difference.
    """
    return _parse(text, {})


def _parse(text: str, nodes: dict) -> Formula:
    """:func:`parse_formula` that shares its nodes with every other parse given the same ``nodes``."""
    p = _Parser(_tokenize(text), nodes)
    f, _ = p.infix()
    kind, tok, col = p.peek()
    if kind != "end":
        raise ParseError(f"unexpected token {tok!r}", col)
    return f


def parse_rule(text: str) -> Rule:
    """Parse rule text of the form ``f1, f2, ... / g``; equal subtrees are shared across all its formulas."""
    if text.count("/") != 1:
        raise ParseError("a rule needs exactly one '/'", text.find("/") + 1 if "/" in text else len(text) + 1)
    prem_text, concl_text = text.split("/")
    nodes: dict = {}
    premises = tuple(_parse(part, nodes) for part in prem_text.split(","))
    return Rule(premises, _parse(concl_text, nodes))


# Kernel class -> (spelling, table entry, infix?).  G and F expand to kernel
# nodes at parse time, so only the operators with a kernel class print.
_PRINTED = {op.build: (f" {symbol} ", op, True) for symbol, op in _INFIX.items()}
_PRINTED.update(
    (op.build, (symbol + " " if symbol.isalpha() else symbol, op, False))
    for symbol, op in _PREFIX.items()
    if isinstance(op.build, type)
)
_SPELLED_CONSTANTS = {type(c): word for word, c in _CONSTANTS.items()}


def _print_at(f: Formula, level: int, out: list[str]) -> None:
    """Print ``f`` where the context requires binding strength ``level``."""
    printed = _PRINTED.get(type(f))
    if printed is None:
        word = f.name if isinstance(f, Letter) else _SPELLED_CONSTANTS.get(type(f))
        if word is None:
            raise TypeError(f"not a formula: {f!r}")
        out.append(word)
        return
    spelling, op, infix = printed
    if op.level < level:
        out.append("(")
        _print_at(f, 0, out)
        out.append(")")
    elif not infix:
        out.append(spelling)
        _print_at(f.arg, op.level, out)
    else:
        _print_at(f.left, op.level + 1 if op.right else op.level, out)
        out.append(spelling)
        _print_at(f.right, op.level if op.right else op.level + 1, out)


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


def _iterate(wrap: Callable[[Formula], Formula], f: Formula, k: int) -> Formula:
    """``wrap`` applied ``k`` times to ``f``."""
    for _ in range(k):
        f = wrap(f)
    return f


def _require(value: int | None, fallback: int | None, what: str, minimum: int) -> int:
    v = value if value is not None else fallback
    if v is None:
        raise ValueError(f"missing {what}")
    if v < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {v}")
    if v > 2 * MAX_NESTING:  # each unit adds a level: refuse before building the tree
        raise ValueError(f"{what} {v} makes the expanded tree higher than {2 * MAX_NESTING} levels")
    return v


def _height(f: Formula) -> int:
    """Tree height, a leaf counting one; iterative, so any height can be measured."""
    heights: dict[int, int] = {}
    for g in _post_order((f,)):
        heights[id(g)] = 1 + max((heights[id(c)] for c in children(g)), default=0)
    return heights[id(f)]


def _k_past(f: Formula, m: int) -> Formula:
    return Until(f, And(_iterate(Next, Not(f), m + 1), _iterate(Next, f, m)))


def expand_derived(
    op: DerivedOp,
    args: Sequence[Formula],
    m: int | None = None,
    k: int | None = None,
) -> Formula:
    """Expand a derived operator applied to ``args`` into a kernel formula.

    All operators are unary in their subject formula; ``KSince`` carries its
    trigger inside the operator.  ``m``/``k`` fill in parameters the operator
    instance left unset.  It refuses (``ValueError``) a result the parser
    would reject: more than ``2 * MAX_NESTING`` nodes high, measured before
    printing it, or printed more than ``MAX_NESTING`` levels deep, which the
    parser itself judges on the printed text.
    """
    if len(args) != 1:
        raise ValueError(f"{type(op).__name__} takes exactly one formula, got {len(args)}")
    f = _expand(op, args[0], m, k)
    if _height(f) > 2 * MAX_NESTING:
        raise ValueError(f"expanded formula tree higher than {2 * MAX_NESTING} levels")
    try:
        parse_formula(print_formula(f))
    except ParseError:
        raise ValueError(f"expanded formula nested deeper than {MAX_NESTING} levels") from None
    return f


def _expand(op: DerivedOp, f: Formula, m: int | None, k: int | None) -> Formula:
    if isinstance(op, Box):
        return box(f)
    if isinstance(op, Diamond):
        return diamond(f)
    if isinstance(op, BoxIter):
        return _iterate(box, f, _require(op.k, k, "iteration count k", 1))
    if isinstance(op, DiamondIter):
        return _iterate(diamond, f, _require(op.k, k, "iteration count k", 1))
    if isinstance(op, NextIter):
        return _iterate(Next, f, _require(op.k, k, "step count k", 0))
    if isinstance(op, KPast):
        return _k_past(f, _require(op.m, m, "memory length m", 1))
    if isinstance(op, K1Past):
        mm = _require(op.m, m, "memory length m", 1)
        return And(box(Not(f)), diamond(And(Not(f), Next(_k_past(f, mm)))))
    if isinstance(op, K2Past):
        mm = _require(op.m, m, "memory length m", 1)
        kk = _require(op.k, k, "iteration count k", 1)
        return And(
            _iterate(box, Not(f), kk),
            _iterate(diamond, And(Not(f), Next(_k_past(f, mm))), kk),
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
