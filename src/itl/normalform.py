"""Reduced normal forms for inference rules.

A rule is in reduced normal form when it has the shape ``eps / x1`` where
``eps`` is a disjunction of *perfect* conjunctions: each disjunct assigns a
sign to every atom in ``{x_i} ∪ {X x_i} ∪ {x_i U x_k : i != k}`` over the
rule's variables ``x_1..x_n``.  :func:`to_reduced_normal_form` rewrites an
arbitrary rule into an equivalent one (same validity on every finite frame)
by introducing one variable per subformula, constraining each composite
variable to its top connective, and enumerating all Boolean assignments of
the atom set that satisfy the constraints plus the premise variable.  The
table engine (:mod:`itl.tables`) enumerates them: every atom is one letter of
a one-world frame, so bit ``j`` of a valuation code is the sign of atom ``j``
and the codes that pass are the disjunct keys.

The atom order is canonical throughout: bases ``x_1..x_n``, then nexts
``X x_1..X x_n``, then untils ``x_i U x_k`` by ``(i, k)`` lexicographic.
Disjuncts are emitted in binary counting order over that atom order, so the
construction is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from .frames import UniformWindowFrame
from .limits import DEFAULT_MAX_ATOMS, ResourceCapError
from .syntax import (
    And,
    Formula,
    Implies,
    Letter,
    Next,
    Not,
    Or,
    Rule,
    Until,
    children,
    letters_of,
    subformulas,
)
from .tables import BatchEvaluator, unpack


def formula_to_rule(f: Formula) -> Rule:
    """Bridge a formula to rule form: ``(x -> x) / f`` with ``x`` fresh."""
    used = set(letters_of(f))
    name = "x"
    i = 0
    while name in used:
        name = f"x{i}"
        i += 1
    x = Letter(name)
    return Rule((Implies(x, x),), f)


def atom_count(n: int) -> int:
    return n * (n + 1)


def _atom_formulas(variables: tuple[str, ...]) -> list[Formula]:
    base = [Letter(x) for x in variables]
    atoms: list[Formula] = list(base)
    atoms.extend(Next(b) for b in base)
    n = len(variables)
    for i in range(n):
        for k in range(n):
            if i != k:
                atoms.append(Until(base[i], base[k]))
    return atoms


@dataclass(frozen=True, eq=False)
class ReducedNormalFormRule:
    """A rule ``eps / x1`` stored as a sign table.

    ``keys`` holds each disjunct packed into an integer, sorted and
    distinct: bit ``t`` is the sign of atom ``t`` in the canonical order over
    ``variables``, whose first entry is the conclusion variable.  Packing
    limits the atom set to 64 atoms (7 variables).
    """

    variables: tuple[str, ...]
    keys: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        keys = np.asarray(self.keys, dtype=np.uint64)
        object.__setattr__(self, "keys", keys)
        width = atom_count(len(self.variables))
        if width > 64:
            raise ValueError(f"{width} atoms do not fit a 64-bit sign key")
        if keys.ndim != 1 or keys.shape[0] == 0:
            raise ValueError("a reduced normal form needs at least one disjunct")
        if np.any(keys[1:] <= keys[:-1]):
            raise ValueError("disjunct keys must be sorted and distinct")
        if int(keys[-1]) >> width:
            raise ValueError("a disjunct key signs atoms beyond the variable count")

    @property
    def variable_count(self) -> int:
        return len(self.variables)

    @property
    def disjunct_count(self) -> int:
        return int(self.keys.shape[0])

    @property
    def signs(self) -> np.ndarray:
        """Read-only view: ``signs[j, t]`` is True when disjunct ``j`` asserts atom ``t``."""
        shifts = np.arange(atom_count(len(self.variables)), dtype=np.uint64)
        signs = ((self.keys[:, None] >> shifts) & np.uint64(1)).astype(bool)
        signs.flags.writeable = False
        return signs

    def atom_formulas(self) -> list[Formula]:
        return _atom_formulas(self.variables)

    def to_rule(self) -> Rule:
        """Render the sign table as an actual rule ``eps / x1``.

        Disjuncts are right-nested conjunctions in canonical atom order with
        shared suffixes, joined by a balanced disjunction tree (keeps the
        formula depth logarithmic in the disjunct count).  The suffix of a
        disjunct from atom ``t`` on is its key shifted right by ``t``.
        """
        atoms = self.atom_formulas()
        negated = [Not(a) for a in atoms]
        width = len(atoms)
        cache: dict[tuple[int, int], Formula] = {}
        disjuncts: list[Formula] = []
        for key in self.keys.tolist():
            node: Optional[Formula] = None
            for t in range(width - 1, -1, -1):
                suffix = key >> t
                cached = cache.get((t, suffix))
                if cached is not None:
                    node = cached
                    continue
                lit = atoms[t] if suffix & 1 else negated[t]
                node = lit if node is None else And(lit, node)
                cache[(t, suffix)] = node
            disjuncts.append(node)  # type: ignore[arg-type]
        eps = _balanced_or(disjuncts)
        return Rule((eps,), Letter(self.variables[0]))


def _balanced_or(nodes: list[Formula]) -> Formula:
    while len(nodes) > 1:
        paired = [
            Or(nodes[i], nodes[i + 1]) if i + 1 < len(nodes) else nodes[i]
            for i in range(0, len(nodes), 2)
        ]
        nodes = paired
    return nodes[0]


def _variable_order(rule: Rule) -> tuple[Formula, list[Formula]]:
    """Single premise conjunction plus subformula variables, conclusion first."""
    phi = reduce(And, rule.premises)
    order: list[Formula] = [rule.conclusion]
    seen = {rule.conclusion}
    for g in (*subformulas(phi), *subformulas(rule.conclusion)):
        if g not in seen:
            seen.add(g)
            order.append(g)
    return phi, order


def to_reduced_normal_form(rule: Rule, *, max_atoms: Optional[int] = None) -> ReducedNormalFormRule:
    """Equivalent reduced normal form of ``rule`` (same frame validity).

    One variable per distinct subformula of the joined premise and of the
    conclusion (the conclusion's variable is ``x1``); all ``2**|atoms|``
    assignments are enumerated and filtered by the constraints tying each
    composite variable to its immediate parts, plus truth of the premise
    variable.  The assignments are the valuations of a
    :class:`~itl.tables.BatchEvaluator` over one world with one letter per
    atom, and each constraint is one packed table operation.  A
    contradictory premise, which satisfies no assignment, maps to the
    canonical always-valid form over one variable (both rules are then valid
    in every frame).
    """
    cap = DEFAULT_MAX_ATOMS if max_atoms is None else max_atoms
    phi, order = _variable_order(rule)
    n = len(order)
    width = atom_count(n)
    if width > cap:
        raise ResourceCapError(f"{n} variables need {width} atoms (cap {cap})")
    names = tuple(f"x{i + 1}" for i in range(n))
    var = {g: Letter(x) for g, x in zip(order, names)}
    atoms = _atom_formulas(names)
    letter = {atom: Letter(str(atom)) for atom in atoms}
    ev = BatchEvaluator(UniformWindowFrame(1, 1), list(map(str, atoms)), range(1 << width))

    mask = ev.table(var[phi])[0] & ev.valid
    for g, x in var.items():
        if isinstance(g, Letter):
            continue
        # The connective over the parts' variables; an X or U of them is an
        # atom, except x U x, which is no atom and which the engine reads as x
        # (its witness may be the current world).
        part = type(g)(*(var[c] for c in children(g)))
        mask &= ~(ev.table(x)[0] ^ ev.table(letter.get(part, part))[0])

    keys = np.flatnonzero(unpack(mask, 1 << width))
    if keys.shape[0] == 0:
        # eps forces x1 true at every world, so the rule holds in every frame.
        return ReducedNormalFormRule(("x1",), np.array([0b01, 0b11]))
    return ReducedNormalFormRule(names, keys)


def match_reduced_form(rule: Rule) -> Optional[ReducedNormalFormRule]:
    """Sign table of ``rule`` if it is syntactically in reduced normal form.

    Accepts any nesting of the conjunctions and disjunctions; returns None
    when the rule does not have the shape (several premises, non-variable
    conclusion, imperfect or alien conjuncts) and when its atom set exceeds
    the 64 atoms a packed key holds (8 or more variables).  The result is
    kept on the rule: rendered forms can be large and get matched once per
    frame check.
    """
    cached = rule.__dict__.get("_reduced_form", _MISSING)
    if cached is _MISSING:
        cached = _match_reduced_form(rule)
        object.__setattr__(rule, "_reduced_form", cached)
    return cached


def _match_reduced_form(rule: Rule) -> Optional[ReducedNormalFormRule]:
    if len(rule.premises) != 1:
        return None
    concl = rule.conclusion
    if not isinstance(concl, Letter):
        return None
    letters = (concl.name,) + tuple(x for x in rule.letters if x != concl.name)
    if atom_count(len(letters)) > 64:
        return None
    atom_index = {a: j for j, a in enumerate(_atom_formulas(letters))}
    width = len(atom_index)
    full_mask = (1 << width) - 1
    # (assigned-atom mask, positive-sign bits) per conjunction node; None on
    # alien or duplicated conjuncts.  Memoized by id so suffixes shared
    # across disjuncts are walked once.
    memo: dict[int, Optional[tuple[int, int]]] = {}

    def conj(node: Formula) -> Optional[tuple[int, int]]:
        cached = memo.get(id(node), _MISSING)
        if cached is not _MISSING:
            return cached
        if isinstance(node, And):
            left = conj(node.left)
            right = conj(node.right)
            if left is None or right is None or (left[0] & right[0]):
                out = None
            else:
                out = (left[0] | right[0], left[1] | right[1])
        else:
            positive = True
            inner = node
            if isinstance(inner, Not):
                positive = False
                inner = inner.arg
            j = atom_index.get(inner)
            out = None if j is None else (1 << j, int(positive) << j)
        memo[id(node)] = out
        return out

    keys = set()
    for disjunct in _flatten(Or, rule.premises[0]):
        res = conj(disjunct)
        if res is None or res[0] != full_mask:
            return None
        keys.add(res[1])
    return ReducedNormalFormRule(letters, np.array(sorted(keys), dtype=np.uint64))


_MISSING = object()


def is_reduced_normal_form(rule: Rule) -> bool:
    return match_reduced_form(rule) is not None


def _flatten(cls: type, f: Formula) -> list[Formula]:
    out: list[Formula] = []
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, cls):
            stack.append(g.right)
            stack.append(g.left)
        else:
            out.append(g)
    return out
