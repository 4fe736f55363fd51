"""Decision procedures with re-checkable certificates.

Theoremhood for the uniform-memory logic is decided completely: truth of a
formula at any world of the infinite uniform line depends only on the
valuation pattern on its window, every pattern occurs at world 0 of some
window model, so it suffices to enumerate the valuations of a window frame
sized to the formula's horizon and test world 0.  Only the (letter, world)
bits that world-0 truth reads (:func:`~itl.syntax.read_set`) are enumerated;
the others stay false, which changes no verdict and no certificate, since
the least failing valuation has them clear anyway.  For the non-uniform logic
we run a sound bounded refutation search over finite lasso frames: a found
countermodel is conclusive, absence of one under the caps is not, and is
reported as Inconclusive rather than as a theorem.  The search scans the
frames of one size together, as one run, and a target without an Until only
on the all-ones reach vector, since no other node reads reach.

Every negative or satisfiable verdict carries a certificate (model + world +
target) that :func:`check_certificate` re-evaluates independently.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from enum import Enum
from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial
from typing import Iterable, Iterator, Mapping, Optional, Union

import numpy as np

from .frames import FiniteLassoFrame, LassoRun, Model, UniformWindowFrame, int_field, model_from_dict, model_to_dict
from .limits import DEFAULT_MAX_ATOMS, DEFAULT_MAX_WORLDS
from .semantics import eval_nt, formula_valid_in_model, rule_refutation_mask
from .syntax import (
    Formula,
    Rule,
    Until,
    _post_order,
    letters_of,
    parse_formula,
    parse_rule,
    print_formula,
    print_rule,
    reach,
    read_set,
)
from .tables import decode_valuation, scan_valuations


class VerdictKind(Enum):
    THEOREM = "theorem"
    NON_THEOREM = "non_theorem"
    SATISFIABLE = "satisfiable"
    UNSATISFIABLE = "unsatisfiable"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SearchCaps:
    """Record of the ceilings a search ran under."""

    max_worlds: Optional[int] = None
    max_reach: Optional[int] = None
    max_atoms: Optional[int] = None


@dataclass(frozen=True)
class Countermodel:
    """A model and world refuting (or, for satisfiability, witnessing) the target."""

    model: Model
    world: int
    target: Union[Formula, Rule]


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    certificate: Optional[Countermodel] = None
    caps: Optional[SearchCaps] = None


def _first_failure_world(model: Model, f: Formula) -> int:
    for a in range(model.frame.worlds):
        if not eval_nt(model, a, f):
            return a
    raise AssertionError("search reported a countermodel but the formula holds everywhere")


def decide_uniform_theorem(
    f: Formula,
    m: int,
    *,
    max_atoms: Optional[int] = None,
    max_worlds: Optional[int] = None,
    jobs: int = 1,
) -> Verdict:
    """Complete theoremhood test for the uniform logic with memory length ``m``.

    Theorem iff ``f`` holds at world 0 under every valuation of the window
    frame; otherwise the first failing valuation is the countermodel.
    ``jobs`` is accepted for compatibility and has no effect.
    """
    return _decide_uniform(f, m, False, max_atoms, max_worlds)


def decide_uniform_satisfiable(
    f: Formula,
    m: int,
    *,
    max_atoms: Optional[int] = None,
    max_worlds: Optional[int] = None,
    jobs: int = 1,
) -> Verdict:
    """Satisfiability at world 0 of some uniform window model; dual to theoremhood.

    ``jobs`` is accepted for compatibility and has no effect.
    """
    return _decide_uniform(f, m, True, max_atoms, max_worlds)


def _decide_uniform(f: Formula, m: int, want: bool, max_atoms: Optional[int], max_worlds: Optional[int]) -> Verdict:
    """Search for a valuation giving ``f`` the value ``want`` at world 0.

    Builds the window frame of width ``reach(f, m) + 1`` and enumerates, in
    binary order, the valuations of the bits world-0 truth reads
    (:func:`~itl.syntax.read_set`), every unread bit false.  The scan returns
    the first hit in the full layout, which is the least hitting code of a
    sweep over all ``n * width`` bits (clearing unread bits keeps a hit and
    makes no code larger), so it becomes the same certificate.  The caps
    still count all ``n * width`` bits: verdicts are Inconclusive when the
    window or the full valuation count would exceed them.  A sweep of at
    most 6 bits is one word either way and keeps every bit.
    """
    atom_cap = DEFAULT_MAX_ATOMS if max_atoms is None else max_atoms
    world_cap = DEFAULT_MAX_WORLDS if max_worlds is None else max_worlds
    letters = letters_of(f)
    width = reach(f, m) + 1
    n_bits = len(letters) * width
    if width > world_cap or n_bits > atom_cap:
        return Verdict(VerdictKind.INCONCLUSIVE, caps=SearchCaps(max_worlds=world_cap, max_atoms=atom_cap))
    frame = UniformWindowFrame(width, m)

    def hits(ev):
        row = ev.table(f)[0]
        return row if want else ~row

    # A sweep of at most 6 bits fills one word, which the read set cannot
    # shrink: there the walk only costs (admissibility's decides, measured).
    reads = read_set(f, m) if n_bits > 6 else None
    found = scan_valuations(frame, letters, hits, reads=reads)
    if found is None:
        return Verdict(VerdictKind.UNSATISFIABLE if want else VerdictKind.THEOREM)
    model = Model(frame, decode_valuation(found, letters, width))
    return Verdict(VerdictKind.SATISFIABLE if want else VerdictKind.NON_THEOREM, Countermodel(model, 0, f))


def iter_lasso_frames(max_worlds: int, max_reach: int) -> Iterator[FiniteLassoFrame]:
    """All lasso frames under the caps: W ascending, then loop target, then reach lengths.

    The searches walk :func:`iter_lasso_runs` instead.  This one-frame-at-a-time
    order stays as the reference the batched search is tested against, and as
    a traced layer of the benchmark.
    """
    for worlds in range(1, max_worlds + 1):
        cap = min(max_reach, worlds)
        for loop in range(worlds):
            for d in combinations_with_replacement(range(1, cap + 1), worlds):
                yield FiniteLassoFrame(worlds, loop, d)


def iter_lasso_runs(max_worlds: int, max_reach: int) -> Iterator[LassoRun]:
    """The frames of :func:`iter_lasso_frames`, in the same order, as one run per frame size."""
    for worlds in range(1, max_worlds + 1):
        yield _lasso_run(worlds, min(max_reach, worlds))


@lru_cache(maxsize=32)  # every search under the same caps walks the same runs
def _lasso_run(worlds: int, max_reach: int) -> LassoRun:
    reaches = np.array(list(combinations_with_replacement(range(1, max_reach + 1), worlds)))
    return LassoRun(worlds, reaches)


def _reads_reach(formulas: Iterable[Formula]) -> bool:
    """Whether an Until occurs in ``formulas``: only Until reads how far a lasso world sees."""
    return any(isinstance(g, Until) for g in _post_order(formulas))


def bounded_nt_refutation(
    target: Union[Formula, Rule],
    max_worlds: int,
    max_reach: int,
    *,
    max_atoms: Optional[int] = None,
) -> Verdict:
    """Sound countermodel search over finite lasso frames.

    Enumerates frames and valuations in a fixed order and returns the first
    countermodel as a NonTheorem certificate.  The frames of one size are
    scanned together, as a :class:`LassoRun` from :func:`iter_lasso_runs`;
    its first hit is the hit a frame-by-frame scan would find first.  A
    target without an Until reads no reach length, so it has the same truth
    on every frame of one ``(worlds, loop)`` shape, and only the all-ones
    reach vector is searched: it is the first frame of its shape, where a
    full scan of the shape would find its first hit too.  Frame sizes whose
    ``n * worlds`` valuation bits exceed ``max_atoms`` are not searched.  If
    no countermodel exists under the caps the result is Inconclusive (never
    Theorem: the complete size bound of :func:`finite_model_size_bound` is
    astronomically large); its caps list ``max_atoms`` only when that cap
    left sizes out.
    """
    if max_worlds < 1 or max_reach < 1:
        raise ValueError("search caps must be positive")
    atom_cap = DEFAULT_MAX_ATOMS if max_atoms is None else max_atoms
    if isinstance(target, Rule):
        letters = target.letters
        mask = rule_refutation_mask(target)
        failing = target.conclusion
        formulas = (*target.premises, target.conclusion)
    else:
        letters = letters_of(target)
        mask = lambda ev: ~ev.everywhere(target)  # noqa: E731
        failing = target
        formulas = (target,)
    fitting = min(max_worlds, atom_cap // len(letters)) if letters else max_worlds
    searched_reach = max_reach if _reads_reach(formulas) else 1
    for run in iter_lasso_runs(fitting, searched_reach):
        found = scan_valuations(run, letters, mask)
        if found is not None:
            frame = run.frame(found >> (len(letters) * run.worlds))
            model = Model(frame, decode_valuation(found, letters, frame.worlds))
            world = _first_failure_world(model, failing)
            return Verdict(VerdictKind.NON_THEOREM, Countermodel(model, world, target))
    cut = atom_cap if fitting < max_worlds else None
    return Verdict(VerdictKind.INCONCLUSIVE, caps=SearchCaps(max_worlds, max_reach, cut))


def finite_model_size_bound(n: int, l: int) -> int:
    """Size bound for countermodels of a reduced-form rule with ``n`` letters and ``l`` disjuncts.

    Exact integer value of ``(n*l) * l**(n*l) * (n*l)! + l**(n*l)``; reported
    for information, never used as a search target.
    """
    if n < 1 or l < 1:
        raise ValueError("letter and disjunct counts must be >= 1")
    nl = n * l
    return nl * l**nl * factorial(nl) + l**nl


def check_certificate(verdict: Verdict) -> bool:
    """Re-evaluate a verdict's certificate and confirm the claim it encodes.

    NonTheorem formula certificates must falsify the target at the stated
    world; rule certificates must validate every premise while the
    conclusion fails at the world; Satisfiable witnesses must verify the
    target.  Raises ValueError when the verdict carries no certificate.
    """
    cm = verdict.certificate
    if cm is None:
        raise ValueError(f"{verdict.kind.value} verdict carries no certificate")
    if not 0 <= cm.world < cm.model.frame.worlds:
        return False
    if isinstance(cm.target, Rule):
        if verdict.kind is not VerdictKind.NON_THEOREM:
            return False
        premises_hold = all(formula_valid_in_model(cm.model, p) for p in cm.target.premises)
        return premises_hold and not eval_nt(cm.model, cm.world, cm.target.conclusion)
    if verdict.kind is VerdictKind.NON_THEOREM:
        return not eval_nt(cm.model, cm.world, cm.target)
    if verdict.kind is VerdictKind.SATISFIABLE:
        return eval_nt(cm.model, cm.world, cm.target)
    return False


# ---------------------------------------------------------------------------
# Serialization: certificates are the model file plus world and target text;
# verdicts add the kind and the caps the search ran under.
# ---------------------------------------------------------------------------


def countermodel_to_dict(cm: Countermodel) -> dict:
    data = model_to_dict(cm.model)
    data["world"] = cm.world
    data["target"] = print_rule(cm.target) if isinstance(cm.target, Rule) else print_formula(cm.target)
    return data


def countermodel_from_dict(data: Mapping) -> Countermodel:
    model = model_from_dict(data)
    if not isinstance(model, Model):
        raise ValueError("certificates use single-valuation models")
    text = data["target"]
    if not isinstance(text, str):
        raise ValueError("a certificate's target must be formula or rule text")
    target: Union[Formula, Rule] = parse_rule(text) if "/" in text else parse_formula(text)
    return Countermodel(model, int_field(data["world"], "a certificate's world"), target)


def _caps_to_dict(caps: SearchCaps) -> dict:
    return {key: value for key, value in asdict(caps).items() if value is not None}


def _caps_from_dict(data) -> SearchCaps:
    if not isinstance(data, Mapping):
        raise ValueError("caps must be an object")
    unknown = sorted(set(data) - {f.name for f in fields(SearchCaps)})
    if unknown:
        raise ValueError(f"unknown caps keys: {', '.join(unknown)}")
    caps = {}
    for key, value in data.items():
        if value is not None:
            value = int_field(value, f"caps {key}")
            if value < 0:
                raise ValueError(f"caps {key} must be >= 0, got {value}")
        caps[key] = value
    return SearchCaps(**caps)


def verdict_to_dict(verdict: Verdict) -> dict:
    return {
        "verdict": verdict.kind.value,
        "certificate": countermodel_to_dict(verdict.certificate) if verdict.certificate else None,
        "caps": _caps_to_dict(verdict.caps) if verdict.caps else None,
    }


def verdict_from_dict(data: Mapping) -> Verdict:
    if not isinstance(data, Mapping):
        raise ValueError("a verdict must be a JSON object")
    kind = VerdictKind(data["verdict"])
    cert = data.get("certificate")
    caps = data.get("caps")
    return Verdict(
        kind,
        countermodel_from_dict(cert) if cert else None,
        None if caps is None else _caps_from_dict(caps),
    )


def verdict_to_json(verdict: Verdict) -> str:
    return json.dumps(verdict_to_dict(verdict), sort_keys=True)
