"""The certificate checker: verdicts and their certificates, their JSON, and the window evaluator.

Every negative or satisfiable verdict of :mod:`itl.decide` carries a
certificate, a model with a world and a target, and :func:`check_certificate`
re-evaluates it with the scalar window evaluator :func:`eval_nt`, apart from
the search that found it.  This module owns the types (:class:`Verdict`,
:class:`Countermodel`, :class:`SearchCaps`), their JSON form and the checker.
It imports only :mod:`itl.frames` and :mod:`itl.syntax`: neither numpy nor
the batch engine in :mod:`itl.tables` is trusted by a check.

:func:`eval_nt` reads Until with a witness inside the current world's window
only: ``f U g`` holds at ``a`` iff some world ``b`` visible from ``a`` (in path
order) satisfies ``g`` while every world strictly before ``b`` on that path
satisfies ``f``.  The witness may be ``a`` itself, so ``q -> (p U q)`` is valid.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from enum import Enum
from typing import Mapping, Optional, Union

from .frames import (
    Frame,
    FrameError,
    Model,
    UniformWindowFrame,
    Valuation,
    WindowOverflowError,
    int_field,
    model_from_dict,
    model_to_dict,
)
from .syntax import (
    And,
    FalseBool,
    Formula,
    Implies,
    Letter,
    Next,
    Not,
    Or,
    Rule,
    TrueBool,
    Until,
    parse_formula,
    parse_rule,
    print_formula,
    print_rule,
    reach,
)


def _check_window_fit(frame: Frame, a: int, f: Formula) -> None:
    if not 0 <= a < frame.worlds:
        raise FrameError(f"world {a} out of range for {frame.worlds} worlds")
    if isinstance(frame, UniformWindowFrame):
        horizon = reach(f, frame.measure)
        if a + horizon > frame.worlds - 1:
            raise WindowOverflowError(
                f"formula needs worlds up to {a + horizon}, frame ends at {frame.worlds - 1}"
            )


def eval_nt(model: Model, a: int, f: Formula) -> bool:
    """Truth of ``f`` at world ``a`` under window semantics."""
    _check_window_fit(model.frame, a, f)
    return _eval(model.frame, model.valuation, a, f, {})


def _eval(frame: Frame, valuation: Valuation, a: int, f: Formula, memo: dict) -> bool:
    key = (id(f), a)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(f, Letter):
        value = valuation.holds(f.name, a)
    elif isinstance(f, TrueBool):
        value = True
    elif isinstance(f, FalseBool):
        value = False
    elif isinstance(f, Not):
        value = not _eval(frame, valuation, a, f.arg, memo)
    elif isinstance(f, And):
        value = _eval(frame, valuation, a, f.left, memo) and _eval(frame, valuation, a, f.right, memo)
    elif isinstance(f, Or):
        value = _eval(frame, valuation, a, f.left, memo) or _eval(frame, valuation, a, f.right, memo)
    elif isinstance(f, Implies):
        value = (not _eval(frame, valuation, a, f.left, memo)) or _eval(frame, valuation, a, f.right, memo)
    elif isinstance(f, Next):
        value = _eval(frame, valuation, frame.next_world(a), f.arg, memo)
    elif isinstance(f, Until):
        value = False
        for b in frame.window(a):
            if _eval(frame, valuation, b, f.right, memo):
                value = True
                break
            if not _eval(frame, valuation, b, f.left, memo):
                break
    else:
        raise TypeError(f"not a formula: {f!r}")
    memo[key] = value
    return value


def formula_valid_in_model(model: Model, f: Formula) -> bool:
    """True iff ``f`` holds at every world.

    On uniform frames this requires the formula's window to fit at every
    world, which only reach-0 formulas satisfy; temporal formulas should be
    checked through the decision procedures instead.  Of the worlds whose
    window fits, only those whose window meets a listed world are evaluated,
    plus one whose window meets none, as all of those agree; the result is
    the world-by-world loop's, False or :class:`WindowOverflowError`.
    """
    frame = model.frame
    if not isinstance(frame, UniformWindowFrame):
        return all(eval_nt(model, a, f) for a in range(frame.worlds))
    horizon = reach(f, frame.measure)
    last = frame.worlds - 1 - horizon  # the last world the window fits at
    listed = set().union(*model.valuation.true_worlds.values())
    worlds = {a for b in listed for a in range(max(b - horizon, 0), min(b, last) + 1)}
    quiet = [a for a in (0, *(b + 1 for b in listed)) if a <= last and a not in worlds]
    if not all(eval_nt(model, a, f) for a in [*worlds, *quiet[:1]]):
        return False
    if horizon:
        eval_nt(model, max(last + 1, 0), f)  # the first world the window overflows at: raises
    return True


def rule_valid_in_model(model: Model, rule: Rule) -> bool:
    """False exactly when every premise holds at all worlds but the conclusion fails somewhere."""
    if not all(formula_valid_in_model(model, p) for p in rule.premises):
        return True
    return formula_valid_in_model(model, rule.conclusion)


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


def check_certificate(verdict: Verdict) -> bool:
    """Re-evaluate a verdict's certificate and confirm the claim it encodes.

    NonTheorem formula certificates must falsify the target at the stated
    world; rule certificates must validate every premise while the
    conclusion fails at the world; Satisfiable witnesses must verify the
    target.  A certificate whose world is out of range, or whose target's
    window overruns its uniform frame, confirms nothing and gets False.
    Raises ValueError when the verdict carries no certificate.
    """
    cm = verdict.certificate
    if cm is None:
        raise ValueError(f"{verdict.kind.value} verdict carries no certificate")
    if not 0 <= cm.world < cm.model.frame.worlds:
        return False
    try:
        if isinstance(cm.target, Rule):
            if verdict.kind is not VerdictKind.NON_THEOREM:
                return False
            premises_hold = all(formula_valid_in_model(cm.model, p) for p in cm.target.premises)
            return premises_hold and not eval_nt(cm.model, cm.world, cm.target.conclusion)
        if verdict.kind is VerdictKind.NON_THEOREM:
            return not eval_nt(cm.model, cm.world, cm.target)
        if verdict.kind is VerdictKind.SATISFIABLE:
            return eval_nt(cm.model, cm.world, cm.target)
    except WindowOverflowError:
        return False
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
