"""Command-line interface: one subcommand per operation, JSON on stdout.

Machine-readable output (verdicts, certificates, models, reports) goes to
stdout in the package's serialization formats; diagnostics go to stderr.
Exit status 0 means a verdict was produced (including NonTheorem and
Inconclusive), 1 a file or parse error or running out of memory, 2 a usage
error.  Identical invocations produce byte-identical output.  The caps fall
back to the ``ITL_MAX_ATOMS`` and ``ITL_MAX_WORLDS`` environment variables
when the corresponding flags are absent.  A negative cap is refused: as a
flag it is a usage error, from the environment an error with status 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Optional, Sequence

from . import admissibility, decide, knowledge, normalform, syntax
from .frames import (
    FrameError,
    Model,
    MultiAgentModel,
    WindowOverflowError,
    frame_from_dict,
    int_field,
    load_model,
    model_to_dict,
    read_json,
    vote,
)
from .limits import MAX_PRINTED_DIGITS, ResourceCapError
from .semantics import eval_nt, rule_valid_in_frame, rule_valid_in_model
from .syntax import DERIVED_OP_NAMES, KSince, parse_formula, parse_rule, print_formula, print_rule


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _cap(flag_value: Optional[int], env_name: str) -> Optional[int]:
    value = os.environ.get(env_name)
    if flag_value is not None or not value:
        return flag_value
    cap = int_field(value, env_name)
    if cap < 0:
        raise ValueError(f"{env_name} must be >= 0, got {cap}")
    return cap


def _cap_flag(text: str) -> int:
    """Argument type of a cap flag: an integer >= 0."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if cap < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {cap}")
    return cap


def _caps_kwargs(args) -> dict:
    return {
        "max_atoms": _cap(getattr(args, "max_atoms", None), "ITL_MAX_ATOMS"),
        "max_worlds": _cap(getattr(args, "max_worlds_cap", None), "ITL_MAX_WORLDS"),
    }


def _cmd_parse(args) -> int:
    print(print_formula(parse_formula(args.formula)))
    return 0


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    f = parse_formula(args.formula)
    single = knowledge.agent_model(model, args.agent)
    value = eval_nt(single, args.world, f)
    _emit({"formula": print_formula(f), "world": args.world, "value": value})
    return 0


def _cmd_uniform(args) -> int:
    f = parse_formula(args.formula)
    procedure = decide.decide_uniform_satisfiable if args.command == "sat" else decide.decide_uniform_theorem
    verdict = procedure(f, args.m, **_caps_kwargs(args))
    _emit(decide.verdict_to_dict(verdict))
    return 0


def _cmd_refute(args) -> int:
    target = parse_rule(args.rule) if args.rule is not None else parse_formula(args.formula)
    verdict = decide.bounded_nt_refutation(
        target, args.max_worlds, args.max_reach, max_atoms=_cap(args.max_atoms, "ITL_MAX_ATOMS")
    )
    _emit(decide.verdict_to_dict(verdict))
    return 0


def _cmd_rnf(args) -> int:
    rule = parse_rule(args.rule)
    rnf = normalform.to_reduced_normal_form(rule, max_atoms=_cap(args.max_atoms, "ITL_MAX_ATOMS"))
    _emit(
        {
            "variables": rnf.variable_count,
            "disjuncts": rnf.disjunct_count,
            "rule": print_rule(rnf.to_rule()),
        }
    )
    return 0


def _cmd_rule_valid(args) -> int:
    rule = parse_rule(args.rule)
    if args.model:
        model = load_model(args.model)
        if not isinstance(model, Model):
            raise FrameError("rule validity in a model needs a single-valuation model file")
        valid = rule_valid_in_model(model, rule)
    else:
        data = read_json(args.frame)
        if not isinstance(data, dict):
            raise FrameError("a frame file must hold a JSON object")
        frame = frame_from_dict(data.get("frame", data))
        valid = rule_valid_in_frame(frame, rule, max_atoms=_cap(args.max_atoms, "ITL_MAX_ATOMS"))
    _emit({"rule": print_rule(rule), "valid": valid})
    return 0


def _cmd_admissible(args) -> int:
    rule = parse_rule(args.rule)
    report = admissibility.decide_admissible(
        rule, args.m, args.depth, max_tuples=args.max_tuples, **_caps_kwargs(args)
    )
    _emit(admissibility.report_to_dict(report))
    return 0


def _cmd_bound(args) -> int:
    n, l = args.letters, args.disjuncts
    if n >= 1 and l >= 1:
        # Digits of the leading term nl * l**nl * nl!, estimated before the
        # exact integer is built; nl! alone has over 5700 digits from nl = 2000 on.
        nl = n * l
        if nl >= 2000 or math.log10(nl * l**nl) + math.lgamma(nl + 1) / math.log(10) > MAX_PRINTED_DIGITS:
            raise ValueError(f"the bound has more than {MAX_PRINTED_DIGITS} digits")
    print(decide.finite_model_size_bound(n, l))
    return 0


def _cmd_expand(args) -> int:
    op_cls = DERIVED_OP_NAMES.get(args.op)
    if op_cls is None:
        raise ValueError(f"unknown operator {args.op!r} (choose from {', '.join(sorted(DERIVED_OP_NAMES))})")
    if op_cls is KSince:
        if args.trigger is None:
            raise ValueError("k-since needs --trigger")
        op = KSince(parse_formula(args.trigger))
    else:
        op = op_cls()
    f = parse_formula(args.formula)
    print(print_formula(syntax.expand_derived(op, [f], m=args.m, k=args.k)))
    return 0


def _cmd_vote(args) -> int:
    model = load_model(args.model)
    if isinstance(model, Model):
        model = MultiAgentModel(model.frame, {"V": model.valuation})
    _emit(model_to_dict(vote(model)))
    return 0


def _cmd_verify(args) -> int:
    verdict = decide.verdict_from_dict(read_json(sys.stdin if args.file == "-" else args.file))
    ok = decide.check_certificate(verdict)
    _emit({"ok": ok})
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="itl", description="Temporal logic with bounded-memory time windows.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: Optional[str]):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("parse", _cmd_parse, "parse a formula and print its canonical form")
    p.add_argument("formula")

    p = add("eval", _cmd_eval, "evaluate a formula at a world of a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--world", type=int, default=0)
    p.add_argument("--agent")

    for name, help_text in (
        ("decide", "decide theoremhood for the uniform logic"),
        ("sat", "decide satisfiability for the uniform logic"),
    ):
        p = add(name, _cmd_uniform, help_text)
        p.add_argument("--m", type=int, required=True, help="memory length")
        p.add_argument("--formula", required=True)
        p.add_argument("--max-atoms", type=_cap_flag, dest="max_atoms")
        p.add_argument("--max-worlds", type=_cap_flag, dest="max_worlds_cap")
        p.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; has no effect")

    p = add("refute", _cmd_refute, "search finite lasso frames for a countermodel")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula")
    group.add_argument("--rule")
    p.add_argument("--max-worlds", type=_cap_flag, required=True)
    p.add_argument("--max-reach", type=_cap_flag, required=True)
    p.add_argument("--max-atoms", type=_cap_flag, dest="max_atoms")

    p = add("rnf", _cmd_rnf, "reduced normal form of a rule")
    p.add_argument("--rule", required=True)
    p.add_argument("--max-atoms", type=_cap_flag, dest="max_atoms")

    p = add("rule-valid", _cmd_rule_valid, "rule validity in a model or over all valuations of a frame")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--model")
    group.add_argument("--frame")
    p.add_argument("--rule", required=True)
    p.add_argument("--max-atoms", type=_cap_flag, dest="max_atoms")

    p = add("admissible", _cmd_admissible, "screen and bounded refutation search for admissibility")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--rule", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--max-tuples", type=_cap_flag, dest="max_tuples")
    p.add_argument("--max-atoms", type=_cap_flag, dest="max_atoms")
    p.add_argument("--max-worlds", type=_cap_flag, dest="max_worlds_cap")

    p = add("bound", _cmd_bound, "countermodel size bound for a reduced-form rule")
    p.add_argument("--letters", type=int, required=True)
    p.add_argument("--disjuncts", type=int, required=True)

    p = add("expand", _cmd_expand, "expand a derived operator")
    p.add_argument("--op", required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--trigger", help="trigger formula for k-since")
    p.add_argument("--formula", required=True)

    p = add("vote", _cmd_vote, "collapse a multi-agent model by strict-majority vote")
    p.add_argument("--model", required=True)

    p = add("verify", _cmd_verify, None)  # re-check a verdict's certificate (used by tests)
    p.add_argument("file", nargs="?", default="-")

    return parser


# ParseError, FrameError and json.JSONDecodeError are ValueErrors.
_USER_ERRORS = (WindowOverflowError, ResourceCapError, ValueError, KeyError, OSError, MemoryError)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first :func:`main` call and reused by later ones."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _USER_ERRORS as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
