"""What the traced run wraps, what it counts, and the per-layer metrics it reports.

Layers are the package's modules.  ``knowledge`` is left out: it runs no
search and no workload reaches it.  Counts come from call arguments and
return values only, so they are the same whatever the package does inside.
"""

from __future__ import annotations

import inspect
import math
from functools import cache
from typing import Optional

from spans import Target, Tracer

TABLE_CONSTRUCTORS = ("Letter", "TrueBool", "FalseBool", "Not", "And", "Or", "Implies", "Next", "Until")


_signature = cache(inspect.signature)


def _arguments(fn, args: tuple, kwargs: dict) -> dict:
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _scan_exit(tracer: Tracer, fn, args, kwargs, found) -> None:
    a = _arguments(fn, args, kwargs)
    n_bits = len(a["letters"]) * a["frame"].worlds
    step = 1 << min(a["chunk_bits"], n_bits)
    scanned = (1 << n_bits) if found is None else found + 1
    tracer.count("scans")
    tracer.count("valuations_scanned", scanned)
    tracer.count("chunks", math.ceil(scanned / step))
    if found is None:
        tracer.count("full_sweeps")
    else:
        tracer.count("hits")
        tracer.count("first_hit_sum", found)


def _init_exit(tracer: Tracer, fn, args, kwargs, result) -> None:
    tracer.count("rows_evaluated", len(_arguments(fn, args, kwargs)["indices"]))


def _refute_exit(tracer: Tracer, fn, args, kwargs, result) -> None:
    tracer.count("refutations")


def _rnf_exit(tracer: Tracer, fn, args, kwargs, rnf) -> None:
    n = rnf.variable_count
    tracer.count("rnf_forms")
    tracer.count("rnf_disjuncts", rnf.disjunct_count)
    tracer.count("rnf_assignments", 1 << (n * (n + 1)))


def _to_rule_exit(tracer: Tracer, fn, args, kwargs, rule) -> None:
    tracer.count("rendered_disjuncts", args[0].disjunct_count)


def _match_exit(tracer: Tracer, fn, args, kwargs, shape) -> None:
    if shape is not None:
        tracer.count("reduced_matches")


def _mask_exit(tracer: Tracer, fn, args, kwargs, result) -> None:
    tracer.count("refutation_masks")


def _admissible_enter(tracer: Tracer, fn, args, kwargs) -> None:
    tracer.context["rule"] = _arguments(fn, args, kwargs)["rule"]
    tracer.count("admissible_ops")


def _decide_exit(tracer: Tracer, fn, args, kwargs, verdict) -> None:
    if "rule" in tracer.context:
        tracer.count("admissible_decides")


def _substitution_exit(tracer: Tracer, fn, args, kwargs, result) -> None:
    rule = tracer.context.get("rule")
    f = _arguments(fn, args, kwargs)["f"]
    if rule is not None and f is rule.premises[0]:
        tracer.count("tuples_tried")
    elif rule is not None and f is rule.conclusion:
        tracer.count("tuples_to_conclusion")


def targets() -> list[Target]:
    return [
        Target("cli.main", ("itl.cli",), "main"),
        Target("cli.build_parser", ("itl.cli",), "build_parser"),
        Target("syntax.parse_formula", ("itl.syntax",), "parse_formula"),
        Target("syntax.parse_rule", ("itl.syntax",), "parse_rule"),
        Target("syntax.print_rule", ("itl.syntax",), "print_rule"),
        Target("syntax.letters_of", ("itl.syntax",), "letters_of"),
        Target("syntax.reach", ("itl.syntax",), "reach"),
        Target("syntax.rule_letters", ("itl.syntax",), "Rule.letters"),
        Target("frames.iter_lasso_frames", ("itl.frames", "itl.decide"), "iter_lasso_frames"),
        Target("tables.scan_valuations", ("itl.tables",), "scan_valuations", on_exit=_scan_exit),
        Target("tables.batch_evaluator_init", ("itl.tables",), "BatchEvaluator.__init__", on_exit=_init_exit),
        Target(
            "tables.table",
            ("itl.tables",),
            "BatchEvaluator.table",
            name_of=lambda ev, f, *rest: f"tables.table.{type(f).__name__}",
        ),
        Target("tables.decode_valuation", ("itl.tables",), "decode_valuation"),
        Target("normalform.to_reduced_normal_form", ("itl.normalform",), "to_reduced_normal_form", on_exit=_rnf_exit),
        Target("normalform.to_rule", ("itl.normalform",), "ReducedNormalFormRule.to_rule", on_exit=_to_rule_exit),
        Target("normalform.match_reduced_form", ("itl.normalform",), "match_reduced_form", on_exit=_match_exit),
        Target("semantics.rule_valid_in_frame", ("itl.semantics",), "rule_valid_in_frame"),
        Target("semantics.rule_refutation_mask", ("itl.semantics",), "rule_refutation_mask", on_exit=_mask_exit),
        Target("decide.decide_uniform_theorem", ("itl.decide",), "decide_uniform_theorem", on_exit=_decide_exit),
        Target("decide.decide_uniform_satisfiable", ("itl.decide",), "decide_uniform_satisfiable"),
        Target("decide.bounded_nt_refutation", ("itl.decide",), "bounded_nt_refutation", on_exit=_refute_exit),
        Target("decide.check_certificate", ("itl.decide",), "check_certificate"),
        Target("decide.verdict_to_dict", ("itl.decide",), "verdict_to_dict"),
        Target("admissibility.decide_admissible", ("itl.admissibility",), "decide_admissible", on_enter=_admissible_enter),
        Target(
            "admissibility.apply_substitution",
            ("itl.admissibility",),
            "apply_substitution",
            outer_only=True,
            on_exit=_substitution_exit,
        ),
        Target("admissibility.substitution_pool", ("itl.admissibility",), "substitution_pool"),
    ]


# Counters that must repeat exactly when the same operations run twice.
EXACT_COUNTS = (
    "scans",
    "valuations_scanned",
    "chunks",
    "hits",
    "full_sweeps",
    "first_hit_sum",
    "frames.iter_lasso_frames.items",
    "refutations",
    "rnf_forms",
    "rnf_disjuncts",
    "rnf_assignments",
    "rendered_disjuncts",
    "reduced_matches",
    "refutation_masks",
    "admissible_ops",
    "admissible_decides",
    "tuples_tried",
    "tuples_to_conclusion",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    op_totals: dict[str, dict[str, float]],
    check_totals: dict[str, dict[str, float]],
    counts: dict[str, float],
    unreliable: set[str],
    ops: int,
) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Metric name -> (value, unit), and the names left absent.

    A metric is absent when a target it needs is gone from the package or its
    counter hook no longer understands the call (``unreliable``).

    Times are summed over the operations of one traced pass; counts are
    totals over the same pass, ratios carry their base as a separate count.
    """
    c = counts.get

    def span(name: str, field: str) -> float:
        return op_totals.get(name, {}).get(field, 0.0)

    def table_self(ctor: str) -> float:
        return span(f"tables.table.{ctor}", "self_s")

    scans = c("scans", 0)
    rows = c("rows_evaluated", 0)
    scan_busy = span("tables.scan_valuations", "busy_s")
    metrics: dict[str, tuple[Optional[float], str, tuple[str, ...]]] = {
        "cli.main.self_s": (span("cli.main", "self_s"), "s", ("cli.main",)),
        "cli.build_parser.busy_s": (span("cli.build_parser", "busy_s"), "s", ("cli.build_parser",)),
        "frames.iter_lasso_frames.busy_s": (span("frames.iter_lasso_frames", "busy_s"), "s", ("frames.iter_lasso_frames",)),
        "decide.refutations": (c("refutations", 0), "count", ("decide.bounded_nt_refutation",)),
        "decide.frames_per_op": (
            _ratio(c("frames.iter_lasso_frames.items", 0), c("refutations", 0)),
            "count",
            ("frames.iter_lasso_frames", "decide.bounded_nt_refutation"),
        ),
        "tables.scan_valuations.calls": (scans, "count", ("tables.scan_valuations",)),
        "tables.scan_valuations.busy_s": (scan_busy, "s", ("tables.scan_valuations",)),
        "tables.scan_valuations.self_s": (span("tables.scan_valuations", "self_s"), "s", ("tables.scan_valuations",)),
        "tables.batch_evaluator_init.busy_s": (
            span("tables.batch_evaluator_init", "busy_s"),
            "s",
            ("tables.batch_evaluator_init",),
        ),
        "tables.decode_valuation.busy_s": (span("tables.decode_valuation", "busy_s"), "s", ("tables.decode_valuation",)),
        "tables.valuations_scanned": (c("valuations_scanned", 0), "count", ("tables.scan_valuations",)),
        "tables.chunks": (c("chunks", 0), "count", ("tables.scan_valuations",)),
        "tables.rows_evaluated": (rows, "count", ("tables.batch_evaluator_init",)),
        "tables.valuations_per_s": (
            _ratio(rows, scan_busy),
            "1/s",
            ("tables.batch_evaluator_init", "tables.scan_valuations"),
        ),
        "tables.wasted_frac": (
            _ratio(rows - c("valuations_scanned", 0), rows),
            "ratio",
            ("tables.batch_evaluator_init", "tables.scan_valuations"),
        ),
        "tables.hits": (c("hits", 0), "count", ("tables.scan_valuations",)),
        "tables.first_hit_mean": (_ratio(c("first_hit_sum", 0), c("hits", 0)), "count", ("tables.scan_valuations",)),
        "decide.full_sweep_frac": (_ratio(c("full_sweeps", 0), scans), "ratio", ("tables.scan_valuations",)),
        "normalform.rnf_assignments": (c("rnf_assignments", 0), "count", ("normalform.to_reduced_normal_form",)),
        "normalform.kept_frac": (
            _ratio(c("rnf_disjuncts", 0), c("rnf_assignments", 0)),
            "ratio",
            ("normalform.to_reduced_normal_form",),
        ),
        "normalform.to_rule.disjuncts": (c("rendered_disjuncts", 0), "count", ("normalform.to_rule",)),
        "semantics.rule_refutation_mask.calls": (c("refutation_masks", 0), "count", ("semantics.rule_refutation_mask",)),
        "semantics.reduced_path_frac": (
            _ratio(c("reduced_matches", 0), c("refutation_masks", 0)),
            "ratio",
            ("normalform.match_reduced_form", "semantics.rule_refutation_mask"),
        ),
        "decide.decide_uniform_theorem.self_s": (
            span("decide.decide_uniform_theorem", "self_s"),
            "s",
            ("decide.decide_uniform_theorem",),
        ),
        "decide.decide_uniform_satisfiable.self_s": (
            span("decide.decide_uniform_satisfiable", "self_s"),
            "s",
            ("decide.decide_uniform_satisfiable",),
        ),
        "decide.bounded_nt_refutation.self_s": (
            span("decide.bounded_nt_refutation", "self_s"),
            "s",
            ("decide.bounded_nt_refutation",),
        ),
        "decide.check_certificate.busy_s": (
            check_totals.get("decide.check_certificate", {}).get("busy_s", 0.0),
            "s",
            ("decide.check_certificate",),
        ),
        "decide.verdict_to_dict.busy_s": (span("decide.verdict_to_dict", "busy_s"), "s", ("decide.verdict_to_dict",)),
        "admissibility.decide_admissible.self_s": (
            span("admissibility.decide_admissible", "self_s"),
            "s",
            ("admissibility.decide_admissible",),
        ),
        "admissibility.ops": (c("admissible_ops", 0), "count", ("admissibility.decide_admissible",)),
        "admissibility.decides_per_op": (
            _ratio(c("admissible_decides", 0), c("admissible_ops", 0)),
            "count",
            ("admissibility.decide_admissible", "decide.decide_uniform_theorem"),
        ),
        "admissibility.tuples_tried": (c("tuples_tried", 0), "count", ("admissibility.apply_substitution",)),
        "admissibility.premises_theorem_frac": (
            _ratio(c("tuples_to_conclusion", 0), c("tuples_tried", 0)),
            "ratio",
            ("admissibility.decide_admissible", "admissibility.apply_substitution"),
        ),
        "bench.ops": (ops, "count", ()),
    }
    for name in ("parse_formula", "parse_rule", "print_rule", "letters_of", "reach", "rule_letters"):
        metrics[f"syntax.{name}.busy_s"] = (span(f"syntax.{name}", "busy_s"), "s", (f"syntax.{name}",))
    for name in ("to_reduced_normal_form", "to_rule", "match_reduced_form"):
        metrics[f"normalform.{name}.busy_s"] = (span(f"normalform.{name}", "busy_s"), "s", (f"normalform.{name}",))
    metrics["semantics.rule_valid_in_frame.busy_s"] = (
        span("semantics.rule_valid_in_frame", "busy_s"),
        "s",
        ("semantics.rule_valid_in_frame",),
    )
    for name in ("apply_substitution", "substitution_pool"):
        metrics[f"admissibility.{name}.busy_s"] = (span(f"admissibility.{name}", "busy_s"), "s", (f"admissibility.{name}",))
    for ctor in TABLE_CONSTRUCTORS:
        metrics[f"tables.table.{ctor}.self_s"] = (table_self(ctor), "s", ("tables.table",))

    out: dict[str, tuple[float, str]] = {}
    absent: list[str] = []
    for name, (value, unit, needs) in metrics.items():
        if unreliable.intersection(needs):
            absent.append(name)
        else:
            out[name] = (value, unit)
    return out, absent
