"""Linear temporal logic over bounded-memory (non-transitive) time.

Each world of a model sees only a bounded window of Next-successors, so
Until witnesses must fall inside the window and accessibility does not
compose.  The package provides the window evaluator and a classic-LTL
oracle, complete decision procedures for the uniform-memory logic, a sound
bounded countermodel search for the general logic, reduced normal forms for
inference rules, a bounded admissibility search, and knowledge operators for
past-directed readings of the frames.  Every negative verdict carries a
certificate that can be re-checked independently.
"""

from .admissibility import (
    AdmissibilityReport,
    AdmissibilityStatus,
    admissibility_consequences_check,
    apply_substitution,
    decide_admissible,
    pool_size,
    search_refuting_substitution,
    substitution_pool,
)
from .decide import (
    Countermodel,
    SearchCaps,
    Verdict,
    VerdictKind,
    bounded_nt_refutation,
    check_certificate,
    decide_uniform_satisfiable,
    decide_uniform_theorem,
    finite_model_size_bound,
    iter_lasso_frames,
    verdict_from_dict,
    verdict_to_dict,
)
from .frames import (
    FiniteLassoFrame,
    Frame,
    FrameError,
    Model,
    MultiAgentModel,
    UniformWindowFrame,
    Valuation,
    WindowOverflowError,
    load_model,
    model_from_dict,
    model_to_dict,
    vote,
)
from .knowledge import CONSENSUS, KConsensus, KnowledgeQuery, eval_consensus, eval_knowledge, voted_pipeline
from .limits import DEFAULT_MAX_ATOMS, DEFAULT_MAX_WORLDS, ResourceCapError
from .normalform import (
    ReducedNormalFormRule,
    formula_to_rule,
    is_reduced_normal_form,
    match_reduced_form,
    to_reduced_normal_form,
)
from .semantics import (
    ClassicLassoModel,
    classic_valid_in_model,
    eval_classic,
    eval_nt,
    formula_valid_in_model,
    rule_valid_in_frame,
    rule_valid_in_model,
)
from .syntax import (
    FALSE,
    TRUE,
    And,
    Box,
    BoxIter,
    DerivedOp,
    Diamond,
    DiamondIter,
    FalseBool,
    Formula,
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
    TrueBool,
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

__version__ = "0.1.0"
