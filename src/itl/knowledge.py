"""Knowledge readings over past-directed models.

The frame's Next is read as "one step further into the past", so the window
of a world is the stretch of remembered history and the knowledge macros
quantify over it.  The mathematics is direction-agnostic: models are plain
models, the past-directed reading lives in the caller's interpretation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .check import eval_nt
from .frames import Model, MultiAgentModel, UniformWindowFrame, vote
from .syntax import And, DerivedOp, Formula, Implies, Next, Not, box, diamond, expand_derived, reach


@dataclass(frozen=True)
class KConsensus:
    """Consensus knowledge: every agent's history supports the fact (per-agent clause)."""


CONSENSUS = KConsensus()


@dataclass(frozen=True)
class KnowledgeQuery:
    operator: Union[DerivedOp, KConsensus]
    subject: Formula
    world: int
    agent: Optional[str] = None


def agent_model(model: Union[Model, MultiAgentModel], agent: Optional[str]) -> Model:
    if isinstance(model, Model):
        if agent not in (None, "V"):
            raise ValueError(f"single-valuation model has no agent {agent!r}")
        return model
    if agent is None:
        if len(model.valuations) == 1:
            return Model(model.frame, next(iter(model.valuations.values())))
        raise ValueError("an agent must be selected on a multi-agent model")
    try:
        return Model(model.frame, model.valuations[agent])
    except KeyError:
        raise ValueError(f"unknown agent {agent!r}") from None


def consensus_clause(f: Formula) -> Formula:
    """Per-agent condition of the consensus reading of knowledge.

    The agent sees ``f`` somewhere in the window and, once lost, ``f`` stays
    lost through the window.
    """
    return And(diamond(f), box(Implies(Not(f), Next(Not(f)))))


def eval_consensus(model: Union[Model, MultiAgentModel], a: int, f: Formula) -> bool:
    """True iff the consensus clause for ``f`` holds at ``a`` under every agent's valuation."""
    clause = consensus_clause(f)
    if isinstance(model, Model):
        return eval_nt(model, a, clause)
    return all(eval_nt(Model(model.frame, v), a, clause) for v in model.valuations.values())


def eval_knowledge(
    model: Union[Model, MultiAgentModel],
    query: KnowledgeQuery,
    m: Optional[int] = None,
    k: Optional[int] = None,
) -> bool:
    """Evaluate a knowledge query on a model.

    Macro operators expand to kernel formulas and run on a single valuation
    (the selected agent's, for multi-agent models).  The consensus operator
    quantifies over all agents unless an agent is selected, in which case it
    reduces to that agent's clause.
    """
    if isinstance(query.operator, KConsensus):
        selected = model if query.agent is None else agent_model(model, query.agent)
        return eval_consensus(selected, query.world, query.subject)
    f = expand_derived(query.operator, [query.subject], m=m, k=k)
    return eval_nt(agent_model(model, query.agent), query.world, f)


def voted_pipeline(mam: MultiAgentModel, f: Formula) -> dict[int, bool]:
    """Strict-majority vote, then the formula's truth at every evaluable world.

    On lasso frames every world is evaluable; on uniform window frames the
    table covers the worlds whose window fits, ``0 .. worlds-1-reach(f)``.
    """
    voted = vote(mam)
    frame = voted.frame
    if isinstance(frame, UniformWindowFrame):
        last = frame.worlds - 1 - reach(f, frame.measure)
        worlds = range(last + 1)
    else:
        worlds = range(frame.worlds)
    return {a: eval_nt(voted, a, f) for a in worlds}
