"""Finite time frames, valuations and models.

Two frame shapes are supported.  A :class:`UniformWindowFrame` is the initial
segment of the uniform-memory line: world ``a`` sees the interval
``[a, a+m]``.  A :class:`FiniteLassoFrame` is a Next-chain whose last world
loops back to ``loop``, with a per-world reach length ``d_i`` giving how many
Next-steps world ``i`` can see; windows follow the Next path and may wrap
through the loop edge.  A :class:`LassoRun` holds lasso frames of one size,
loop target by loop target and reach vector by reach vector, so that the
batch engine can evaluate them together.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Mapping, Union

import numpy as np


class FrameError(ValueError):
    """A frame or model violates a structural invariant."""


class WindowOverflowError(RuntimeError):
    """Evaluation left the guaranteed window of a uniform frame.

    This signals a bug in a decision procedure (which must arrange
    ``world + reach(formula) <= worlds - 1``), never bad user input.
    """


@dataclass(frozen=True)
class UniformWindowFrame:
    """Initial segment of the uniform line with memory length ``measure``."""

    worlds: int
    measure: int

    def __post_init__(self) -> None:
        if self.worlds < 1:
            raise FrameError("a frame needs at least one world")
        if self.measure < 1:
            raise FrameError("memory length must be >= 1")

    def next_world(self, a: int) -> int:
        if a >= self.worlds - 1:
            raise WindowOverflowError(f"no successor of world {a} in a {self.worlds}-world window frame")
        return a + 1

    def window(self, a: int) -> range:
        return range(a, min(a + self.measure, self.worlds - 1) + 1)


@dataclass(frozen=True)
class FiniteLassoFrame:
    """Next-chain of ``worlds`` worlds looping from the last back to ``loop``.

    ``reach[i]`` is the number of Next-steps visible from world ``i``.  Reach
    lengths are positive, never exceed ``worlds`` (a window wraps through the
    loop at most once) and are non-decreasing along the chain, so later
    worlds never see less than earlier ones.
    """

    worlds: int
    loop: int
    reach: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "reach", tuple(self.reach))
        if self.worlds < 1:
            raise FrameError("a frame needs at least one world")
        if not 0 <= self.loop < self.worlds:
            raise FrameError(f"loop target {self.loop} out of range for {self.worlds} worlds")
        if len(self.reach) != self.worlds:
            raise FrameError(f"expected {self.worlds} reach lengths, got {len(self.reach)}")
        for i, d in enumerate(self.reach):
            if d < 1:
                raise FrameError(f"reach length of world {i} must be >= 1")
            if d > self.worlds:
                raise FrameError(f"reach length of world {i} exceeds the frame size")
        for i in range(self.worlds - 1):
            if self.reach[i + 1] < self.reach[i]:
                raise FrameError(f"reach lengths must be non-decreasing (world {i + 1} shrinks)")

    def next_world(self, a: int) -> int:
        return a + 1 if a < self.worlds - 1 else self.loop

    def path(self, a: int, j: int) -> int:
        """World reached from ``a`` by ``j`` Next-steps."""
        for _ in range(j):
            a = self.next_world(a)
        return a

    def window(self, a: int) -> tuple[int, ...]:
        """The worlds visible from ``a``, in path order: length ``reach[a] + 1``."""
        out = [a]
        w = a
        for _ in range(self.reach[a]):
            w = self.next_world(w)
            out.append(w)
        return tuple(out)


@dataclass(frozen=True, eq=False)
class LassoRun:
    """Every lasso frame of one size, side by side: each loop target with each reach vector.

    With ``R = len(reaches)``, frame ``i`` of the run is
    ``FiniteLassoFrame(worlds, i // R, reaches[i % R])``: loop targets
    ``0 .. worlds - 1`` outermost, then reach vectors.  The frames share
    their worlds; frames with the same loop share Next and the path of every
    window, and they differ only in how far each world's window reaches.
    ``reaches`` is kept once, as a read-only ``(R, worlds)`` integer array,
    which the batch engine reads as is.
    """

    worlds: int
    reaches: np.ndarray

    def __post_init__(self) -> None:
        reaches = np.array(self.reaches, dtype=np.int64)
        if self.worlds < 1:
            raise FrameError("a frame needs at least one world")
        if reaches.ndim != 2 or reaches.shape[0] < 1 or reaches.shape[1] != self.worlds:
            raise FrameError(f"a run needs one or more vectors of {self.worlds} reach lengths")
        if (reaches[:, 1:] < reaches[:, :-1]).any() or reaches[:, 0].min() < 1 or reaches[:, -1].max() > self.worlds:
            raise FrameError("reach lengths must lie in 1..worlds and be non-decreasing")
        reaches.flags.writeable = False
        object.__setattr__(self, "reaches", reaches)

    def __len__(self) -> int:
        return self.worlds * len(self.reaches)

    def frame(self, i: int) -> FiniteLassoFrame:
        loop, row = divmod(i, len(self.reaches))
        return FiniteLassoFrame(self.worlds, loop, tuple(int(d) for d in self.reaches[row]))


Frame = Union[UniformWindowFrame, FiniteLassoFrame]

_EMPTY: frozenset[int] = frozenset()


@dataclass(frozen=True)
class Valuation:
    """Maps each letter to the set of worlds where it is true."""

    true_worlds: Mapping[str, frozenset[int]]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "true_worlds", {name: frozenset(ws) for name, ws in self.true_worlds.items()}
        )

    def holds(self, letter: str, world: int) -> bool:
        return world in self.true_worlds.get(letter, _EMPTY)

    def letters(self) -> tuple[str, ...]:
        return tuple(self.true_worlds)

    def max_world(self) -> int:
        return max((max(ws) for ws in self.true_worlds.values() if ws), default=-1)


def _check_valuation(frame: Frame, valuation: Valuation) -> None:
    if valuation.max_world() >= frame.worlds:
        raise FrameError(f"valuation mentions world {valuation.max_world()}, frame has {frame.worlds} worlds")


@dataclass(frozen=True)
class Model:
    frame: Frame
    valuation: Valuation

    def __post_init__(self) -> None:
        _check_valuation(self.frame, self.valuation)


@dataclass(frozen=True)
class MultiAgentModel:
    """One frame shared by several agents, each with its own valuation."""

    frame: Frame
    valuations: Mapping[str, Valuation]

    def __post_init__(self) -> None:
        object.__setattr__(self, "valuations", dict(self.valuations))
        if not self.valuations:
            raise FrameError("a multi-agent model needs at least one agent")
        for v in self.valuations.values():
            _check_valuation(self.frame, v)


def vote(mam: MultiAgentModel) -> Model:
    """Collapse agent valuations into one by strict majority; ties come out false, as do unlisted worlds."""
    agents = mam.valuations.values()
    n = len(agents)
    letters = sorted({name for v in agents for name in v.letters()})
    voted: dict[str, frozenset[int]] = {}
    for letter in letters:
        listed = set().union(*(v.true_worlds.get(letter, _EMPTY) for v in agents))
        voted[letter] = frozenset(a for a in listed if sum(v.holds(letter, a) for v in agents) * 2 > n)
    return Model(mam.frame, Valuation(voted))


# ---------------------------------------------------------------------------
# JSON interchange.
#
#   {"frame": {"kind": "lasso", "worlds": W, "loop": L, "reach": [d0, ...]}
#             | {"kind": "uniform", "worlds": W, "measure": m},
#    "valuations": [{"agent": "V", "letters": {"p": [0, 2]}}, ...]}
#
# A single-valuation model uses one entry with agent "V".
# ---------------------------------------------------------------------------


def frame_to_dict(frame: Frame) -> dict:
    if isinstance(frame, FiniteLassoFrame):
        return {"kind": "lasso", "worlds": frame.worlds, "loop": frame.loop, "reach": list(frame.reach)}
    return {"kind": "uniform", "worlds": frame.worlds, "measure": frame.measure}


def int_field(value, what: str) -> int:
    """An integer from JSON (an ``int``, never a ``bool`` or ``float``) or integer text; else a FrameError."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise FrameError(f"{what} must be an integer")


def frame_from_dict(data: Mapping) -> Frame:
    if not isinstance(data, Mapping):
        raise FrameError("a frame must be a JSON object")
    kind = data.get("kind")
    if kind == "lasso":
        if not isinstance(data["reach"], list):
            raise FrameError("reach must be a list of lengths")
        reach = tuple(int_field(d, "a reach length") for d in data["reach"])
        return FiniteLassoFrame(int_field(data["worlds"], "worlds"), int_field(data["loop"], "loop"), reach)
    if kind == "uniform":
        return UniformWindowFrame(int_field(data["worlds"], "worlds"), int_field(data["measure"], "measure"))
    raise FrameError(f"unknown frame kind {kind!r}")


def _valuation_to_entry(agent: str, v: Valuation) -> dict:
    return {"agent": agent, "letters": {name: sorted(ws) for name, ws in sorted(v.true_worlds.items())}}


def _valuation_from_entry(entry: Mapping) -> tuple[str, Valuation]:
    if not isinstance(entry, Mapping) or not isinstance(entry.get("letters"), Mapping):
        raise FrameError("a valuation entry must be a JSON object with a \"letters\" object")
    letters = {}
    for name, ws in entry["letters"].items():
        worlds = frozenset(int_field(a, "a world index") for a in ws) if isinstance(ws, list) else None
        if worlds is None or any(a < 0 for a in worlds):
            raise FrameError(f"worlds of letter {name!r} must be a list of non-negative indices")
        letters[name] = worlds
    return str(entry["agent"]), Valuation(letters)


def model_to_dict(model: Model | MultiAgentModel) -> dict:
    if isinstance(model, Model):
        entries = [_valuation_to_entry("V", model.valuation)]
    else:
        entries = [_valuation_to_entry(agent, v) for agent, v in model.valuations.items()]
    return {"frame": frame_to_dict(model.frame), "valuations": entries}


def model_from_dict(data: Mapping) -> Model | MultiAgentModel:
    if not isinstance(data, Mapping):
        raise FrameError("a model must be a JSON object")
    frame = frame_from_dict(data["frame"])
    entries = data.get("valuations", [])
    if not isinstance(entries, list):
        raise FrameError("valuations must be a list of entries")
    if not entries:
        raise FrameError("model file has no valuations")
    pairs = [_valuation_from_entry(e) for e in entries]
    if len(pairs) == 1:
        return Model(frame, pairs[0][1])
    names = [name for name, _ in pairs]
    if len(set(names)) != len(names):
        raise FrameError("duplicate agent names in model file")
    return MultiAgentModel(frame, dict(pairs))


class _JSONObject(dict):
    """A JSON object as :func:`read_json` decodes it: reading a missing key is a FrameError that names it."""

    def __missing__(self, key):
        raise FrameError(f"missing key {key!r}")


def read_json(fp: IO[str] | str):
    """The JSON value in a file path or text stream; nesting too deep to decode is a FrameError."""
    try:
        if isinstance(fp, str):
            with open(fp, encoding="utf-8") as handle:
                return json.load(handle, object_hook=_JSONObject)
        return json.load(fp, object_hook=_JSONObject)
    except RecursionError:
        raise FrameError("the JSON is nested too deeply to read") from None


def load_model(fp: IO[str] | str) -> Model | MultiAgentModel:
    return model_from_dict(read_json(fp))


def dump_model(model: Model | MultiAgentModel, fp: IO[str]) -> None:
    json.dump(model_to_dict(model), fp, sort_keys=True)
