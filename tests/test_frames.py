"""Frame invariants, windows, voting and the JSON model format."""

import io
import random

import pytest
from hypothesis import given, strategies as st

from itl import (
    FiniteLassoFrame,
    FrameError,
    Model,
    MultiAgentModel,
    UniformWindowFrame,
    Valuation,
    load_model,
    model_from_dict,
    model_to_dict,
    vote,
)
from itl.frames import dump_model, frame_from_dict, frame_to_dict


# --- frame construction ----------------------------------------------------


def test_uniform_frame_windows_clip_at_the_end():
    frame = UniformWindowFrame(4, 2)
    assert tuple(frame.window(0)) == (0, 1, 2)
    assert tuple(frame.window(3)) == (3,)
    assert frame.next_world(0) == 1


def test_lasso_frame_invariants_rejected():
    with pytest.raises(FrameError):
        FiniteLassoFrame(3, 3, (1, 1, 1))  # loop out of range
    with pytest.raises(FrameError):
        FiniteLassoFrame(3, 0, (1, 1))  # wrong reach length count
    with pytest.raises(FrameError):
        FiniteLassoFrame(3, 0, (2, 1, 1))  # shrinking reach
    with pytest.raises(FrameError):
        FiniteLassoFrame(3, 0, (0, 1, 1))  # reach below 1
    with pytest.raises(FrameError):
        FiniteLassoFrame(3, 0, (1, 2, 4))  # reach beyond frame size


@given(st.integers(2, 6), st.data())
def test_non_monotone_reach_always_rejected(worlds, data):
    reach = [data.draw(st.integers(1, worlds), label=f"d{i}") for i in range(worlds)]
    drop = data.draw(st.integers(0, worlds - 2), label="drop")
    reach[drop + 1] = data.draw(st.integers(1, max(1, reach[drop] - 1)), label="smaller")
    loop = data.draw(st.integers(0, worlds - 1), label="loop")
    if reach[drop + 1] >= reach[drop]:
        return  # could not make it shrink (d[drop] == 1)
    with pytest.raises(FrameError):
        FiniteLassoFrame(worlds, loop, tuple(reach))


def test_path_examples():
    frame = FiniteLassoFrame(3, 1, (1, 1, 1))
    assert frame.path(0, 0) == 0
    assert frame.path(2, 1) == 1
    assert frame.path(0, 4) == 2


def test_window_examples():
    assert FiniteLassoFrame(3, 1, (1, 1, 1)).window(0) == (0, 1)
    assert FiniteLassoFrame(3, 1, (1, 1, 2)).window(2) == (2, 1, 2)
    assert FiniteLassoFrame(4, 0, (2, 2, 2, 2)).window(3) == (3, 0, 1)


def test_window_shape_property():
    rng = random.Random(5)
    for _ in range(100):
        worlds = rng.randint(1, 6)
        cap = min(3, worlds)
        frame = FiniteLassoFrame(
            worlds, rng.randint(0, worlds - 1), tuple(sorted(rng.randint(1, cap) for _ in range(worlds)))
        )
        for a in range(worlds):
            win = frame.window(a)
            assert len(win) == frame.reach[a] + 1
            assert win[0] == a


# --- valuations and voting -------------------------------------------------


def test_model_rejects_out_of_range_valuation():
    with pytest.raises(FrameError):
        Model(FiniteLassoFrame(2, 0, (1, 1)), Valuation({"p": frozenset({5})}))


def test_vote_majority():
    frame = FiniteLassoFrame(2, 0, (1, 1))
    mam = MultiAgentModel(
        frame,
        {
            "a": Valuation({"p": frozenset({0})}),
            "b": Valuation({"p": frozenset({0})}),
            "c": Valuation({"p": frozenset()}),
        },
    )
    assert vote(mam).valuation.holds("p", 0)
    assert not vote(mam).valuation.holds("p", 1)


def test_vote_tie_is_false():
    frame = FiniteLassoFrame(1, 0, (1,))
    mam = MultiAgentModel(
        frame,
        {"a": Valuation({"p": frozenset({0})}), "b": Valuation({"p": frozenset()})},
    )
    assert not vote(mam).valuation.holds("p", 0)


def test_vote_single_agent_is_identity():
    frame = FiniteLassoFrame(3, 0, (1, 1, 1))
    val = Valuation({"p": frozenset({0, 2}), "q": frozenset({1})})
    voted = vote(MultiAgentModel(frame, {"a": val}))
    assert voted.valuation.true_worlds == val.true_worlds


def test_vote_idempotent_when_replicated():
    rng = random.Random(9)
    for _ in range(50):
        worlds = rng.randint(1, 5)
        frame = FiniteLassoFrame(worlds, 0, tuple([1] * worlds))
        vals = {
            f"a{i}": Valuation(
                {"p": frozenset(w for w in range(worlds) if rng.random() < 0.5)}
            )
            for i in range(rng.randint(1, 5))
        }
        voted = vote(MultiAgentModel(frame, vals))
        replicated = MultiAgentModel(frame, {f"c{i}": voted.valuation for i in range(3)})
        assert vote(replicated).valuation.true_worlds == voted.valuation.true_worlds


def _vote_every_world(mam):
    """Strict-majority vote counted at every world of the frame."""
    n = len(mam.valuations)
    letters = sorted({name for v in mam.valuations.values() for name in v.letters()})
    return {
        letter: frozenset(
            a for a in range(mam.frame.worlds) if sum(v.holds(letter, a) for v in mam.valuations.values()) * 2 > n
        )
        for letter in letters
    }


def test_vote_counting_listed_worlds_matches_counting_every_world():
    rng = random.Random(23)
    for _ in range(200):
        worlds = rng.randint(1, 6)
        frame = UniformWindowFrame(worlds, 1) if rng.random() < 0.5 else FiniteLassoFrame(worlds, 0, (1,) * worlds)
        density = rng.choice((0.1, 0.5, 0.9))
        vals = {
            f"a{i}": Valuation(
                {
                    name: frozenset(a for a in range(worlds) if rng.random() < density)
                    for name in ("p", "q", "r")
                    if rng.random() < 0.7
                }
            )
            for i in range(rng.randint(1, 5))
        }
        mam = MultiAgentModel(frame, vals)
        assert vote(mam).valuation.true_worlds == _vote_every_world(mam)


# --- JSON ------------------------------------------------------------------


def test_frame_json_round_trip():
    for frame in (FiniteLassoFrame(3, 1, (1, 2, 2)), UniformWindowFrame(4, 2)):
        assert frame_from_dict(frame_to_dict(frame)) == frame


def test_model_json_round_trip_single_valuation():
    model = Model(FiniteLassoFrame(3, 1, (1, 1, 2)), Valuation({"p": frozenset({0, 2})}))
    data = model_to_dict(model)
    assert data["valuations"][0]["agent"] == "V"
    assert model_from_dict(data) == model


def test_model_json_round_trip_multi_agent():
    frame = UniformWindowFrame(3, 1)
    mam = MultiAgentModel(
        frame,
        {"alice": Valuation({"p": frozenset({0})}), "bob": Valuation({"p": frozenset({1, 2})})},
    )
    again = model_from_dict(model_to_dict(mam))
    assert isinstance(again, MultiAgentModel)
    assert again.valuations["bob"].holds("p", 2)


def test_load_and_dump_model_stream():
    model = Model(FiniteLassoFrame(2, 0, (1, 1)), Valuation({"p": frozenset({1})}))
    buffer = io.StringIO()
    dump_model(model, buffer)
    buffer.seek(0)
    assert load_model(buffer) == model


def test_malformed_model_files_rejected():
    with pytest.raises(FrameError):
        model_from_dict({"frame": {"kind": "spiral", "worlds": 2}, "valuations": []})
    with pytest.raises(FrameError):
        model_from_dict({"frame": {"kind": "uniform", "worlds": 2, "measure": 1}, "valuations": []})
    bad = {
        "frame": {"kind": "lasso", "worlds": 2, "loop": 0, "reach": [2, 1]},
        "valuations": [{"agent": "V", "letters": {}}],
    }
    with pytest.raises(FrameError):
        model_from_dict(bad)
