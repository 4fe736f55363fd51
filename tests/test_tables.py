"""Packed batch engine: chunked scans agree with scalar brute force at every chunk size."""

import random

import numpy as np
import pytest

from itl import (
    FiniteLassoFrame,
    Model,
    UniformWindowFrame,
    eval_nt,
    parse_formula,
    reach,
)
from itl.syntax import letters_of
from itl.tables import BatchEvaluator, decode_valuation, scan_valuations

from helpers import random_formula, random_lasso_frame

CHUNK_BITS = (0, 1, 3, 6, 7, 16)


def _scan_cases():
    """(frame, formula, check every world?) triples; uniform frames check world 0 only."""
    rng = random.Random(43)
    for _ in range(30):
        frame = random_lasso_frame(rng, max_worlds=4, max_reach=3)
        yield frame, random_formula(rng, letters=rng.randint(1, 2), depth=3), True
    for _ in range(30):
        m = rng.randint(1, 3)
        f = random_formula(rng, letters=rng.randint(1, 2), depth=3)
        yield UniformWindowFrame(reach(f, m) + 1, m), f, False
    # first failures at fixed places: inside a partial word, and at bit >= 6
    # of a word in a later chunk
    yield UniformWindowFrame(3, 2), parse_formula("!(p & X p & X X p)"), False  # code 7 of 8
    yield UniformWindowFrame(4, 3), parse_formula("!p | !(q & X X X q)"), False  # code 145 of 256
    yield FiniteLassoFrame(5, 2, (1, 1, 2, 2, 3)), parse_formula("p | !(q & X q)"), True  # code 96 of 1024


def _first_failure(frame, letters, f, every_world):
    worlds = range(frame.worlds) if every_world else (0,)
    for code in range(1 << (len(letters) * frame.worlds)):
        model = Model(frame, decode_valuation(code, letters, frame.worlds))
        if not all(eval_nt(model, a, f) for a in worlds):
            return code
    return None


def test_scan_matches_scalar_brute_force_at_every_chunk_size():
    partial_word_hits = later_chunk_high_bit_hits = 0
    for frame, f, every_world in _scan_cases():
        letters = letters_of(f)
        n_bits = len(letters) * frame.worlds
        if every_world:
            mask = lambda ev, f=f: ~ev.everywhere(f)  # noqa: E731
        else:
            mask = lambda ev, f=f: ~ev.table(f)[0]  # noqa: E731
        expected = _first_failure(frame, letters, f, every_world)
        for chunk_bits in CHUNK_BITS:
            assert scan_valuations(frame, letters, mask, chunk_bits=chunk_bits) == expected, (frame, f, chunk_bits)
        if expected is not None:
            partial_word_hits += n_bits < 6
            later_chunk_high_bit_hits += expected >= 128 and expected % 64 >= 6
    assert partial_word_hits and later_chunk_high_bit_hits


def test_small_chunks_keep_the_verdict():
    # the frame and mask decide_uniform_theorem scans for this formula at m=2
    f = parse_formula("!(p & X p & X X p)")
    frame = UniformWindowFrame(reach(f, 2) + 1, 2)
    for chunk_bits in CHUNK_BITS:
        assert scan_valuations(frame, ("p",), lambda ev: ~ev.table(f)[0], chunk_bits=chunk_bits) is not None


def test_block_must_start_on_a_word_boundary():
    frame = UniformWindowFrame(4, 3)
    BatchEvaluator(frame, ("p", "q"), range(64, 128))
    with pytest.raises(ValueError):
        BatchEvaluator(frame, ("p", "q"), range(1, 65))


def test_bits_past_a_short_block_are_ignored():
    # 3 valuation bits: one word whose bits 8..63 lie past the block
    frame = UniformWindowFrame(3, 2)
    past_end = lambda ev: np.full(ev.words, np.uint64(0xFFFF_FFFF_FFFF_FF00))  # noqa: E731
    assert scan_valuations(frame, ("p",), past_end) is None
