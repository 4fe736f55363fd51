"""Packed batch engine: chunked scans agree with scalar brute force at every chunk size,
and a run of same-shape lasso frames evaluates like its frames one by one."""

import random

import numpy as np
import pytest

from itl import (
    FiniteLassoFrame,
    FrameError,
    Model,
    UniformWindowFrame,
    eval_nt,
    parse_formula,
    reach,
)
from itl.decide import iter_lasso_frames, iter_lasso_runs
from itl.limits import DEFAULT_CHUNK_BITS
from itl.syntax import letters_of
from itl.tables import BatchEvaluator, LassoRun, decode_valuation, scan_valuations, unpack

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


def _first_failure(frame, letters, f, every_world, codes=None):
    worlds = range(frame.worlds) if every_world else (0,)
    for code in range(1 << (len(letters) * frame.worlds)) if codes is None else codes:
        model = Model(frame, decode_valuation(code, letters, frame.worlds))
        if not all(eval_nt(model, a, f) for a in worlds):
            return code
    return None


def _submasks(mask):
    """Every code whose set bits lie in ``mask``, in increasing order."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def test_scan_matches_scalar_brute_force_at_every_chunk_size():
    partial_word_hits = later_chunk_high_bit_hits = deposited_hits = moved_hits = 0
    rng = random.Random(47)
    for frame, f, every_world in _scan_cases():
        letters = letters_of(f)
        n_bits = len(letters) * frame.worlds
        if every_world:
            mask = lambda ev, f=f: ~ev.everywhere(f)  # noqa: E731
        else:
            mask = lambda ev, f=f: ~ev.table(f)[0]  # noqa: E731
        expected = _first_failure(frame, letters, f, every_world)
        # a random read mask (a bit is read with odds 3/4): the oracle walks
        # the valuations whose unread bits are false, in code order
        reads = {name: rng.getrandbits(frame.worlds) | rng.getrandbits(frame.worlds) for name in letters}
        read_bits = sum(reads[name] << (i * frame.worlds) for i, name in enumerate(letters))
        expected_read = _first_failure(frame, letters, f, every_world, _submasks(read_bits))
        for chunk_bits in CHUNK_BITS:
            assert scan_valuations(frame, letters, mask, chunk_bits=chunk_bits) == expected, (frame, f, chunk_bits)
            got = scan_valuations(frame, letters, mask, chunk_bits=chunk_bits, reads=reads)
            assert got == expected_read, (frame, f, chunk_bits, reads)
        if expected is not None:
            partial_word_hits += n_bits < 6
            later_chunk_high_bit_hits += expected >= 128 and expected % 64 >= 6
        # a hit whose kept bits are not a prefix of the layout, and one the mask moved
        deposited_hits += expected_read not in (None, 0) and read_bits & (read_bits + 1) != 0
        moved_hits += expected_read not in (None, expected)
    assert partial_word_hits and later_chunk_high_bit_hits and deposited_hits and moved_hits


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


# --- runs of same-shape lasso frames ------------------------------------------


def _random_run(rng):
    worlds = rng.randint(1, 4)
    cap = min(3, worlds)
    reaches = [sorted(rng.randint(1, cap) for _ in range(worlds)) for _ in range(rng.randint(1, 6))]
    return LassoRun(worlds, reaches)


# Next and Until whose paths wrap through the loop edge
_WRAPPING = ("X X X p", "X (p U X q)", "(X p) U (X X q)", "!(p U q) & X (q U !p)")


def test_run_tables_equal_the_tables_of_each_frame():
    rng = random.Random(71)
    rows_seen, spans_seen = set(), 0
    for i in range(120):
        run = _random_run(rng)
        f = random_formula(rng, letters=rng.randint(1, 2), depth=3) if i % 3 else parse_formula(rng.choice(_WRAPPING))
        letters = letters_of(f) or ("p",)
        per_frame = 1 << (len(letters) * run.worlds)
        # the whole run, and a block of whole frames from a random first frame
        lo = rng.randrange(len(run))
        for first, last in ((0, len(run)), (lo, rng.randint(lo + 1, len(run)))):
            spans_seen += first // len(run.reaches) != (last - 1) // len(run.reaches)  # a block that spans loops
            ev = BatchEvaluator(run, letters, range(first * per_frame, last * per_frame))
            batch = ev.table(f)
            assert batch.shape[1] in (1, last - first), (run, f)  # one row for every frame, or one per frame
            rows_seen.add(batch.shape[1] > 1)
            by_frame = np.broadcast_to(batch, (run.worlds, last - first, batch.shape[2]))
            for j in range(first, last):
                alone = BatchEvaluator(run.frame(j), letters, range(per_frame)).table(f)
                assert alone.shape[1] == 1
                assert (unpack(by_frame[:, j - first], per_frame) == unpack(alone[:, 0], per_frame)).all(), (run, j, f)
    assert rows_seen == {False, True}  # the sample has widened and frame-free tables
    assert spans_seen > 20


def test_next_widens_only_on_blocks_that_span_loops():
    run = LassoRun(3, [(1, 1, 1), (1, 1, 2)])  # frames: loop 0 twice, then loop 1 twice, then loop 2 twice
    f = parse_formula("X X X p")
    assert BatchEvaluator(run, ("p",), range(0, 16)).table(f).shape == (3, 1, 1)  # loop 0 only
    assert BatchEvaluator(run, ("p",), range(32, 48)).table(f).shape == (3, 1, 1)  # loop 2 only
    assert BatchEvaluator(run, ("p",), range(8, 24)).table(f).shape == (3, 2, 1)  # one frame of loops 0 and 1
    assert BatchEvaluator(run, ("p",), range(0, 48)).table(parse_formula("p | true & !p")).shape == (3, 1, 1)  # no Next: one row


def test_evaluators_of_one_frame_share_its_until_walk():
    run = LassoRun(4, [(1, 1, 1, 1), (1, 1, 2, 2)])  # 3 letters: 4096 valuations a frame
    letters = ("p", "q", "r")
    first, again = BatchEvaluator(run, letters, range(4096, 6144)), BatchEvaluator(run, letters, range(6144, 8192))
    assert first.table(parse_formula("p U q")).shape == (4, 1, 32)
    assert first._block is again._block and "until_walk" in vars(again._block)  # built once, kept for the frame
    assert BatchEvaluator(run.frame(1), letters, range(0, 2048))._block is not first._block
    # a block of several frames is read by one scan, so each evaluator builds its own
    wide, wider = (BatchEvaluator(run, letters, range(0, 8192 * 2)) for _ in range(2))
    assert wide.table(parse_formula("p U q")).shape == (4, 4, 64)
    assert wide._block is not wider._block and "until_walk" not in vars(wider._block)


def test_only_an_until_the_frames_disagree_on_widens_a_table():
    # frames 0 and 1 differ only in the last world's reach (1 against 2)
    run = LassoRun(3, [(1, 1, 1), (1, 1, 2)])  # frames 0 and 1 have loop 0
    ev = BatchEvaluator(run, ("p", "q"), range(2 << 6))
    assert ev.frames == 2 and ev.words == 1
    for text in ("p", "true", "false", "!p & X q", "X X (p -> q) | !q"):
        assert ev.table(parse_formula(text)).shape == (3, 1, 1), text
    # the first step from every world is seen by both frames, the second only from world 2 of frame 1
    assert ev.table(parse_formula("p U q")).shape == (3, 2, 1)
    assert ev.table(parse_formula("X (p U q) & p")).shape == (3, 2, 1)
    # every frame of a one-frame block, and every frame of a run that agrees on reach, keeps one row
    alike = LassoRun(3, [(1, 1, 1), (1, 1, 1)])
    assert BatchEvaluator(alike, ("p", "q"), range(128)).table(parse_formula("p U q")).shape == (3, 1, 1)
    assert BatchEvaluator(run.frame(1), ("p", "q"), range(64)).table(parse_formula("p U q")).shape == (3, 1, 1)


@pytest.mark.parametrize("letters", [("p",), ("p", "q"), ("p", "q", "r")])
def test_scan_blocks_tile_every_run_in_frame_order(letters):
    frames = []
    for run in iter_lasso_runs(6, 4):
        n_bits = len(letters) * run.worlds
        blocks = []

        def record(ev):
            assert ev.words <= 1 << (DEFAULT_CHUNK_BITS - 6)
            blocks.append(ev.indices)
            return np.zeros(ev.words, dtype=np.uint64)

        assert scan_valuations(run, letters, record) is None
        assert blocks[0].start == 0 and blocks[-1].stop == len(run) << n_bits
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        covered = []
        for block in blocks:
            owners = range(block.start >> n_bits, ((block.stop - 1) >> n_bits) + 1)
            if len(owners) > 1:  # a block spanning frames holds whole frames
                assert block.start % (1 << n_bits) == 0 and block.stop % (1 << n_bits) == 0
            covered.extend(i for i in owners if not covered or i > covered[-1])
        assert covered == list(range(len(run)))
        frames.extend(run.frame(i) for i in range(len(run)))
    assert frames == list(iter_lasso_frames(6, 4))


def test_run_scan_returns_frame_major_codes():
    # the formula fails only at a world that sees two steps or more, so of
    # these frames, which differ in the last world's reach, frame 0 holds it
    run = LassoRun(3, [(1, 1, 1), (1, 1, 2), (1, 1, 3)])  # frames 0 to 2 have loop 0
    f = parse_formula("F p -> p | X p")
    mask = lambda ev: ~ev.everywhere(f)  # noqa: E731
    found = scan_valuations(run, ("p",), mask)
    assert found >> 3 == 1  # the first frame with reach 2 at the last world
    assert scan_valuations(run.frame(1), ("p",), mask) == found & 7
    assert scan_valuations(run.frame(0), ("p",), mask) is None


def test_malformed_runs_and_blocks_are_rejected():
    with pytest.raises(FrameError):
        LassoRun(2, [(2, 1)])  # reach shrinks
    with pytest.raises(FrameError):
        LassoRun(2, [(1, 3)])  # reach past the frame size
    with pytest.raises(FrameError):
        LassoRun(2, [])  # no reach vector
    with pytest.raises(FrameError):
        LassoRun(2, [(1, 1, 1)])
    run = LassoRun(4, [(1, 1, 1, 1), (1, 1, 2, 2)])  # 2 letters: 256 valuations a frame, 8 frames
    BatchEvaluator(run, ("p", "q"), range(0, 512))
    BatchEvaluator(run, ("p", "q"), range(192, 256))  # a chunk inside one frame
    with pytest.raises(ValueError):
        BatchEvaluator(run, ("p", "q"), range(192, 320))  # spans frames, but not whole ones
    with pytest.raises(ValueError):
        BatchEvaluator(run, ("p", "q"), range(1792, 2304))  # past the last frame


def test_read_masks_scan_only_the_read_bits_and_return_plain_codes():
    f = parse_formula("!p | !(q & X X X q)")
    frame = UniformWindowFrame(4, 3)
    mask = lambda ev: ~ev.table(f)[0]  # noqa: E731
    plain = scan_valuations(frame, ("p", "q"), mask)
    assert scan_valuations(frame, ("p", "q"), mask, reads={"p": 0b1111, "q": 0b1111}) == plain
    # f reads p@0, q@0 and q@3: three code bits, deposited at full bits 0, 4 and 7
    rows = []
    counting = lambda ev: rows.append(len(ev.indices)) or mask(ev)  # noqa: E731
    assert scan_valuations(frame, ("p", "q"), counting, reads={"p": 0b1, "q": 0b1001}) == plain == 0b10010001
    assert rows == [8]
    with pytest.raises(ValueError):
        scan_valuations(frame, ("p", "q"), mask, reads={"p": 0b10000})  # world 4 is past the window


def test_read_masks_keep_the_frame_major_numbering_of_a_run():
    run = LassoRun(3, [(1, 1, 1), (1, 1, 2), (1, 1, 3)])  # frames 0 to 2 have loop 0
    f = parse_formula("F p -> p | X p")
    mask = lambda ev: ~ev.everywhere(f)  # noqa: E731
    found = scan_valuations(run, ("p",), mask)
    # q is never read: three code bits a frame, six full bits a frame
    assert scan_valuations(run, ("p", "q"), mask, reads={"p": 0b111}) == (found >> 3 << 6) | (found & 7)
