"""Bit-packed truth tables over blocks of valuations (internal engine).

A valuation over ``n`` letters and ``W`` worlds is encoded as an integer
code: letter ``i`` is true at world ``a`` in valuation ``v`` iff bit
``i*W + a`` of ``v`` is set.  The engine evaluates one frame, or a
:class:`~itl.frames.LassoRun` of lasso frames of one size.

Inside the engine a valuation is a code over a strictly increasing list
``kept`` of these full-layout bits, every bit by default (``range(n*W)``):
with ``N = len(kept)``, code bit ``k`` stands for full bit ``kept[k]``, and a
letter is false at every world whose bit is not kept.  The codes of a run
are numbered frame-major: code ``g`` is valuation ``g mod 2**N`` of frame
``g >> N``.  :func:`scan_valuations` keeps the bits its read masks mark
(like those of :func:`~itl.syntax.read_set`) and deposits each bit ``k`` of
its first hit at ``kept[k]``, which keeps the order of codes, so it returns
the first full-layout code that hits with every unkept bit clear.

:class:`BatchEvaluator` evaluates a formula on every valuation of a
contiguous block of codes at once.  A block lies inside one frame or holds
``F`` whole frames, and its tables are ``(W, 1 or F, words)`` ``uint64``
arrays: per world, one row of packed words per frame, 64 valuations per
word, every frame padded to whole words.  With ``N >= 6`` a
frame fills ``2**(N-6)`` words and its valuation ``c`` is bit ``c % 64`` of
its word ``c // 64``; a block inside one frame holds the words of its codes.
With ``N < 6`` a frame is one word whose bit ``c`` holds valuation ``c``;
its bits ``2**N`` and up are padding and hold unspecified values, which
whoever reads a table masks with the evaluator's ``valid`` word.

The frame axis is materialised only where the frames of a block disagree.
The frames of a run share their worlds.  Those with one loop target share
Next and the path of every window, and differ only in how far each world
sees, which only Until reads.  The engine keeps one successor row per loop
target.  Letter, True and False tables, and every connective over tables of
one frame row, keep one frame row, and numpy broadcasting lines them up with
tables of ``F`` rows.  On a block whose frames share their loop, Next keeps
one row too, and Until widens its result to ``F`` rows only when some step
of its walk is gated, that is when the block's frames disagree on the reach
of the worlds that step starts from.  On a block that spans loop targets,
Next and Until follow a path per frame, so they widen to ``F`` rows.  A hit
vector of one frame row says the same of every frame of the block, so its
first hit lies in the block's first frame, and that is also its first hit in
frame-major code order: a scan returns the same code whether or not a table
was widened.

Because blocks start on a word boundary, a letter's row needs no
per-valuation work: an atom bit ``k < 6`` is the same periodic word
(``0xAAAA…``, ``0xCCCC…``, …) everywhere, and an atom bit ``k >= 6`` makes
word ``j`` of a frame all ones exactly when bit ``k - 6`` of ``j`` is set.
So every block of whole frames has the same letter rows, and a scan builds
them once.  Connectives are word operations, and Next is ``t[succ]`` on a
block of one loop target, a gather per frame otherwise.  Until walks the
window paths, ``path(a, s)``, and ORs in step ``s`` only where the frame sees
at least ``s`` steps from ``a``: it skips the worlds no frame of the block
sees that far from (on a uniform frame, the rows past the window cutoff, so
the gate is constant per row) and ANDs a per-frame gate where the block's
frames differ.  A block's successors and walk depend only on the frame or
run and on the block's first and last frame.  The blocks of one frame are
asked for again and again, by every chunk of a frame larger than a chunk
and by every decide on one window size, so they are kept in a bounded
cache; a block of several frames is read by one scan, and its evaluator
builds it.  :func:`scan_valuations` drives a full enumeration and
returns the first code some caller-made predicate flags.  Enumeration order
is the plain binary order of the codes, frame by frame, which is what makes
search results reproducible.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .frames import Frame, LassoRun, UniformWindowFrame, Valuation
from .limits import DEFAULT_CHUNK_BITS
from .syntax import And, FalseBool, Formula, Implies, Letter, Next, Not, Or, TrueBool, Until

WORD_BITS = 64
_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
# Word of atom bit k < 6: bit b is set iff bit k of b is set.
_LOW_MASKS = tuple(
    np.uint64(sum(1 << b for b in range(WORD_BITS) if (b >> k) & 1)) for k in range(6)
)

# The valid word of a frame of 2**N < 64 valuations.
_SHORT_VALID = tuple(np.uint64((1 << (1 << n)) - 1) for n in range(6))

Frames = Union[Frame, LassoRun]


@lru_cache(maxsize=64)  # every scan of a run or of one window size asks again
def _shape(frame: Frames) -> tuple[np.ndarray, np.ndarray]:
    """Successor of every world with one row per loop target, and reach lengths with one row per reach vector."""
    worlds = frame.worlds
    if isinstance(frame, UniformWindowFrame):
        succ = [[*range(1, worlds), worlds - 1]]  # last row is guard zone
        reaches = [[min(frame.measure, worlds - 1 - a) for a in range(worlds)]]
    else:
        loops = range(worlds) if isinstance(frame, LassoRun) else (frame.loop,)
        succ = [[*range(1, worlds), loop] for loop in loops]
        reaches = frame.reaches if isinstance(frame, LassoRun) else [frame.reach]
    succ, reaches = np.array(succ), np.asarray(reaches)
    succ.flags.writeable = reaches.flags.writeable = False  # shared through the cache
    return succ, reaches


class _Block:
    """Next's successors and the Until walk of frames ``lo`` to ``hi - 1`` of one frame or run.

    ``succ`` is Next's successor of every world: one row when the block's
    frames share their loop target, else a ``(worlds, frames)`` array with a
    column per frame.  ``reach`` holds the reach lengths Until gates on,
    ``(worlds, frames, 1)``.
    """

    def __init__(self, frame: Frames, lo: int, hi: int):
        succ, reaches = _shape(frame)
        frames = np.arange(lo, hi)
        loops = frames // len(reaches)  # a run numbers its frames loop by loop
        self.shared = bool(loops[0] == loops[-1])
        self.succ = succ[loops[0]] if self.shared else succ[loops].T
        self.reach = reaches[frames % len(reaches)].T[:, :, None]
        self.columns = np.arange(hi - lo)

    @cached_property
    def until_walk(self) -> tuple[int, list[tuple[slice, np.ndarray, Optional[np.ndarray]]]]:
        """The frame rows an Until table needs, and per step ``s >= 1`` its worlds, ``path(a, s)`` and gate.

        The worlds of a step are those some frame sees ``s`` steps from: a
        slice, a prefix on a uniform frame and a suffix on lasso frames, that
        shrinks as ``s`` grows.  The path has a column per frame where the
        frames differ in their loop.  The gate holds, per world of the slice
        and per frame of the block, the word "reach at ``a`` >= ``s``"; it is
        None where every frame passes, as on a single frame.  An Until table
        needs one row per frame when its paths or some gate differ between
        frames, else one row.
        """
        worlds, frames = self.reach.shape[:2]
        # per world, how far the farthest- and the least-seeing frame of the block see
        most, least = self.reach.max(axis=1).ravel().tolist(), self.reach.min(axis=1).ravel().tolist()
        steps = []
        path = np.arange(worlds) if self.shared else np.repeat(np.arange(worlds)[:, None], frames, axis=1)
        for s in range(1, max(most) + 1):
            path = self.succ[path] if self.shared else self.succ[path, self.columns]
            active = [a for a in range(worlds) if most[a] >= s]
            rows = slice(active[0], active[-1] + 1)
            seen = all(d >= s for d in least[rows])
            gate = None if seen else np.where(self.reach[rows] >= s, _ONES, np.uint64(0))
            steps.append((rows, path[rows], gate))
        gated = any(gate is not None for _, _, gate in steps)
        return (1 if self.shared and not gated else frames), steps


def _block(frame: Frames, lo: int, hi: int) -> _Block:
    """The block of frames ``lo`` to ``hi - 1``: a one-frame block from a bounded cache, a wider one new."""
    return _frame_block(frame, lo) if hi - lo == 1 else _Block(frame, lo, hi)


@lru_cache(maxsize=64)  # every chunk of one frame, and every decide on one window size, asks again
def _frame_block(frame: Frames, i: int) -> _Block:
    return _Block(frame, i, i + 1)


class _Layout:
    """What the blocks of one scan share: the kept bits, where each letter's bits sit, and letter rows.

    ``kept`` is an increasing list of full-layout bits, as
    :func:`_kept_bits` builds it, or None for every bit.  ``code_bit`` maps
    a kept bit to its code bit, and is None when every bit is kept.
    ``frame_rows`` caches the letter rows of blocks that start a frame; in
    one scan those blocks all have the same rows (module docstring), so
    they are built once per name.
    """

    def __init__(self, frame: Frames, letters: Sequence[str], kept: Optional[list[int]] = None):
        if kept is None:
            self.kept, self.code_bit = range(len(letters) * frame.worlds), None
        else:
            self.kept, self.code_bit = kept, dict(zip(kept, range(len(kept))))
        self.n_bits = len(self.kept)
        self.shift = min(self.n_bits, 6)  # log2 of the codes one word holds
        self.valid = _ONES if self.n_bits >= 6 else _SHORT_VALID[self.n_bits]
        self.position = {name: i for i, name in enumerate(letters)}
        self.frame_count = len(frame) if isinstance(frame, LassoRun) else 1
        self.frame_rows: dict[str, np.ndarray] = {}


class BatchEvaluator:
    """Packed truth tables for one frame or run and one block of valuation codes.

    ``frame`` is a frame or a :class:`~itl.frames.LassoRun`, and ``indices``
    a contiguous ``range`` of its codes over the kept bits of ``layout``
    (every bit when None; :func:`scan_valuations` passes the layout of its
    scan) in the frame-major numbering of the module docstring.  The
    block starts on a word boundary: a multiple of 64, or of the frame's
    ``2**N`` valuations when a frame has fewer than 64.  ``table(f)[a]`` is
    the packed truth of ``f`` at world ``a``, one row of ``words`` words for
    each of the block's ``frames`` frames or a single row that holds for all
    of them; ``valid`` is the word whose set bits are the valuations rather
    than padding.

    On uniform frames the rows past a formula's window guarantee hold
    unspecified values; callers must only read rows ``a`` with
    ``a + reach(f) <= worlds - 1`` (the decision procedures read row 0 of
    a frame sized to fit).
    """

    def __init__(self, frame: Frames, letters: Sequence[str], indices: range, layout: Optional[_Layout] = None):
        if not isinstance(indices, range) or indices.step != 1:
            raise TypeError("indices must be a contiguous range of valuation codes")
        layout = _Layout(frame, letters) if layout is None else layout
        self.frame = frame
        self.letters = tuple(letters)
        self.indices = indices
        self.worlds = frame.worlds
        self.valid = layout.valid
        self._layout = layout
        n_bits, shift = layout.n_bits, layout.shift
        if indices.start % (1 << shift):
            raise ValueError(f"a block must start at a multiple of {1 << shift}, not {indices.start}")
        if indices.stop > layout.frame_count << n_bits:
            raise ValueError(f"block ends at code {indices.stop}, past the last frame")
        # A block lies inside one frame or holds whole frames.
        lo, hi = indices.start >> n_bits, -(-indices.stop >> n_bits)
        if hi - lo > 1 and (indices.start | indices.stop) & ((1 << n_bits) - 1):
            raise ValueError("a block that spans frames must hold whole frames")
        self.frames = max(hi - lo, 1)
        self.words = -(-len(indices) >> shift) // self.frames
        self._first_word = (indices.start & ((1 << n_bits) - 1)) >> shift  # the block's first word in its frame
        self._block = _block(frame, lo, hi)
        self._memo: dict[int, np.ndarray] = {}
        self._pinned: list[Formula] = []  # keeps ids in _memo from being recycled

    def table(self, f: Formula) -> np.ndarray:
        key = id(f)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if isinstance(f, Letter):
            t = self._letter(f.name)
        elif isinstance(f, TrueBool):
            t = np.full((self.worlds, 1, self.words), _ONES)
        elif isinstance(f, FalseBool):
            t = np.zeros((self.worlds, 1, self.words), dtype=np.uint64)
        elif isinstance(f, Not):
            t = ~self.table(f.arg)
        elif isinstance(f, And):
            t = self.table(f.left) & self.table(f.right)
        elif isinstance(f, Or):
            t = self.table(f.left) | self.table(f.right)
        elif isinstance(f, Implies):
            t = ~self.table(f.left) | self.table(f.right)
        elif isinstance(f, Next):
            t = self._at(self.table(f.arg), self._block.succ)
        elif isinstance(f, Until):
            t = self._until(self.table(f.left), self.table(f.right))
        else:
            raise TypeError(f"not a formula: {f!r}")
        self._memo[key] = t
        self._pinned.append(f)
        return t

    def forget(self, f: Formula) -> None:
        """Drop the table of ``f`` and its pin, not those of its subformulas; asking for it again rebuilds it.

        The pin is looked up from the newest, where a table built last sits.
        """
        if self._memo.pop(id(f), None) is not None:
            pins = self._pinned
            i = len(pins) - 1
            while pins[i] is not f:
                i -= 1
            del pins[i]

    def everywhere(self, f: Formula) -> np.ndarray:
        """Packed vector per frame row: ``f`` holds at every world."""
        return np.bitwise_and.reduce(self.table(f), axis=0)

    def _letter(self, name: str) -> np.ndarray:
        layout = self._layout
        cache = layout.frame_rows if self._first_word == 0 else {}
        rows = cache.get(name)
        if rows is None:
            # a missing letter is a caller bug: batch letters must cover the formula
            first = layout.position[name] * self.worlds
            rows = np.zeros((self.worlds, 1, self.words), dtype=np.uint64)  # false at every unkept bit
            word_index = np.arange(self._first_word, self._first_word + self.words, dtype=np.uint64)
            for a in range(self.worlds):
                k = first + a if layout.code_bit is None else layout.code_bit.get(first + a)
                if k is not None:
                    rows[a] = _LOW_MASKS[k] if k < 6 else -((word_index >> np.uint64(k - 6)) & np.uint64(1))
            rows.flags.writeable = False  # shared by the blocks of a scan
            cache[name] = rows
        return rows

    def _at(self, t: np.ndarray, path: np.ndarray) -> np.ndarray:
        """Rows of ``t`` at the worlds ``path``: one path for every frame, or a column per frame of the block."""
        if path.ndim == 1:
            return t[path]
        return t[path, self._block.columns] if t.shape[1] > 1 else t[:, 0][path]

    def _until(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        block = self._block
        least, steps = block.until_walk
        frames = max(least, left.shape[1], right.shape[1])
        res = right.copy() if right.shape[1] == frames else np.repeat(right, frames, axis=1)
        # per-frame paths give every frame its own prefix
        pref = left.copy() if block.shared or left.shape[1] == frames else np.repeat(left, frames, axis=1)
        for rows, path, gate in steps:
            step = pref[rows] & self._at(right, path)
            if gate is not None:
                step = step & gate  # one frame row becomes one per frame of the block
            res[rows] |= step
            pref[rows] &= self._at(left, path)
        return res


FailMask = Callable[[BatchEvaluator], np.ndarray]


def unpack(packed: np.ndarray, count: int) -> np.ndarray:
    """Boolean array of the first ``count`` valuations of packed rows (last axis)."""
    as_bytes = np.ascontiguousarray(packed, dtype="<u8").view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1, count=count, bitorder="little").astype(bool)


def pack(bits: np.ndarray) -> np.ndarray:
    """Inverse of :func:`unpack` along the last axis, a whole number of words long: 64 valuations per word."""
    return np.packbits(bits, axis=-1, bitorder="little").view("<u8").astype(np.uint64)


def scan_valuations(
    frame: Frames,
    letters: Sequence[str],
    fail_mask: FailMask,
    *,
    chunk_bits: int = DEFAULT_CHUNK_BITS,
    reads: Optional[Mapping[str, int]] = None,
) -> Optional[int]:
    """First valuation code flagged by ``fail_mask``, or None.

    Scans every valuation of every frame of ``frame`` (a frame or a
    :class:`~itl.frames.LassoRun`) in code order, so for a run the result
    ``g`` is valuation ``g mod 2**N`` of frame ``g >> N``, ``N`` being
    ``len(letters) * frame.worlds``.  ``fail_mask`` receives a
    :class:`BatchEvaluator` for one block and returns a packed hit vector
    over its words, one row per frame of the block or one row for all of
    them.  A block holds whole frames up to ``2**chunk_bits`` valuations (at
    least one word, padding counted); a frame larger than that is cut into
    word-aligned chunks.

    With ``reads``, bit ``a`` of ``reads[name]`` says the predicate reads
    ``name`` at world ``a``: only those bits are enumerated, every other
    letter bit stays false, and the result is still a full-layout code
    (module docstring).
    """
    full_bits = len(letters) * frame.worlds
    layout = _Layout(frame, letters, None if reads is None else _kept_bits(letters, frame.worlds, reads))
    n_bits, shift = layout.n_bits, layout.shift
    total = layout.frame_count << n_bits
    step = 1 << (max(chunk_bits, 6) - 6 + shift)
    for start in range(0, total, step):
        ev = BatchEvaluator(frame, letters, range(start, min(start + step, total)), layout)
        hits = np.ravel(fail_mask(ev) & layout.valid)  # frame-major; one row stands for every frame
        nonzero = np.flatnonzero(hits)
        if nonzero.size:
            j = int(nonzero[0])
            word = int(hits[j])
            found = start + (j << shift) + (word & -word).bit_length() - 1
            code = found & ((1 << n_bits) - 1)
            if reads is not None:
                code = sum(1 << bit for k, bit in enumerate(layout.kept) if code >> k & 1)
            return (found >> n_bits << full_bits) | code
    return None


def _kept_bits(letters: Sequence[str], worlds: int, reads: Mapping[str, int]) -> list[int]:
    """The full-layout bits ``i*W + a`` of the (letter, world) pairs ``reads`` marks, in order."""
    if any(mask >> worlds for mask in reads.values()):
        raise ValueError(f"read masks must mark worlds below {worlds}")
    return [i * worlds + a for i, name in enumerate(letters) for a in range(worlds) if reads.get(name, 0) >> a & 1]


def decode_valuation(code: int, letters: Sequence[str], worlds: int) -> Valuation:
    """Valuation encoded by the full-layout ``code``; bits from ``len(letters) * worlds`` up are ignored."""
    true_worlds = {
        name: frozenset(a for a in range(worlds) if (code >> (i * worlds + a)) & 1)
        for i, name in enumerate(letters)
    }
    return Valuation(true_worlds)
