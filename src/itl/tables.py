"""Bit-packed truth tables over blocks of valuations (internal engine).

A valuation over ``n`` letters and ``W`` worlds is encoded as an integer
code: letter ``i`` is true at world ``a`` in valuation ``v`` iff bit
``i*W + a`` of ``v`` is set.  The engine evaluates one frame, or a
:class:`~itl.frames.LassoRun` of lasso frames of one shape.

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
contiguous block of codes at once.  Its tables are ``(W, words)`` ``uint64``
arrays holding 64 valuations per word, frame-major along the word axis with
every frame padded to whole words.  With ``N >= 6`` code ``g`` is bit
``g % 64`` of global word ``g // 64``, so a frame fills ``2**(N-6)`` words
and a block's table starts at the global word of its first code.  With
``N < 6`` each frame is one word whose bit ``c`` holds the frame's valuation
``c``; its bits ``2**N`` and up are padding and hold unspecified values,
which whoever reads a table masks with the evaluator's ``valid`` word.

Because blocks start on a word boundary, a letter's row needs no
per-valuation work: an atom bit ``k < 6`` is the same periodic word
(``0xAAAA…``, ``0xCCCC…``, …) everywhere, and an atom bit ``k >= 6`` makes
word ``j`` all ones exactly when bit ``k - 6`` of the global word index is
set, which repeats the frame's pattern in every frame of a run.  Connectives
are word operations, and Next is ``t[succ]``, the same for every frame of a
run.  Until walks the path the run's windows share, ``path(a, s)``, and ORs
in step ``s`` only where the frame owning the word sees at least ``s`` steps
from ``a``: it skips the worlds no frame of the block sees that far from (on
a uniform frame, the rows past the window cutoff, so the gate is constant
per row) and ANDs a per-frame gate word where the block's frames differ.
:func:`scan_valuations` drives a full enumeration and returns the first
code some caller-made predicate flags.  Enumeration order is the plain
binary order of the codes, frame by frame, which is what makes search
results reproducible.
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

Frames = Union[Frame, LassoRun]


@lru_cache(maxsize=64)  # every block of a scan, and every decide of one window size, asks again
def _shape(frame: Frames) -> tuple[np.ndarray, np.ndarray]:
    """Successor of every world, and reach lengths with one row per frame."""
    worlds = frame.worlds
    if isinstance(frame, UniformWindowFrame):
        succ = [*range(1, worlds), worlds - 1]  # last row is guard zone
        reaches = [[min(frame.measure, worlds - 1 - a) for a in range(worlds)]]
    else:
        succ = [*range(1, worlds), frame.loop]
        reaches = frame.reaches if isinstance(frame, LassoRun) else [frame.reach]
    succ, reaches = np.array(succ), np.asarray(reaches)
    succ.flags.writeable = reaches.flags.writeable = False  # shared through the cache
    return succ, reaches


class BatchEvaluator:
    """Packed truth tables for one frame or run and one block of valuation codes.

    ``frame`` is a frame or a :class:`~itl.frames.LassoRun`, and ``indices``
    a contiguous ``range`` of its codes over the bits ``kept`` (every bit
    when None) in the frame-major numbering of the module docstring.  The
    block starts on a word boundary: a multiple of 64, or of the frame's
    ``2**N`` valuations when a frame has fewer than 64.  ``table(f)[a]`` is
    the packed truth of ``f`` at world ``a``, and ``valid`` the word whose
    set bits are the valuations rather than padding.

    On uniform frames the rows past a formula's window guarantee hold
    unspecified values; callers must only read rows ``a`` with
    ``a + reach(f) <= worlds - 1`` (the decision procedures read row 0 of
    a frame sized to fit).
    """

    def __init__(self, frame: Frames, letters: Sequence[str], indices: range, kept: Optional[Sequence[int]] = None):
        if not isinstance(indices, range) or indices.step != 1:
            raise TypeError("indices must be a contiguous range of valuation codes")
        self.frame = frame
        self.letters = tuple(letters)
        self.indices = indices
        self.worlds = frame.worlds
        full_bits = len(self.letters) * self.worlds
        kept = kept if kept is not None else range(full_bits)  # None keeps every bit
        if list(kept) != sorted(set(kept)) or (kept and not 0 <= kept[0] <= kept[-1] < full_bits):
            raise ValueError(f"kept must be increasing bits below {full_bits}")
        self._code_bit = dict(zip(kept, range(len(kept))))
        n_bits = len(kept)
        shift = min(n_bits, 6)  # log2 of the codes one word holds
        self.valid = _ONES if n_bits >= 6 else np.uint64((1 << (1 << n_bits)) - 1)
        if indices.start % (1 << shift):
            raise ValueError(f"a block must start at a multiple of {1 << shift}, not {indices.start}")
        self._succ, reaches = _shape(frame)
        if indices.stop > len(reaches) << n_bits:
            raise ValueError(f"block ends at code {indices.stop}, past the last frame")
        self.words = -(-len(indices) >> shift)
        self._pos = {name: i for i, name in enumerate(self.letters)}
        first_word = indices.start >> shift
        self._word_index = np.arange(first_word, first_word + self.words, dtype=np.uint64)
        # A block lies inside one frame or holds whole frames; _reach is
        # (worlds, frames in the block, 1), the reach lengths Until gates on.
        lo, hi = indices.start >> n_bits, -(-indices.stop >> n_bits)
        if hi - lo > 1 and (indices.start | indices.stop) & ((1 << n_bits) - 1):
            raise ValueError("a block that spans frames must hold whole frames")
        self._reach = reaches[lo:hi].T[:, :, None]
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
            t = np.full((self.worlds, self.words), _ONES)
        elif isinstance(f, FalseBool):
            t = np.zeros((self.worlds, self.words), dtype=np.uint64)
        elif isinstance(f, Not):
            t = ~self.table(f.arg)
        elif isinstance(f, And):
            t = self.table(f.left) & self.table(f.right)
        elif isinstance(f, Or):
            t = self.table(f.left) | self.table(f.right)
        elif isinstance(f, Implies):
            t = ~self.table(f.left) | self.table(f.right)
        elif isinstance(f, Next):
            t = self.table(f.arg)[self._succ]
        elif isinstance(f, Until):
            t = self._until(self.table(f.left), self.table(f.right))
        else:
            raise TypeError(f"not a formula: {f!r}")
        self._memo[key] = t
        self._pinned.append(f)
        return t

    def everywhere(self, f: Formula) -> np.ndarray:
        """Packed vector: ``f`` holds at every world."""
        return np.bitwise_and.reduce(self.table(f), axis=0)

    def _letter(self, name: str) -> np.ndarray:
        i = self._pos[name]  # missing letter = caller bug: batch letters must cover the formula
        rows = np.zeros((self.worlds, self.words), dtype=np.uint64)  # false at every unkept bit
        for a in range(self.worlds):
            k = self._code_bit.get(i * self.worlds + a)
            if k is not None:
                rows[a] = _LOW_MASKS[k] if k < 6 else -((self._word_index >> np.uint64(k - 6)) & np.uint64(1))
        return rows

    @cached_property
    def _until_steps(self) -> list[tuple[slice, np.ndarray, Optional[np.ndarray]]]:
        """Per step ``s >= 1``: the worlds some frame sees ``s`` steps from, ``path(a, s)`` there, and the gate.

        The worlds are a slice, a prefix on a uniform frame and a suffix on
        lasso frames, and shrink as ``s`` grows.  The gate holds, per world
        of the slice and per frame of the block, the word "reach at ``a`` >=
        ``s``"; it is None where every frame passes, as on a single frame.
        """
        steps = []
        path = np.arange(self.worlds)
        for s in range(1, int(self._reach.max()) + 1):
            path = self._succ[path]
            sees = self._reach >= s
            active = np.flatnonzero(sees.any(axis=(1, 2)))
            rows = slice(int(active[0]), int(active[-1]) + 1)
            gate = None if sees[rows].all() else np.where(sees[rows], _ONES, np.uint64(0))
            steps.append((rows, path[rows], gate))
        return steps

    def _until(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        res = right.copy()
        pref = left.copy()
        for rows, path, gate in self._until_steps:
            step = pref[rows] & right[path]
            if gate is not None:
                by_frame = step.reshape(gate.shape[:2] + (-1,))  # a view: one row of words per frame
                by_frame &= gate
            res[rows] |= step
            pref[rows] &= left[path]
        return res


FailMask = Callable[[BatchEvaluator], np.ndarray]


def unpack(packed: np.ndarray, count: int) -> np.ndarray:
    """Boolean array of the first ``count`` valuations of packed rows (last axis)."""
    as_bytes = np.ascontiguousarray(packed, dtype="<u8").view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1, count=count, bitorder="little").astype(bool)


def pack(bits: np.ndarray) -> np.ndarray:
    """Inverse of :func:`unpack` for one Boolean vector: 64 valuations per word."""
    words = -(-len(bits) // WORD_BITS)
    as_bytes = np.packbits(bits, bitorder="little")
    return np.pad(as_bytes, (0, 8 * words - len(as_bytes))).view("<u8").astype(np.uint64)


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
    over its words.  A block holds whole frames up to ``2**chunk_bits``
    valuations (at least one word, padding counted); a frame larger than
    that is cut into word-aligned chunks.

    With ``reads``, bit ``a`` of ``reads[name]`` says the predicate reads
    ``name`` at world ``a``: only those bits are enumerated, every other
    letter bit stays false, and the result is still a full-layout code
    (module docstring).
    """
    full_bits = len(letters) * frame.worlds
    kept = range(full_bits) if reads is None else _kept_bits(letters, frame.worlds, reads)
    n_bits = len(kept)
    shift = min(n_bits, 6)
    total = len(_shape(frame)[1]) << n_bits
    step = 1 << (max(chunk_bits, 6) - 6 + shift)
    for start in range(0, total, step):
        ev = BatchEvaluator(frame, letters, range(start, min(start + step, total)), kept)
        hits = fail_mask(ev) & ev.valid
        nonzero = np.flatnonzero(hits)
        if nonzero.size:
            j = int(nonzero[0])
            word = int(hits[j])
            found = start + (j << shift) + (word & -word).bit_length() - 1
            deposited = sum(1 << bit for k, bit in enumerate(kept) if found >> k & 1)
            return (found >> n_bits << full_bits) | deposited
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
