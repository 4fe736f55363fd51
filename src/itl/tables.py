"""Bit-packed truth tables over blocks of valuations (internal engine).

A valuation over ``n`` letters and ``W`` worlds is encoded as an integer
code: letter ``i`` is true at world ``a`` in valuation ``v`` iff bit
``i*W + a`` of ``v`` is set.  :class:`BatchEvaluator` evaluates a formula on
every valuation of a contiguous block of codes at once.  Its tables are
``(W, words)`` ``uint64`` arrays holding 64 valuations per word: valuation
``start + 64*j + b`` of the block is bit ``b`` of word ``j``, where ``start``
is a multiple of 64.  Bits past the block's end (only the last word of a
block shorter than 64 valuations has any) hold unspecified values; whoever
reads a table masks them.

Because the block starts on a word boundary, a letter's row needs no
per-valuation work: an atom bit ``k < 6`` is the same periodic word
(``0xAAAA…``, ``0xCCCC…``, …) everywhere, and an atom bit ``k >= 6`` makes
word ``j`` all ones exactly when bit ``k - 6`` of the global word index is
set.  Connectives are word operations.  :func:`scan_valuations` drives a
full enumeration in chunks and returns the first valuation code some
caller-made predicate flags.  Enumeration order is the plain binary order of
the codes, which is what makes search results reproducible.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .frames import FiniteLassoFrame, Frame, Valuation
from .limits import DEFAULT_CHUNK_BITS
from .syntax import And, FalseBool, Formula, Implies, Letter, Next, Not, Or, TrueBool, Until

WORD_BITS = 64
_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
# Word of atom bit k < 6: bit b is set iff bit k of b is set.
_LOW_MASKS = tuple(
    np.uint64(sum(1 << b for b in range(WORD_BITS) if (b >> k) & 1)) for k in range(6)
)


class BatchEvaluator:
    """Packed truth tables for one frame and one block of valuation codes.

    ``indices`` is a contiguous ``range`` of codes whose start is a multiple
    of 64.  ``table(f)[a]`` is the packed truth of ``f`` at world ``a``.

    On uniform frames the rows past a formula's window guarantee hold
    unspecified values; callers must only read rows ``a`` with
    ``a + reach(f) <= worlds - 1`` (the decision procedures read row 0 of
    a frame sized to fit).
    """

    def __init__(self, frame: Frame, letters: Sequence[str], indices: range):
        if not isinstance(indices, range) or indices.step != 1:
            raise TypeError("indices must be a contiguous range of valuation codes")
        if indices.start % WORD_BITS:
            raise ValueError(f"a block must start at a multiple of {WORD_BITS}, not {indices.start}")
        self.frame = frame
        self.letters = tuple(letters)
        self.indices = indices
        self.worlds = frame.worlds
        self.words = -(-len(indices) // WORD_BITS)
        self._pos = {name: i for i, name in enumerate(self.letters)}
        first_word = indices.start // WORD_BITS
        self._word_index = np.arange(first_word, first_word + self.words, dtype=np.uint64)
        if isinstance(frame, FiniteLassoFrame):
            succ = [frame.next_world(a) for a in range(frame.worlds)]
        else:
            succ = list(range(1, frame.worlds)) + [frame.worlds - 1]  # last row is guard zone
        self._succ = np.array(succ)
        # Until steps: row s holds the s-th world of every window, padded
        # with index ``worlds``, which _until maps to an all-false row.
        windows = [frame.window(a) for a in range(frame.worlds)]
        steps = np.full((max(map(len, windows)), frame.worlds), frame.worlds)
        for a, win in enumerate(windows):
            steps[: len(win), a] = win
        self._steps = steps
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
        rows = np.empty((self.worlds, self.words), dtype=np.uint64)
        for a in range(self.worlds):
            k = i * self.worlds + a
            if k < 6:
                rows[a] = _LOW_MASKS[k]
            else:
                rows[a] = -((self._word_index >> np.uint64(k - 6)) & np.uint64(1))
        return rows

    def _until(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        false_row = np.zeros((1, self.words), dtype=np.uint64)
        left = np.vstack((left, false_row))
        right = np.vstack((right, false_row))
        res = right[self._steps[0]]
        pref = left[self._steps[0]]
        for row in self._steps[1:]:
            res |= pref & right[row]
            pref &= left[row]
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
    frame: Frame,
    letters: Sequence[str],
    fail_mask: FailMask,
    *,
    chunk_bits: int = DEFAULT_CHUNK_BITS,
) -> Optional[int]:
    """First valuation code flagged by ``fail_mask``, or None.

    Scans all ``2**(len(letters) * frame.worlds)`` valuations in binary
    order.  ``fail_mask`` receives a :class:`BatchEvaluator` for one chunk
    and returns a packed hit vector over ``evaluator.indices``.  A chunk is
    at least one word (64 valuations) unless it is the whole space, so every
    chunk starts on a word boundary.
    """
    n_bits = len(letters) * frame.worlds
    total = 1 << n_bits
    step = 1 << min(max(chunk_bits, 6), n_bits)
    for start in range(0, total, step):
        block = range(start, min(start + step, total))
        hits = fail_mask(BatchEvaluator(frame, letters, block))
        tail = len(block) % WORD_BITS
        if tail:
            hits = hits.copy()
            hits[-1] &= np.uint64((1 << tail) - 1)
        nonzero = np.flatnonzero(hits)
        if nonzero.size:
            j = int(nonzero[0])
            word = int(hits[j])
            return start + WORD_BITS * j + (word & -word).bit_length() - 1
    return None


def decode_valuation(code: int, letters: Sequence[str], worlds: int) -> Valuation:
    """Valuation encoded by ``code`` under the engine's bit layout."""
    true_worlds = {
        name: frozenset(a for a in range(worlds) if (code >> (i * worlds + a)) & 1)
        for i, name in enumerate(letters)
    }
    return Valuation(true_worlds)
