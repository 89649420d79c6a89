"""Exact traversal of jump chains by speculative segment walks.

Decoding a stream of variable-length chunks (Huffman codes, ZFP plane
records) is sequential: the next chunk starts where the current one
ends. A per-chunk Python loop is far too slow for realistic arrays, so
:func:`walk_chain` walks many pieces of the chain at once, in lockstep
NumPy rounds, and visits only positions a chain can reach:

1. **Segments.** The stream is cut into segments of about 64 chain
   steps: ``max(max_jump, 64 * nbits // count)`` bits each.
2. **Guess.** Every segment is walked from its first bit, all segments
   at once; the positions these guesses visit are marked.
3. **Verify and repair.** Each segment is walked again from its real
   entry, the previous segment's exit, until the walker lands on the
   segment's marked path: from there on the guess *is* the chain. A
   segment whose exit changes re-queues the next segment.
4. **Bound.** After two repair waves, every segment from the first one
   still pending is walked from each of its ``max_jump`` entry offsets
   (stopping on its marked path), and pointer doubling over these
   per-segment exit tables fixes every entry at once.

Cost model: ``step`` is called once per round, and a walk takes as many
rounds as the longest segment has steps, so the number of ``step``
calls never grows with the stream (at most six walks). The work is the
chain length plus the repaired prefixes when misaligned walkers soon
land on a real chunk boundary, as variable-length codes do; a stream
that never resynchronises costs about ``max_jump`` times the chain
length.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

__all__ = ["CORRUPT_CHAIN", "walk_chain"]

#: ``ValueError`` message for a chain that leaves the stream before it
#: has *count* positions, or a step that does not advance; the scalar
#: kernels raise the same message so corrupt streams fail identically.
CORRUPT_CHAIN = "jump chain escaped the stream: corrupt input"

#: Chain steps per segment the segment length aims for.
_SEGMENT_STEPS = 64
#: Repair waves before the pending segments are settled in one batch.
_REPAIR_WAVES = 2

Step = Callable[[np.ndarray], np.ndarray]


def walk_chain(step: Step, nbits: int, count: int, max_jump: int) -> np.ndarray:
    """Return the first *count* positions of the chain ``0, step(0), ...``.

    Parameters
    ----------
    step:
        Vectorized successor: maps an ``int64`` array of positions ``p``
        (each in ``[0, nbits)``) to their successors, each in
        ``(p, p + max_jump]``. Successors at or past *nbits* end the
        chain. ``step`` is also called at positions off the chain, so
        it must accept any position in the stream.
    nbits:
        Stream length; chain positions lie in ``[0, nbits)``.
    count:
        Number of chain positions to return.
    max_jump:
        Largest step the stream can take.

    Returns
    -------
    numpy.ndarray
        ``int64`` array of length *count*, strictly increasing.

    Raises
    ------
    ValueError
        If the chain leaves the stream before *count* positions, or
        ``step`` fails to advance, or a jump longer than *max_jump*
        crosses a segment end (corrupt stream), or *count* /
        *max_jump* are invalid.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if max_jump < 1:
        raise ValueError(f"max_jump must be positive, got {max_jump}")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    # Position i of the chain lies at most i * max_jump bits in.
    n = min(int(nbits), (count - 1) * max_jump + 1)
    if n <= 0:
        raise ValueError(CORRUPT_CHAIN)
    seg_len = max(max_jump, _SEGMENT_STEPS * n // count)
    starts = np.arange(0, n, seg_len, dtype=np.int64)
    ends = np.minimum(starts + seg_len, n)

    # Guess: every segment walked from its first bit. Exits land less
    # than max_jump past a segment, so `marked` is padded that far.
    marked = np.zeros(n + max_jump, dtype=bool)

    def mark(pos: np.ndarray, _walker: np.ndarray) -> None:
        marked[pos] = True

    guess_exit = _walk(step, max_jump, starts, ends, visit=mark)

    # Per segment, its latest walk: the entry it started from, its exit,
    # and `cut`, where it joined the marked path (its end if it never
    # did); the guess counts as a walk from the segment's start.
    entry = starts.copy()
    exit_ = guess_exit.copy()
    cut = starts.copy()
    last_wave = np.full(starts.size, -1)
    trails: List[Tuple[np.ndarray, np.ndarray, int]] = []

    def repair(segs: np.ndarray, entries: np.ndarray, wave: int) -> None:
        def record(pos: np.ndarray, walker: np.ndarray) -> None:
            trails.append((pos, segs[walker], wave))

        stop_at = _walk(step, max_jump, entries, ends[segs], marked, record)
        entry[segs] = entries
        exit_[segs] = np.where(stop_at < ends[segs], guess_exit[segs], stop_at)
        cut[segs] = np.minimum(stop_at, ends[segs])
        # A re-walked segment keeps only its latest trail, even when
        # that trail is empty (it re-entered on its marked path).
        last_wave[segs] = wave

    def pending() -> np.ndarray:
        return np.flatnonzero(entry[1:] != exit_[:-1]) + 1

    for wave in range(_REPAIR_WAVES):
        segs = pending()
        if not segs.size:
            break
        repair(segs, exit_[segs - 1], wave)
    else:
        # Waves used up: settle whatever is still pending in one batch.
        segs = pending()
        if segs.size:
            first = int(segs[0])
            entries = _settle(
                step, max_jump, first, exit_, starts, ends, guess_exit, marked
            )
            moved = np.flatnonzero(entries != entry[first:]) + first
            repair(moved, entries[moved - first], _REPAIR_WAVES)

    # The chain: each segment's guess from its cut on (walking the guess
    # again up to the cut clears the rest), plus its latest trail.
    on_chain = marked[:n]

    def clear(pos: np.ndarray, _walker: np.ndarray) -> None:
        on_chain[pos] = False

    dropped = np.flatnonzero(cut > starts)
    _walk(step, max_jump, starts[dropped], cut[dropped], visit=clear)
    for pos, seg, wave in trails:
        on_chain[pos[last_wave[seg] == wave]] = True
    chain = np.flatnonzero(on_chain)
    if chain.size < count:
        raise ValueError(CORRUPT_CHAIN)
    return chain[:count]


def _walk(
    step: Step,
    max_jump: int,
    pos: np.ndarray,
    end: np.ndarray,
    stop: Optional[np.ndarray] = None,
    visit: Optional[Callable[[np.ndarray, np.ndarray], None]] = None,
) -> np.ndarray:
    """Advance walkers from *pos* in lockstep until each reaches its
    *end* or lands on a *stop* position; returns where each stopped.

    ``visit(pos, walker)`` sees every round's positions before they are
    stepped from, with the indices of their walkers. A step that does not
    advance raises at once; the max_jump bound is checked where the
    walker relies on it, at each walk's stop position.
    """
    stopped = pos.copy()
    limit = end + max_jump
    walker = np.arange(pos.size)
    while True:
        live = pos < end
        if stop is not None:
            # Clipped: a jump past max_jump may overrun the padding.
            live &= ~stop.take(pos, mode="clip")
        nlive = np.count_nonzero(live)
        if nlive < pos.size:
            stopped[walker[~live]] = pos[~live]
            pos, end, walker = pos[live], end[live], walker[live]
        if not nlive:
            break
        if visit is not None:
            visit(pos, walker)
        nxt = step(pos)
        if np.count_nonzero(nxt <= pos):
            raise ValueError(CORRUPT_CHAIN)
        pos = nxt
    if np.count_nonzero(stopped >= limit):
        raise ValueError(CORRUPT_CHAIN)
    return stopped


def _settle(
    step: Step,
    max_jump: int,
    first: int,
    exit_: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    guess_exit: np.ndarray,
    marked: np.ndarray,
) -> np.ndarray:
    """Real entries of segments ``first..``; exits up to
    ``exit_[first - 1]`` are final.

    Walks every segment from each of its ``max_jump`` entry offsets to
    tabulate its exit offset into the next segment, then composes the
    tables by pointer doubling: O(log segments) rounds, no ``step``.
    """
    nseg = starts.size - first
    seg = np.repeat(np.arange(first, starts.size), max_jump)
    from_pos = starts[seg] + np.tile(np.arange(max_jump), nseg)
    stop_at = _walk(step, max_jump, from_pos, ends[seg], marked)
    exits = np.where(stop_at < ends[seg], guess_exit[seg], stop_at)
    # Node s * max_jump + o is "segment first + s entered at offset o".
    # At the top of each round `jump` maps a node to the node `filled`
    # segments on, so orbit[:take] yields orbit[filled:filled + take].
    inner = seg[: (nseg - 1) * max_jump] + 1
    jump = exits[: inner.size] - starts[inner] + (inner - first) * max_jump
    orbit = np.empty(nseg, dtype=np.int64)
    orbit[0] = exit_[first - 1] - starts[first]
    filled = 1
    while filled < nseg:
        take = min(filled, nseg - filled)
        orbit[filled : filled + take] = jump[orbit[:take]]
        filled += take
        if filled < nseg:
            jump = jump[jump[: (nseg - filled) * max_jump]]
    return starts[first:] + orbit - np.arange(nseg, dtype=np.int64) * max_jump
