"""Unit, property and cost tests for the speculative segment chain walker."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.utils.chains import CORRUPT_CHAIN, walk_chain


def naive_chain(jumps, count):
    """The first *count* positions of ``0 -> jumps[0] -> ...`` inside the
    table, one step at a time (shorter when the chain leaves it)."""
    out, pos = [], 0
    while pos < len(jumps) and len(out) < count:
        out.append(pos)
        pos = int(jumps[pos])
    return out


def walk_table(jumps, count, max_jump):
    jumps = np.asarray(jumps, dtype=np.int64)
    return walk_chain(lambda p: jumps[p], jumps.size, count, max_jump)


def segments(nbits, count, max_jump):
    """Segment count of a walk, from the documented segment length."""
    n = min(nbits, (count - 1) * max_jump + 1)
    return -(-n // max(max_jump, 64 * n // count))


def huffman_never_resyncs(ncodes):
    """Steps of the prefix code {0, 10, 110, 111} over ``0`` then only
    ``111``: a walker that starts off the chain's residue mod 3 steps 3
    forever and never lands on it."""
    bits = np.concatenate([[0], np.ones(3 * ncodes, dtype=np.int64)])
    padded = np.concatenate([bits, [0, 0]])
    steps = np.where(padded[:-2] == 0, 1, np.where(padded[1:-1] == 0, 2, 3))
    return np.arange(bits.size) + steps


def zfp_never_resyncs(nflagged, block_size):
    """One unflagged chunk, then flagged chunks with all-ones payloads."""
    bits = np.concatenate([[0], np.ones(nflagged * (1 + block_size), dtype=np.int64)])
    return np.arange(bits.size) + 1 + block_size * bits


def all_starts_misaligned(jumps, period):
    """``(count, max_jump)`` that put every segment start off the chain:
    one position short of the whole chain, with one bit of slack in
    ``max_jump``, makes segments exactly 64 periods long, so every start
    sits on the residue 0 while the chain runs on residue 1."""
    count, max_jump = (jumps.size - 1) // period, period + 1
    n = min(jumps.size, (count - 1) * max_jump + 1)
    assert max(max_jump, 64 * n // count) == 64 * period
    return count, max_jump


class TestFollowChain:
    """Following a jump chain with :func:`walk_chain`."""

    def test_empty_count(self):
        assert walk_table([1, 2, 3], 0, 1).size == 0

    def test_unit_steps(self):
        jumps = np.arange(1, 11)
        assert walk_table(jumps, 10, 1).tolist() == list(range(10))

    def test_variable_steps(self):
        jumps = np.array([2, 99, 3, 7, 99, 99, 99, 8])
        assert walk_table(jumps, 4, 4).tolist() == [0, 2, 3, 7]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            walk_table([1], -1, 1)

    def test_chain_escaping_raises(self):
        # Position 1 jumps past the end; asking for 3 entries must fail.
        jumps = np.array([1, 3, 3])
        with pytest.raises(ValueError, match="corrupt"):
            walk_table(jumps, 3, 2)

    def test_count_power_of_two_boundaries(self):
        n = 64
        jumps = np.arange(1, n + 1)
        for count in (1, 2, 3, 4, 7, 8, 9, 31, 32, 33, 64):
            assert walk_table(jumps, count, 1).tolist() == list(range(count))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_walk(self, data):
        n = data.draw(st.integers(2, 200))
        steps = data.draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
        jumps = np.minimum(np.arange(n) + np.array(steps), n)
        max_count = len(naive_chain(jumps, n))
        count = data.draw(st.integers(1, max_count))
        assert walk_table(jumps, count, 5).tolist() == naive_chain(jumps, count)


class TestWalkChainContract:
    def test_step_not_advancing_raises(self):
        for stuck in (np.array([1, 1, 3]), np.array([1, -5, 3])):
            with pytest.raises(ValueError, match=CORRUPT_CHAIN):
                walk_table(stuck, 3, 2)

    def test_jump_beyond_max_jump_across_a_segment_raises(self):
        # Unit steps, except position 100 leaps 300 bits: out of the
        # 64-bit segment it starts in and past the next one.
        jumps = np.arange(1, 1_001)
        jumps[100] = 400
        with pytest.raises(ValueError, match=CORRUPT_CHAIN):
            walk_table(jumps, 200, 1)

    def test_empty_stream_raises(self):
        with pytest.raises(ValueError, match=CORRUPT_CHAIN):
            walk_chain(lambda p: p + 1, 0, 1, 1)

    def test_max_jump_must_be_positive(self):
        with pytest.raises(ValueError, match="max_jump"):
            walk_table([1], 1, 0)

    def test_trailing_bits_past_count_are_ignored(self):
        jumps = np.arange(1, 100_001)
        assert walk_table(jumps, 5, 1).tolist() == [0, 1, 2, 3, 4]

    def test_reentered_segment_drops_its_stale_trail(self):
        # Steps of 3 keep a walker on its residue mod 3 (its "rail");
        # three positions switch rails. The chain runs on rail 1, then
        # switches to rail 0 inside segment 1, so it enters segment 2 at
        # its first bit. Segment 1's guess switches to rail 2 instead, so
        # the first repair wave walks segment 2 from rail 2 and records a
        # trail; the second wave re-enters segment 2 on its marked path
        # and records nothing, and the first trail must still go.
        count = 3000
        nbits = 3 * count + 30
        seg = 64 * nbits // count
        assert seg % 3 == 0 and segments(nbits, count, 3) >= 8
        steps = np.full(nbits, 3)
        steps[0] = 1
        steps[seg + 3] = 2  # on segment 1's guess (rail 0 -> 2)
        steps[seg + 4] = 2  # on the chain (rail 1 -> 0)
        jumps = np.arange(nbits) + steps
        assert walk_table(jumps, count, 3).tolist() == naive_chain(jumps, count)


class TestWalkChainProperties:
    """walk_chain against the naive walk on streams of 8+ segments."""

    @given(
        st.integers(1_200, 4_000),
        st.integers(1, 9),
        st.integers(1, 9),
        st.floats(0.0, 1.0),
        st.integers(0, 2**31),
        st.floats(0.6, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_walk_across_segments(
        self, min_steps, max_jump, rail, switch_rate, seed, share
    ):
        # Mostly one step length ("rails" that never resynchronise),
        # with a drawn share of random steps that switch rails.
        rng = np.random.default_rng(seed)
        nbits = min_steps * max_jump
        steps = np.full(nbits, min(rail, max_jump))
        switch = rng.random(nbits) < switch_rate
        steps[switch] = rng.integers(1, max_jump + 1, size=int(switch.sum()))
        jumps = np.arange(nbits) + steps
        chain_len = len(naive_chain(jumps, nbits))
        count = max(1, int(chain_len * share))
        assume(segments(nbits, count, max_jump) >= 8)
        assert walk_table(jumps, count, max_jump).tolist() == naive_chain(
            jumps, count
        )
        with pytest.raises(ValueError, match=CORRUPT_CHAIN):
            walk_table(jumps, chain_len + 1, max_jump)

    @given(st.integers(3_000, 20_000), st.floats(0.5, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_huffman_stream_that_never_resynchronises(self, ncodes, share):
        jumps = huffman_never_resyncs(ncodes)
        count = max(1, int((ncodes + 1) * share))
        assert segments(jumps.size, count, 3) >= 8
        assert walk_table(jumps, count, 3).tolist() == naive_chain(jumps, count)

    @given(
        st.integers(1_100, 4_000),
        st.sampled_from([1, 4, 16, 64]),
        st.floats(0.5, 1.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_zfp_stream_that_never_resynchronises(self, nflagged, block_size, share):
        jumps = zfp_never_resyncs(nflagged, block_size)
        count = max(1, int((nflagged + 1) * share))
        assert segments(jumps.size, count, 1 + block_size) >= 8
        assert walk_table(jumps, count, 1 + block_size).tolist() == naive_chain(
            jumps, count
        )

    @given(st.integers(1_000, 20_000))
    @settings(max_examples=15, deadline=None)
    def test_huffman_stream_with_every_start_misaligned(self, ncodes):
        jumps = huffman_never_resyncs(ncodes)
        count, max_jump = all_starts_misaligned(jumps, 3)
        assert segments(jumps.size, count, max_jump) >= 8
        assert walk_table(jumps, count, max_jump).tolist() == naive_chain(
            jumps, count
        )

    @given(st.integers(1_000, 4_000), st.sampled_from([1, 4, 16, 64]))
    @settings(max_examples=15, deadline=None)
    def test_zfp_stream_with_every_start_misaligned(self, nflagged, block_size):
        jumps = zfp_never_resyncs(nflagged, block_size)
        count, max_jump = all_starts_misaligned(jumps, 1 + block_size)
        assert segments(jumps.size, count, max_jump) >= 8
        assert walk_table(jumps, count, max_jump).tolist() == naive_chain(
            jumps, count
        )


class TestWalkChainCost:
    def test_step_calls_do_not_grow_with_the_stream(self):
        # Every segment start misaligned: without the bound, the real
        # chain would advance one segment per repair wave.
        def calls(nbits):
            jumps = huffman_never_resyncs((nbits - 1) // 3)
            count, max_jump = all_starts_misaligned(jumps, 3)
            made = 0

            def step(p):
                nonlocal made
                made += 1
                return jumps[p]

            chain = walk_chain(step, jumps.size, count, max_jump)
            assert chain[1:].tolist() == list(range(1, 3 * count - 3, 3))
            return made

        small, large = calls(1 << 16), calls(1 << 22)
        assert abs(large - small) <= 8, (small, large)
