"""The keyed draws every fault plan makes are numpy's ``SeedSequence``,
bit for bit.

``repro.faults.draws.keyed_uniforms`` re-implements ``SeedSequence``'s
entropy mix and ``generate_state`` for a whole range of keys at once; the
reference here is numpy itself, one ``SeedSequence`` per key.  The lattice
covers one- to three-word seeds, both streams, query ids at the 32-bit
edges, ranges that cross the one-to-two-word boundary of the last integer,
1 to 4 draws, and the shard plan's six-word keys (more words than the
four-word pool, so the mix's extra-entropy loop runs).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import plan as plan_module
from repro.faults import shard_plan as shard_plan_module
from repro.faults.draws import keyed_uniforms
from repro.faults.plan import FaultPlan
from repro.faults.shard_plan import ShardFaultPlan

#: 1 under tier-1's profile, 25 under ``--hypothesis-profile=explore``
#: (``tests/conftest.py``).
EXAMPLES = settings().max_examples // settings.get_profile("tier1").max_examples

SEEDS = (0, 1, 2005, 2**32 - 1, 2**32, 2**64 + 1)
STREAMS = (0, 1)
QUERIES = (0, 2**31, 2**32 - 1)


def reference(key, n):
    """What the plans drew before: one ``SeedSequence`` per key."""
    words = np.random.SeedSequence(entropy=key).generate_state(n, dtype=np.uint64)
    return np.asarray(words, dtype=np.float64) * 2.0**-64


def assert_bit_equal(got, want):
    assert got.dtype == np.float64
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


class TestSeedSequenceEquality:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("stream", STREAMS)
    @pytest.mark.parametrize("query", QUERIES)
    def test_chunk_ranges(self, seed, stream, query):
        # Two ranges that meet where an injector's table grows, drawn apart
        # and as one: every row is its key's, whatever range it came in.
        for n in (1, 2, 3, 4):
            first = keyed_uniforms((seed, stream, query), 0, 5, n)
            grown = keyed_uniforms((seed, stream, query), 5, 12, n)
            whole = keyed_uniforms((seed, stream, query), 0, 12, n)
            assert first.shape == (5, n) and grown.shape == (7, n)
            assert_bit_equal(np.concatenate([first, grown]), whole)
            for chunk in range(12):
                assert_bit_equal(whole[chunk], reference((seed, stream, query, chunk), n))

    @pytest.mark.parametrize("start", [2**32 - 3, 2**64 - 5])
    def test_ranges_across_a_word_boundary(self, start):
        # The last integer gains a word mid-range, or fills two words.
        got = keyed_uniforms((2005, 0, 7), start, start + 5, 3)
        for i in range(5):
            assert_bit_equal(got[i], reference((2005, 0, 7, start + i), 3))

    def test_one_key_past_two_words(self):
        key = (2005, 0, 7)
        for last in (2**64, 2**96 + 5):
            got = keyed_uniforms(key, last, last + 1, 2)
            assert_bit_equal(got[0], reference(key + (last,), 2))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_six_word_shard_keys(self, seed):
        for query, partition, shard, attempt in [
            (0, 0, 0, 0), (3, 1, 2, 1), (2**32 - 1, 7, 5, 3), (2**31, 2, 0, 2**32),
        ]:
            key = (seed, 0, query, partition, shard)
            got = keyed_uniforms(key, attempt, attempt + 1, 1)
            assert_bit_equal(got[0], reference(key + (attempt,), 1))

    @given(
        prefix=st.lists(st.integers(0, 2**70), max_size=7),
        start=st.integers(0, 2**40),
        rows=st.integers(1, 6),
        n=st.integers(1, 4),
    )
    @settings(max_examples=60 * EXAMPLES, deadline=None)
    def test_any_key(self, prefix, start, rows, n):
        got = keyed_uniforms(tuple(prefix), start, start + rows, n)
        for i in range(rows):
            assert_bit_equal(got[i], reference(tuple(prefix) + (start + i,), n))


class TestPlanDraws:
    def test_plans_draw_what_seed_sequence_draws(self):
        plan = FaultPlan.balanced(0.3, seed=2**32)
        table = plan.chunk_draws(9, 0, 6)
        for chunk in range(6):
            want = reference((2**32, 0, 9, chunk), plan_module.MAX_RETRIES + 1)
            assert_bit_equal(plan.uniforms(0, 9, chunk, plan_module.MAX_RETRIES + 1), want)
            assert_bit_equal(table[chunk], want)

    def test_shard_plan_draws_what_seed_sequence_draws(self):
        plan = ShardFaultPlan(
            seed=11, error_rate=0.3, straggler_rate=0.3, outage_rate=0.5,
            outage_duration_s=1.0, horizon_s=10.0,
        )
        for key in [(0, 0, 0, 0), (4, 3, 1, 2)]:
            (u,) = reference((11, 0) + key, 1).tolist()
            fault = plan.sub_request(*key)
            assert fault.failed == (u < 0.3)
            assert fault.straggler == (0.3 <= u < 0.6)
        for shard in range(6):
            hit, where = reference((11, 1, shard), 2).tolist()
            window = plan.outage_window(shard)
            if hit >= 0.5:
                assert window is None
            else:
                assert window == (where * 9.0, where * 9.0 + 1.0)

    def test_outage_windows_are_drawn_once(self, monkeypatch):
        plan = ShardFaultPlan.balanced(0.5, seed=3, horizon_s=10.0)
        calls = []
        draw = shard_plan_module.key_uniforms
        monkeypatch.setattr(
            shard_plan_module, "key_uniforms",
            lambda *args: calls.append(args) or draw(*args),
        )
        first = [plan.outage_window(shard) for shard in range(4)]
        for now in (0.0, 2.5, 5.0, 9.9):
            for shard in range(4):
                plan.shard_down(shard, now)
        assert [plan.outage_window(shard) for shard in range(4)] == first
        assert len(calls) == 4

    def test_negative_keys_raise_value_error(self):
        plan = FaultPlan.balanced(0.3, seed=1)
        with pytest.raises(ValueError):
            plan.chunk_outcome(-1, 0, 0.01)
        with pytest.raises(ValueError):
            plan.chunk_outcome(0, -1, 0.01)
        with pytest.raises(ValueError):
            plan.uniforms(0, 0, -3, 2)
        with pytest.raises(ValueError):
            keyed_uniforms((1, -2), 0, 3, 1)
        with pytest.raises(ValueError):
            keyed_uniforms((1, 2), -1, 3, 1)

    def test_draw_width_follows_max_retries(self, monkeypatch):
        monkeypatch.setattr(plan_module, "MAX_RETRIES", 3)
        plan = FaultPlan(seed=11, read_error_rate=0.4)
        assert plan.uniforms(0, 0, 5, plan_module.MAX_RETRIES + 1).shape == (4,)
        table = plan.chunk_draws(0, 0, 8)
        assert table.shape == (8, 4)
        assert_bit_equal(table[5], reference((11, 0, 0, 5), 4))
