import numpy as np
import pytest

from repro.runtime.comm import all_to_all_schedule, block_exchange_stats


class TestSchedule:
    def test_stage_structure(self):
        sched = all_to_all_schedule(4)
        assert len(sched) == 4
        # stage i: p -> (p+i) mod P
        assert sched[1] == [(0, 1), (1, 2), (2, 3), (3, 0)]

    def test_each_stage_contention_free(self):
        """In every stage each task sends exactly once and receives exactly
        once — the property that makes the custom all-to-all bandwidth-
        optimal on a full-duplex network."""
        for p in [1, 2, 5, 8, 16]:
            for pairs in all_to_all_schedule(p):
                senders = [s for s, _ in pairs]
                receivers = [r for _, r in pairs]
                assert sorted(senders) == list(range(p))
                assert sorted(receivers) == list(range(p))

    def test_all_pairs_covered_once(self):
        p = 6
        seen = set()
        for pairs in all_to_all_schedule(p):
            seen.update(pairs)
        assert len(seen) == p * p

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            all_to_all_schedule(0)


class TestCustomAllToAll:
    """The custom all-to-all's byte accounting, from the (P, P) tuple-count
    matrix alone (:func:`block_exchange_stats`) — the tuples themselves
    move through the block plane."""

    TUPLE_BYTES = 12

    def _stats(self, p, rng):
        counts = rng.integers(0, 20, size=(p, p))
        return counts * self.TUPLE_BYTES, block_exchange_stats(
            counts, self.TUPLE_BYTES
        )

    def test_stats_byte_matrix(self, rng):
        nbytes, stats = self._stats(3, rng)
        assert np.array_equal(stats.bytes_matrix, nbytes)

    def test_wire_bytes_exclude_self(self, rng):
        nbytes, stats = self._stats(3, rng)
        assert stats.wire_bytes_total == nbytes.sum() - np.trace(nbytes)

    def test_message_count(self, rng):
        p = 4
        _, stats = self._stats(p, rng)
        assert stats.n_messages == p * (p - 1)
        assert stats.n_stages == p

    def test_stage_max_bytes(self, rng):
        p = 3
        nbytes, stats = self._stats(p, rng)
        assert len(stats.max_message_bytes_per_stage) == p
        assert stats.max_message_bytes_per_stage[0] == 0  # self-sends only
        # stage i pairs p with (p + i) mod P
        for stage in range(1, p):
            assert stats.max_message_bytes_per_stage[stage] == max(
                nbytes[s, (s + stage) % p] for s in range(p)
            )

    def test_single_task(self):
        stats = block_exchange_stats(np.array([[5]]), self.TUPLE_BYTES)
        assert stats.bytes_matrix[0, 0] == 5 * self.TUPLE_BYTES
        assert stats.wire_bytes_total == 0
        assert stats.n_messages == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            block_exchange_stats(np.zeros((2, 3), dtype=int), self.TUPLE_BYTES)
        with pytest.raises(ValueError):
            block_exchange_stats(np.zeros(4, dtype=int), self.TUPLE_BYTES)

    def test_max_bytes_sent_by_task(self, rng):
        p = 3
        nbytes, stats = self._stats(p, rng)
        per_task = [
            sum(nbytes[s, d] for d in range(p) if d != s) for s in range(p)
        ]
        assert stats.max_bytes_sent_by_task == max(per_task)
