"""Unit tests for the lock manager: modes, queues, deadlocks, multigranularity."""

import pytest

from repro.errors import DeadlockError
from repro.storage.locks import (
    LockManager,
    LockMode,
    LockOutcome,
    index_key_resource,
    table_resource,
)
from repro.storage.row import RowId

S, X = LockMode.SHARED, LockMode.EXCLUSIVE
IS, IX = LockMode.INTENTION_SHARED, LockMode.INTENTION_EXCLUSIVE
T = table_resource("Flights")
K = index_key_resource("Flights", ("dest",), ("LA",))


class TestCompatibility:
    def test_matrix(self):
        assert S.compatible(S)
        assert IX.compatible(IX)
        assert not S.compatible(X)
        assert not S.compatible(IX)
        assert not X.compatible(X)
        assert not X.compatible(IX)

    def test_intention_shared_row(self):
        # IS is compatible with everything except X — and symmetrically.
        for other in (IS, IX, S):
            assert IS.compatible(other)
            assert other.compatible(IS)
        assert not IS.compatible(X)
        assert not X.compatible(IS)

    def test_covers(self):
        assert X.covers(S) and X.covers(IX) and X.covers(IS)
        assert S.covers(IS) and not S.covers(IX)
        assert IX.covers(IS) and not IX.covers(S)
        assert IS.covers(IS) and not IS.covers(S)

    def test_combine_lattice(self):
        assert IS.combine(S) is S
        assert IS.combine(IX) is IX
        assert S.combine(IX) is X  # SIX would be exact; X is sound
        assert S.combine(S) is S
        assert X.combine(IS) is X


class TestIntentionShared:
    def test_keyed_reader_coexists_with_row_writer(self):
        # The tentpole protocol: reader IS + key S, writer IX + row X on
        # the same table — no conflict anywhere.
        lm = LockManager()
        assert lm.acquire(1, T, IS) is LockOutcome.GRANTED
        assert lm.acquire(1, K, S) is LockOutcome.GRANTED
        assert lm.acquire(2, T, IX) is LockOutcome.GRANTED
        assert lm.acquire(2, RowId("Flights", 7), X) is LockOutcome.GRANTED
        assert lm.stats["waits"] == 0

    def test_keyed_reader_blocks_same_key_inserter(self):
        lm = LockManager()
        lm.acquire(1, T, IS)
        lm.acquire(1, K, S)
        lm.acquire(2, T, IX)
        assert lm.acquire(2, K, IX) is LockOutcome.WAIT

    def test_same_key_inserters_compatible(self):
        lm = LockManager()
        assert lm.acquire(1, K, IX) is LockOutcome.GRANTED
        assert lm.acquire(2, K, IX) is LockOutcome.GRANTED

    def test_is_blocked_by_table_x(self):
        lm = LockManager()
        lm.acquire(1, T, X)
        assert lm.acquire(2, T, IS) is LockOutcome.WAIT

    def test_scan_coexists_with_keyed_reader(self):
        lm = LockManager()
        lm.acquire(1, T, S)
        assert lm.acquire(2, T, IS) is LockOutcome.GRANTED

    def test_is_to_ix_conversion(self):
        lm = LockManager()
        lm.acquire(1, T, IS)
        assert lm.acquire(1, T, IX) is LockOutcome.GRANTED
        assert lm.holders(T) == {1: IX}

    def test_is_to_ix_conversion_allowed_alongside_other_is(self):
        lm = LockManager()
        lm.acquire(1, T, IS)
        lm.acquire(2, T, IS)
        # IS holders don't block an IS->IX conversion (IX vs IS is fine).
        assert lm.acquire(1, T, IX) is LockOutcome.GRANTED

    def test_conversion_blocked_by_incompatible_holder(self):
        lm = LockManager()
        lm.acquire(1, T, IS)
        lm.acquire(2, T, S)
        # IS->IX must wait: the other holder's S conflicts with IX.
        assert lm.acquire(1, T, IX) is LockOutcome.WAIT
        woken = lm.release_all(2)
        assert 1 in woken
        assert lm.holders(T) == {1: IX}


class TestBasicAcquisition:
    def test_shared_sharing(self):
        lm = LockManager()
        assert lm.acquire(1, T, S) is LockOutcome.GRANTED
        assert lm.acquire(2, T, S) is LockOutcome.GRANTED
        assert lm.holders(T) == {1: S, 2: S}

    def test_exclusive_blocks_shared(self):
        lm = LockManager()
        lm.acquire(1, T, X)
        assert lm.acquire(2, T, S) is LockOutcome.WAIT

    def test_ix_pairs(self):
        lm = LockManager()
        assert lm.acquire(1, T, IX) is LockOutcome.GRANTED
        assert lm.acquire(2, T, IX) is LockOutcome.GRANTED

    def test_ix_blocks_scan(self):
        lm = LockManager()
        lm.acquire(1, T, IX)
        assert lm.acquire(2, T, S) is LockOutcome.WAIT

    def test_reacquire_same_mode(self):
        lm = LockManager()
        lm.acquire(1, T, S)
        assert lm.acquire(1, T, S) is LockOutcome.GRANTED

    def test_x_implies_everything(self):
        lm = LockManager()
        lm.acquire(1, T, X)
        assert lm.acquire(1, T, S) is LockOutcome.GRANTED
        assert lm.acquire(1, T, IX) is LockOutcome.GRANTED
        assert lm.holds(1, T, S) and lm.holds(1, T, IX)


class TestUpgrades:
    def test_sole_holder_upgrade(self):
        lm = LockManager()
        lm.acquire(1, T, S)
        assert lm.acquire(1, T, X) is LockOutcome.GRANTED
        assert lm.holders(T) == {1: X}

    def test_contended_upgrade_waits(self):
        lm = LockManager()
        lm.acquire(1, T, S)
        lm.acquire(2, T, S)
        assert lm.acquire(1, T, X) is LockOutcome.WAIT

    def test_upgrade_granted_after_release(self):
        lm = LockManager()
        lm.acquire(1, T, S)
        lm.acquire(2, T, S)
        lm.acquire(1, T, X)
        woken = lm.release_all(2)
        assert 1 in woken
        assert lm.holders(T) == {1: X}


class TestQueueing:
    def test_fifo_shared_behind_exclusive(self):
        lm = LockManager()
        lm.acquire(1, T, S)
        lm.acquire(2, T, X)        # waits
        assert lm.acquire(3, T, S) is LockOutcome.WAIT  # queues behind X

    def test_wakeup_order(self):
        lm = LockManager()
        lm.acquire(1, T, X)
        lm.acquire(2, T, S)
        lm.acquire(3, T, S)
        woken = lm.release_all(1)
        assert set(woken) == {2, 3}
        assert lm.holders(T) == {2: S, 3: S}

    def test_release_clears_queue_entries(self):
        lm = LockManager()
        lm.acquire(1, T, X)
        lm.acquire(2, T, S)
        lm.release_all(2)  # waiter gives up
        assert not lm.waiting(2)
        lm.release_all(1)
        assert lm.holders(T) == {}


class TestDeadlockDetection:
    def test_two_party_cycle(self):
        lm = LockManager()
        a, b = table_resource("A"), table_resource("B")
        lm.acquire(1, a, X)
        lm.acquire(2, b, X)
        assert lm.acquire(1, b, X) is LockOutcome.WAIT
        with pytest.raises(DeadlockError):
            lm.acquire(2, a, X)
        assert lm.stats["deadlocks"] == 1

    def test_three_party_cycle(self):
        lm = LockManager()
        a, b, c = (table_resource(n) for n in "ABC")
        lm.acquire(1, a, X)
        lm.acquire(2, b, X)
        lm.acquire(3, c, X)
        lm.acquire(1, b, X)
        lm.acquire(2, c, X)
        with pytest.raises(DeadlockError):
            lm.acquire(3, a, X)

    def test_no_false_positive_chain(self):
        lm = LockManager()
        a, b = table_resource("A"), table_resource("B")
        lm.acquire(1, a, X)
        lm.acquire(2, b, X)
        assert lm.acquire(2, a, X) is LockOutcome.WAIT  # 2 -> 1, no cycle
        assert lm.acquire(3, b, S) is LockOutcome.WAIT  # 3 -> 2, no cycle

    def test_victim_can_retry_after_release(self):
        lm = LockManager()
        a, b = table_resource("A"), table_resource("B")
        lm.acquire(1, a, X)
        lm.acquire(2, b, X)
        lm.acquire(1, b, X)
        with pytest.raises(DeadlockError):
            lm.acquire(2, a, X)
        lm.release_all(2)  # victim aborts
        assert lm.holders(b) == {1: X}  # 1's wait was granted


class TestRowTableProtocol:
    def test_row_writers_coexist(self):
        lm = LockManager()
        lm.acquire(1, T, IX)
        lm.acquire(2, T, IX)
        assert lm.acquire(1, RowId("Flights", 1), X) is LockOutcome.GRANTED
        assert lm.acquire(2, RowId("Flights", 2), X) is LockOutcome.GRANTED

    def test_row_conflict(self):
        lm = LockManager()
        lm.acquire(1, RowId("Flights", 1), X)
        assert lm.acquire(2, RowId("Flights", 1), X) is LockOutcome.WAIT

    def test_scan_vs_writer_at_table_granule(self):
        lm = LockManager()
        lm.acquire(1, T, IX)              # writer intent
        assert lm.acquire(2, T, S) is LockOutcome.WAIT  # scanner blocked


class TestReleaseShared:
    def test_early_release_keeps_exclusive(self):
        lm = LockManager()
        lm.acquire(1, T, S)
        r = RowId("Flights", 5)
        lm.acquire(1, r, X)
        lm.release_shared(1)
        assert not lm.holds(1, T)
        assert lm.holds(1, r, X)

    def test_early_release_covers_intention_shared(self):
        lm = LockManager()
        lm.acquire(1, T, IS)
        lm.acquire(1, K, S)
        lm.release_shared(1)
        assert lm.held_resources(1) == frozenset()

    def test_early_release_wakes_writers(self):
        lm = LockManager()
        lm.acquire(1, T, S)
        lm.acquire(2, T, IX)
        woken = lm.release_shared(1)
        assert woken == [2]


class TestCancelWait:
    def test_request_behind_a_cancelled_waiter_wakes_at_the_next_release(self):
        """cancel_wait itself promotes nothing — waking stays on the
        release path — but the very next release of *any* transaction,
        even one that never touched the resource, grants what the
        withdrawn request was holding up."""
        lm = LockManager()
        lm.acquire(1, T, S)
        assert lm.acquire(2, T, X) is LockOutcome.WAIT
        assert lm.acquire(3, T, S) is LockOutcome.WAIT  # FIFO behind the X
        assert lm.cancel_wait(2, T) is True
        assert not lm.waiting(2)
        assert lm.waiting(3) and not lm.holds(3, T)
        assert lm.release_all(99) == [3]
        assert lm.holds(3, T, S) and not lm.waiting(3)
        assert lm.waits_edges() == {}

    def test_a_victims_fresh_wait_counts_as_a_deadlock_not_a_wait(self):
        """As with a cycle the manager finds itself: the refused request
        counts in ``deadlocks`` only.  A retry of a queued request counts
        no new wait, so withdrawing it leaves the first count standing."""
        lm = LockManager()
        lm.acquire(1, T, X)
        assert lm.acquire(2, T, X) is LockOutcome.WAIT
        assert lm.cancel_wait(2, T) is True
        assert (lm.stats["waits"], lm.stats["deadlocks"]) == (0, 1)
        assert lm.acquire(2, T, X) is LockOutcome.WAIT
        assert lm.acquire(2, T, X) is LockOutcome.WAIT  # the retry
        assert lm.cancel_wait(2, T) is True
        assert (lm.stats["waits"], lm.stats["deadlocks"]) == (1, 2)

    def test_cancel_of_nothing_is_a_no_op(self):
        lm = LockManager()
        lm.acquire(1, T, X)
        assert lm.cancel_wait(2, T) is False
        assert lm.cancel_wait(1, K) is False
        assert lm.stats["deadlocks"] == 0


class TestStateReclamation:
    def test_probe_acquire_release_cycle_leaves_no_lock_state(self):
        """Release reclaims exactly the states it empties (there is no
        whole-manager sweep), so nothing else may create a state: probing
        a resource must not, and a waiter's departure must not leak."""
        lm = LockManager()
        for i in range(10_000):
            resource = index_key_resource("Flights", ("fno",), (i,))
            assert lm.holders(resource) == {}
            assert not lm.holds(1, resource)
            lm.acquire(1, resource, X)
            if i % 100 == 0:
                assert lm.acquire(2, resource, S) is LockOutcome.WAIT
                assert lm.cancel_wait(2, resource)
                lm.acquire(1, RowId("Flights", i), S)
                lm.release_shared(1)
            if i % 1000 == 999:
                lm.release_all(1)
        assert len(lm._locks) == 0
        assert not lm._held and not lm._queued and not lm._pending


class TestRowIdIsNoTableResource:
    """``RowId`` is a tuple type: a row of a table named ``"table"`` is a
    2-tuple starting with ``"table"``, like a table resource."""

    @pytest.mark.parametrize("batch", [False, True], ids=["acquire", "acquire_many"])
    def test_a_row_s_grant_is_not_a_table_s_grant(self, batch):
        lm = LockManager()
        row = RowId("table", 7)
        if batch:
            assert lm.acquire_many(1, [row, table_resource("T")], S) is None
        else:
            lm.acquire(1, row, S)
            lm.acquire(1, table_resource("T"), S)
        assert lm.stats["table_s_grants"] == 1
        assert lm.stats["read_grants"] == 2

    def test_a_row_s_granted_after_a_wait_is_not_a_table_s_grant(self):
        lm = LockManager()
        row = RowId("table", 7)
        lm.acquire(1, row, X)
        assert lm.acquire(2, row, S) is LockOutcome.WAIT
        assert lm.release_all(1) == [2]
        assert lm.stats["table_s_grants"] == 0

    @pytest.mark.parametrize("name", ["table", "ixkey", "7", "T"])
    @pytest.mark.parametrize("rid", [0, 7])
    def test_a_row_id_equals_no_table_or_index_key_resource(self, name, rid):
        row = RowId(name, rid)
        others = [
            table_resource(name), table_resource(str(rid)),
            table_resource("table"),
            index_key_resource(name, ("id",), (rid,)),
            index_key_resource("table", (name,), (rid,)),
        ]
        assert all(row != other for other in others)
        assert row not in set(others)
