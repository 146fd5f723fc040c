"""Unit tests for the engine's components: transactions, groups, policies,
the interpreter, and the middleware facade."""

import random

import pytest

from repro.core import (
    ArrivalCountPolicy,
    GroupTracker,
    ManualPolicy,
    TimeIntervalPolicy,
    TxnPhase,
)
from repro.client import connect
from repro.core.interpreter import StepOutcome, deliver_answer, run_until_block
from repro.core.transaction import EntangledTransaction
from repro.errors import EngineError, MiddlewareError
from repro.sql import parse_transaction
from repro.storage import ColumnType, StorageEngine, TableSchema


class TestEntangledTransaction:
    def make(self, timeout="2 DAYS") -> EntangledTransaction:
        clause = f" WITH TIMEOUT {timeout}" if timeout else ""
        program = parse_transaction(
            f"BEGIN TRANSACTION{clause}; SET @x = 1; COMMIT;")
        return EntangledTransaction(handle=1, client="c", program=program,
                                    submitted_at=100.0)

    def test_deadline(self):
        txn = self.make()
        assert txn.deadline() == 100.0 + 2 * 86400
        assert not txn.is_expired(100.0)
        assert txn.is_expired(100.0 + 2 * 86400 + 1)

    def test_no_timeout_never_expires(self):
        txn = self.make(timeout=None)
        assert txn.deadline() is None
        assert not txn.is_expired(1e12)

    def test_phase_machine(self):
        txn = self.make()
        txn.start_attempt(storage_txn=5)
        assert txn.phase is TxnPhase.RUNNING
        assert txn.attempts == 1
        with pytest.raises(EngineError):
            txn.start_attempt(6)  # not dormant

    def test_reset_for_retry_wipes_state(self):
        txn = self.make()
        txn.start_attempt(5)
        txn.env["@x"] = 42
        txn.pc = 3
        txn.entangled_ordinal = 2
        txn.partners = {9}
        txn.reset_for_retry()
        assert txn.phase is TxnPhase.DORMANT
        assert txn.env == {} and txn.pc == 0
        assert txn.entangled_ordinal == 0 and txn.partners == set()

    def test_query_id_unique_per_ordinal(self):
        txn = self.make()
        txn.entangled_ordinal = 1
        first = txn.query_id()
        txn.entangled_ordinal = 2
        assert txn.query_id() != first


class TestGroupTracker:
    def test_singleton(self):
        tracker = GroupTracker()
        tracker.register(1)
        assert tracker.group_of(1) == frozenset({1})

    def test_pairwise_entangle(self):
        tracker = GroupTracker()
        tracker.entangle(1, 2)
        assert tracker.group_of(1) == frozenset({1, 2})
        assert tracker.same_group(1, 2)

    def test_transitive_closure(self):
        tracker = GroupTracker()
        tracker.entangle(1, 2)
        tracker.entangle(2, 3)
        assert tracker.group_of(3) == frozenset({1, 2, 3})

    def test_forget_removes_bridges(self):
        tracker = GroupTracker()
        tracker.entangle(1, 2)
        tracker.entangle(2, 3)
        tracker.forget(2)
        assert tracker.group_of(1) == frozenset({1})
        assert tracker.group_of(3) == frozenset({3})

    def test_forget_keeps_direct_links(self):
        tracker = GroupTracker()
        tracker.entangle(1, 2)
        tracker.entangle(1, 3)
        tracker.forget(3)
        assert tracker.group_of(1) == frozenset({1, 2})

    def test_groups_partition(self):
        tracker = GroupTracker()
        tracker.entangle(1, 2)
        tracker.entangle(3, 4)
        tracker.register(5)
        groups = tracker.groups()
        assert frozenset({1, 2}) in groups
        assert frozenset({3, 4}) in groups
        assert frozenset({5}) in groups

    def test_partners_one_hop(self):
        tracker = GroupTracker()
        tracker.entangle(1, 2)
        tracker.entangle(2, 3)
        assert tracker.partners_of(1) == frozenset({2})

    def test_multiparty_entangle(self):
        tracker = GroupTracker()
        tracker.entangle(1, 2, 3)
        assert tracker.partners_of(1) == frozenset({2, 3})

    def test_forget_keeps_edges_and_adjacency_in_step(self):
        tracker = GroupTracker()
        tracker.entangle(1, 2, 3)
        tracker.entangle(1, 2)  # the same link twice is still one link
        tracker.forget(2)
        assert tracker.edges() == [(1, 3)]
        assert tracker.partners_of(1) == frozenset({3})
        assert tracker.group_of(2) == frozenset({2})
        tracker.register(2)  # the retry re-registers as a singleton
        assert tracker.groups() == [frozenset({1, 3}), frozenset({2})]
        tracker.clear()
        assert tracker.groups() == [] and tracker.edges() == []

    def test_groups_match_the_closure_of_the_stored_edges(self):
        """Adjacency is kept incrementally; the stored edges stay the
        ground truth (they are what gets persisted)."""
        rng = random.Random(7)
        tracker = GroupTracker()
        for _ in range(400):
            if rng.random() < 0.3:
                tracker.forget(rng.randrange(30))
            else:
                tracker.entangle(*rng.sample(range(30), rng.choice((1, 2, 2, 3))))
            closure = {m: {m} for m in range(30)}
            for a, b in tracker.edges():
                merged = closure[a] | closure[b]
                for member in merged:
                    closure[member] = merged
            for member in range(30):
                assert tracker.group_of(member) == closure[member]


class TestPolicies:
    def test_arrival_count(self):
        policy = ArrivalCountPolicy(3)
        for _ in range(2):
            policy.on_arrival(0.0, 1)
            assert not policy.should_run(0.0, 1)
        policy.on_arrival(0.0, 3)
        assert policy.should_run(0.0, 3)
        policy.on_run_started(0.0)
        assert not policy.should_run(0.0, 3)

    def test_arrival_count_needs_dormant(self):
        policy = ArrivalCountPolicy(1)
        policy.on_arrival(0.0, 0)
        assert not policy.should_run(0.0, 0)

    def test_arrival_count_validates(self):
        with pytest.raises(EngineError):
            ArrivalCountPolicy(0)

    def test_time_interval(self):
        policy = TimeIntervalPolicy(10.0)
        assert policy.should_run(0.0, 1)
        policy.on_run_started(0.0)
        assert not policy.should_run(5.0, 1)
        assert policy.should_run(10.0, 1)

    def test_manual_never_runs(self):
        policy = ManualPolicy()
        policy.on_arrival(0.0, 5)
        assert not policy.should_run(0.0, 5)


class TestInterpreter:
    def make_store(self) -> StorageEngine:
        store = StorageEngine()
        store.create_table(TableSchema.build(
            "T", [("k", ColumnType.INTEGER), ("v", ColumnType.TEXT)],
            primary_key=["k"],
        ))
        store.load("T", [(1, "one"), (2, "two")])
        return store

    def make_txn(self, sql: str) -> EntangledTransaction:
        return EntangledTransaction(
            handle=1, client="c", program=parse_transaction(sql))

    def test_select_binds_variables(self):
        store = self.make_store()
        txn = self.make_txn("""
            BEGIN TRANSACTION;
            SELECT v AS @val FROM T WHERE k=2;
            COMMIT;
        """)
        txn.start_attempt(store.begin())
        assert run_until_block(txn, store) is StepOutcome.COMPLETED
        assert txn.env["@val"] == "two"

    def test_empty_select_binds_null(self):
        store = self.make_store()
        txn = self.make_txn("""
            BEGIN TRANSACTION;
            SELECT v AS @val FROM T WHERE k=99;
            COMMIT;
        """)
        txn.start_attempt(store.begin())
        run_until_block(txn, store)
        assert txn.env["@val"] is None

    def test_set_arithmetic_chain(self):
        store = self.make_store()
        txn = self.make_txn("""
            BEGIN TRANSACTION;
            SET @a = 5;
            SET @b = @a * 2 + 1;
            COMMIT;
        """)
        txn.start_attempt(store.begin())
        run_until_block(txn, store)
        assert txn.env["@b"] == 11

    def test_insert_update_delete(self):
        store = self.make_store()
        txn = self.make_txn("""
            BEGIN TRANSACTION;
            INSERT INTO T VALUES (3, 'three');
            UPDATE T SET v='THREE' WHERE k=3;
            DELETE FROM T WHERE k=1;
            COMMIT;
        """)
        txn.start_attempt(store.begin())
        assert run_until_block(txn, store) is StepOutcome.COMPLETED
        store.commit(txn.storage_txn)
        values = sorted(tuple(r.values) for r in store.db.table("T").scan())
        assert values == [(2, "two"), (3, "THREE")]

    def test_rollback_outcome(self):
        store = self.make_store()
        txn = self.make_txn("""
            BEGIN TRANSACTION;
            ROLLBACK;
            COMMIT;
        """)
        txn.start_attempt(store.begin())
        assert run_until_block(txn, store) is StepOutcome.ROLLED_BACK

    def test_blocks_on_entangled_query(self):
        store = self.make_store()
        txn = self.make_txn("""
            BEGIN TRANSACTION;
            SELECT 'me', k INTO ANSWER R
            WHERE k IN (SELECT k FROM T)
            AND ('you', k) IN ANSWER R
            CHOOSE 1;
            COMMIT;
        """)
        txn.start_attempt(store.begin())
        assert run_until_block(txn, store) is StepOutcome.BLOCKED_ON_QUERY
        assert txn.pending_query is not None
        assert txn.phase is TxnPhase.BLOCKED

    def test_deliver_empty_answer_nulls_bindings(self):
        store = self.make_store()
        txn = self.make_txn("""
            BEGIN TRANSACTION;
            SELECT 'me', k AS @k INTO ANSWER R
            WHERE k IN (SELECT k FROM T)
            AND ('you', k) IN ANSWER R
            CHOOSE 1;
            COMMIT;
        """)
        txn.start_attempt(store.begin())
        run_until_block(txn, store)
        deliver_answer(txn, None)
        assert txn.env["@k"] is None
        assert txn.phase is TxnPhase.RUNNING

    def test_autocommit_commits_each_statement(self):
        store = self.make_store()
        txn = self.make_txn("""
            BEGIN TRANSACTION;
            INSERT INTO T VALUES (3, 'three');
            INSERT INTO T VALUES (4, 'four');
            COMMIT;
        """)
        txn.start_attempt(store.begin())
        run_until_block(txn, store, autocommit=True)
        # Both inserts already committed; aborting the trailing txn is a
        # no-op for them.
        store.abort(txn.storage_txn)
        assert len(store.db.table("T")) == 4


class TestMiddlewareFacade:
    def test_query_direct(self):
        system = connect()
        system.create_table(TableSchema.build(
            "T", [("x", ColumnType.INTEGER)]))
        system.load("T", [(1,), (2,)])
        assert system.query("SELECT x FROM T WHERE x=2") == [(2,)]

    def test_query_rejects_dml(self):
        system = connect()
        with pytest.raises(MiddlewareError):
            system.query("DELETE FROM T")

    def test_unknown_handle(self):
        system = connect()
        with pytest.raises(MiddlewareError):
            system.engine.transaction(42)

    def test_host_variables_require_commit(self):
        system = connect()
        system.create_table(TableSchema.build(
            "T", [("x", ColumnType.INTEGER)]))
        script = system.session().run_script(
            "BEGIN TRANSACTION; SET @a = 1; COMMIT;")
        with pytest.raises(MiddlewareError):
            script.host_variables()
        system.run()
        assert script.host_variables() == {"@a": 1}

    def test_ticket_reflects_phase(self):
        system = connect()
        system.create_table(TableSchema.build(
            "T", [("x", ColumnType.INTEGER)]))
        script = system.session().run_script(
            "BEGIN TRANSACTION; INSERT INTO T VALUES (1); COMMIT;")
        assert script.phase is TxnPhase.DORMANT
        system.run()
        assert script.succeeded and script.done and script.attempts == 1
