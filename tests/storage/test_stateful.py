"""Stateful property tests: the storage engine against a model.

A hypothesis RuleBasedStateMachine drives interleaved transactions
through begin/insert/update/delete/commit/abort (under the default 2PL
locks; the rules touch no key another open transaction wrote, and a
write that still meets a lock — a gap lock on a successor key, or a key
another transaction failed to insert — aborts its transaction) while
maintaining a pure-Python model of what each table should contain.
Invariants:

* after COMMIT, the model and the engine agree on table contents;
* after ABORT, the transaction's effects are fully undone;
* after crash + recovery, exactly the committed state is restored.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.errors import DuplicateKeyError
from repro.storage import ColumnType, StorageEngine, TableSchema, WouldBlock
from repro.storage.recovery import recover

KEYS = list(range(8))
VALUES = ["a", "b", "c"]


class StorageMachine(RuleBasedStateMachine):
    """Interleaved transactions vs. a committed-state model."""

    txns = Bundle("txns")

    @initialize()
    def setup(self):
        self.engine = StorageEngine()
        self.engine.create_table(TableSchema.build(
            "T",
            [("k", ColumnType.INTEGER), ("v", ColumnType.TEXT)],
            primary_key=["k"],
        ))
        #: committed state: key -> value
        self.committed: dict[int, str] = {}
        #: per-open-transaction overlay: key -> value | None (deleted)
        self.overlays: dict[int, dict[int, str | None]] = {}

    # -- helpers --------------------------------------------------------------

    def _visible(self, txn: int) -> dict[int, str]:
        """What ``txn`` should see: committed + every open overlay.

        The model tracks only per-txn outcomes, so rules below only
        mutate keys not touched by other open transactions — keeping the
        model exact without modelling full visibility.
        """
        view = dict(self.committed)
        for overlay in self.overlays.values():
            for key, value in overlay.items():
                if value is None:
                    view.pop(key, None)
                else:
                    view[key] = value
        return view

    def _contested(self, key: int, me: int) -> bool:
        return any(
            key in overlay
            for txn, overlay in self.overlays.items()
            if txn != me
        )

    def _blocked(self, txn: int) -> None:
        """``txn`` met another transaction's lock on a key outside every
        overlay (a gap lock on a successor key, or a key another
        transaction failed to insert): abort it, which also drops the
        wait it left queued."""
        self.engine.abort(txn)
        self.overlays.pop(txn)

    # -- rules ----------------------------------------------------------------

    @rule(target=txns)
    def begin(self):
        txn = self.engine.begin()
        self.overlays[txn] = {}
        return txn

    @rule(txn=txns, key=st.sampled_from(KEYS), value=st.sampled_from(VALUES))
    def insert(self, txn, key, value):
        if txn not in self.overlays or self._contested(key, txn):
            return
        visible = self._visible(txn)
        try:
            self.engine.insert(txn, "T", (key, value))
            assert key not in visible, "insert succeeded over a live key"
            self.overlays[txn][key] = value
        except DuplicateKeyError:
            assert key in visible, "duplicate-key raised for a free key"
        except WouldBlock:
            self._blocked(txn)

    @rule(txn=txns, key=st.sampled_from(KEYS), value=st.sampled_from(VALUES))
    def update(self, txn, key, value):
        if txn not in self.overlays or self._contested(key, txn):
            return
        table = self.engine.db.table("T")
        row = table.lookup_pk((key,))
        if row is None:
            return
        try:
            self.engine.update(txn, "T", row.rid, (key, value))
        except WouldBlock:
            self._blocked(txn)
            return
        self.overlays[txn][key] = value

    @rule(txn=txns, key=st.sampled_from(KEYS))
    def delete(self, txn, key):
        if txn not in self.overlays or self._contested(key, txn):
            return
        table = self.engine.db.table("T")
        row = table.lookup_pk((key,))
        if row is None:
            return
        try:
            self.engine.delete(txn, "T", row.rid)
        except WouldBlock:
            self._blocked(txn)
            return
        self.overlays[txn][key] = None

    @rule(txn=txns)
    def commit(self, txn):
        if txn not in self.overlays:
            return
        self.engine.commit(txn)
        for key, value in self.overlays.pop(txn).items():
            if value is None:
                self.committed.pop(key, None)
            else:
                self.committed[key] = value

    @rule(txn=txns)
    def abort(self, txn):
        if txn not in self.overlays:
            return
        self.engine.abort(txn)
        self.overlays.pop(txn)

    @rule()
    def crash_and_recover(self):
        # Open transactions die with the crash; committed state survives.
        self.overlays.clear()
        survivor = self.engine.crash()
        recover(survivor)
        self.engine = survivor

    # -- invariants --------------------------------------------------------------

    @invariant()
    def quiescent_state_matches_model(self):
        # When no transaction is open, the table must equal the model.
        if self.overlays:
            return
        actual = {
            row.values[0]: row.values[1]
            for row in self.engine.db.table("T").scan()
        }
        assert actual == self.committed

    @invariant()
    def pk_index_consistent(self):
        table = self.engine.db.table("T")
        for row in table.scan():
            assert table.lookup_pk((row.values[0],)).rid == row.rid


TestStorageMachine = StorageMachine.TestCase
TestStorageMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None)


def _replay_blocked_delete(first_write):
    """Key 5 committed; A writes with ``first_write``, then B deletes 5
    — a key in no overlay that A's write still locked."""
    machine = StorageMachine()
    machine.setup()
    seed = machine.begin()
    machine.insert(seed, 5, "a")
    machine.commit(seed)
    a, b = machine.begin(), machine.begin()
    first_write(machine, a)
    machine.delete(b, 5)
    assert b not in machine.overlays  # blocked, so aborted
    machine.commit(a)
    machine.quiescent_state_matches_model()
    machine.pk_index_consistent()
    return machine


def test_a_gap_lock_on_the_successor_key_aborts_the_blocked_delete():
    machine = _replay_blocked_delete(
        lambda machine, txn: machine.insert(txn, 4, "b"))
    assert machine.committed == {4: "b", 5: "a"}


def test_a_failed_insert_lock_aborts_the_blocked_delete():
    machine = _replay_blocked_delete(
        lambda machine, txn: machine.insert(txn, 5, "b"))
    assert machine.committed == {5: "a"}
