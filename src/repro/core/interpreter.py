"""Statement-by-statement interpreter for transaction programs.

Executes a transaction's statements against the storage engine until the
program blocks on an entangled query, rolls back, or completes.  Calls to
evaluate an entangled query are blocking (Section 3.1): the interpreter
compiles the query against the *current* host-variable environment —
which is why a second entangled query can use values bound by the first,
as in Figure 2 — and hands control back to the scheduler.

:func:`execute_statement` is the one executor of a classical statement
and :func:`deliver_answer` the one binder of an entangled answer, for
all three front ends: a batch script (:func:`run_until_block`), an
interactive session and a direct storage transaction each call them on
the :class:`~repro.core.transaction.EntangledTransaction` they hold,
with a statement's shared template and its parameters
(:func:`~repro.sql.parser.prepare_statement`), so host variables and
parameters behave identically everywhere and a statement of a known
shape prepares nothing, whichever front end sends it.

Nothing here accounts time: the engine reports each step of a batch
script to its run-event subscribers (:mod:`repro.core.events`), and a
virtual clock's cost model charges the statements that step completed.
"""

from __future__ import annotations

import enum

from repro.entangled.answers import QueryAnswer
from repro.errors import (
    DeadlockError,
    EngineError,
    ReproError,
    SerializationFailureError,
    SnapshotTooOldError,
    TransactionAborted,
    WriteConflictError,
)
from repro.sql.ast import (
    DeleteStmt,
    EntangledSelectStmt,
    InsertStmt,
    Params,
    RollbackStmt,
    SelectStmt,
    SetStmt,
    UpdateStmt,
)
from repro.sql.compiler import (
    compile_delete,
    compile_entangled,
    compile_insert,
    compile_select,
    compile_set,
    compile_update,
)
from repro.storage.engine import WouldBlock
from repro.storage.protocol import Store
from repro.storage.types import SQLValue
from repro.core.transaction import EntangledTransaction


class StepOutcome(enum.Enum):
    """Why the interpreter returned control."""

    BLOCKED_ON_QUERY = "blocked-on-query"
    LOCK_BLOCKED = "lock-blocked"
    ROLLED_BACK = "rolled-back"
    DEADLOCKED = "deadlocked"
    #: SNAPSHOT write lost a first-updater-wins conflict; retry the attempt.
    WRITE_CONFLICT = "write-conflict"
    #: the transaction's snapshot was pruned; restart on a fresh one.
    SNAPSHOT_RESTART = "snapshot-restart"
    #: SSI aborted a SERIALIZABLE commit (dangerous structure); retry.
    SERIALIZATION_FAILURE = "serialization-failure"
    COMPLETED = "completed"


def run_until_block(
    txn: EntangledTransaction,
    store: Store,
    *,
    autocommit: bool = False,
) -> StepOutcome:
    """Execute statements from ``txn.pc`` until a stopping point.

    On BLOCKED_ON_QUERY the transaction's ``pending_query`` holds the
    compiled IR; ``txn.pc`` still points at the entangled statement (it
    advances on :meth:`~repro.core.transaction.EntangledTransaction.resume`).
    On LOCK_BLOCKED the pc also stays on the blocked statement so the
    scheduler can retry it after lock release.

    With ``autocommit=True`` (the paper's non-transactional -Q workloads)
    every classical statement commits its own storage transaction and a
    fresh one is begun for the next statement.
    """
    if txn.storage_txn is None:
        raise EngineError(f"transaction {txn.handle} has no storage transaction")
    # The engine view of the program: the template shared by every
    # script of this shape, executed with this script's parameters.
    statements = txn.program.template
    params = txn.program.params
    while txn.pc < len(statements):
        stmt = statements[txn.pc]
        try:
            if isinstance(stmt, EntangledSelectStmt):
                txn.entangled_ordinal += 1
                query = compile_entangled(
                    stmt, store.db, txn.env, txn.query_id(), params)
                txn.block_on(stmt, query)
                return StepOutcome.BLOCKED_ON_QUERY
            execute_statement(txn, stmt, store, params)
        except WouldBlock:
            return StepOutcome.LOCK_BLOCKED
        except DeadlockError:
            return StepOutcome.DEADLOCKED
        except WriteConflictError:
            return StepOutcome.WRITE_CONFLICT
        except SnapshotTooOldError:
            return StepOutcome.SNAPSHOT_RESTART
        except SerializationFailureError:
            return StepOutcome.SERIALIZATION_FAILURE
        except TransactionAborted as exc:
            txn.abort_reason = exc.reason
            return StepOutcome.ROLLED_BACK
        except ReproError as exc:
            # Statement failure (constraint violation, type error, missing
            # table, ...): the transaction aborts, as "an error is thrown
            # and must be handled by the application code" (Section 3.1).
            txn.abort_reason = f"statement error: {exc}"
            return StepOutcome.ROLLED_BACK
        txn.pc += 1
        if autocommit:
            # Asked before the commit: a finished transaction is unknown.
            isolation = store.isolation_of(txn.storage_txn)
            try:
                store.commit(txn.storage_txn)
            except SerializationFailureError:
                return StepOutcome.SERIALIZATION_FAILURE
            txn.storage_txn = store.begin(isolation=isolation)
    return StepOutcome.COMPLETED


def execute_statement(
    txn: EntangledTransaction,
    stmt,
    store: Store,
    params: Params,
) -> list[tuple["SQLValue | None", ...]]:
    """Execute one classical statement inside ``txn.storage_txn`` — a
    template statement with the ``params`` its leaves read (a literal
    statement is the ``params=()`` case) — binding into ``txn.env``;
    returns a SELECT's rows (``[]`` otherwise).  ROLLBACK raises
    :class:`~repro.errors.TransactionAborted`: ending the transaction is
    its owner's business."""
    assert txn.storage_txn is not None
    if isinstance(stmt, RollbackStmt):
        raise TransactionAborted("explicit ROLLBACK", reason="rollback")
    if isinstance(stmt, InsertStmt):
        compiled = compile_insert(stmt, store.db, txn.env, params)
        store.insert(txn.storage_txn, compiled.table, list(compiled.values))
        return []
    if isinstance(stmt, SetStmt):
        txn.env[f"@{stmt.var}"] = compile_set(stmt, store.db, txn.env, params)
        return []
    if isinstance(stmt, SelectStmt):
        compiled = compile_select(stmt, store.db, txn.env, params)
        values = compiled.values
    elif isinstance(stmt, UpdateStmt):
        compiled = compile_update(stmt, store.db, txn.env, params)
        values = compiled.predicate.values
    elif isinstance(stmt, DeleteStmt):
        compiled = compile_delete(stmt, store.db, txn.env, params)
        values = compiled.predicate.values
    else:
        raise EngineError(f"unsupported statement type {type(stmt).__name__}")
    # Each IN (SELECT ...) is a read of this transaction like any other,
    # run before its statement, which tests the rows it leaves in
    # ``values``.
    for key, subquery in compiled.subqueries:
        values[key] = store.query(
            txn.storage_txn, subquery.query, values, subquery)
    if isinstance(stmt, UpdateStmt):
        # The statement as data, its key bound: picklable, so a sharded
        # store can hand it to each target shard whole.
        store.update_where(txn.storage_txn, compiled.table,
                           compiled.predicate, compiled.assignments)
        return []
    if isinstance(stmt, DeleteStmt):
        store.delete_where(txn.storage_txn, compiled.table, compiled.predicate)
        return []
    rows = store.query(txn.storage_txn, compiled.query, values, compiled.bound)
    first = rows[0] if rows else None
    for var, index in compiled.bindings:
        txn.env[var] = None if first is None else first[index]
    return rows


def deliver_answer(txn: EntangledTransaction, answer: QueryAnswer | None) -> None:
    """Bind a received entangled answer into the host environment.

    ``None`` models the Appendix-B "empty answer" success case: all ``AS
    @var`` bindings become NULL and the transaction proceeds.
    """
    if txn.pending_query is None or txn.pending_stmt is None:
        raise EngineError(f"transaction {txn.handle} has no pending query")
    if answer is not None:
        for var, head_index, position in txn.pending_query.var_bindings:
            atom = answer.tuples[head_index]
            txn.env[var] = atom.values[position]
    else:
        for var, _head_index, _position in txn.pending_query.var_bindings:
            txn.env[var] = None
    txn.resume()
