"""Entanglement-aware restart recovery (Section 4, "Persistence and
Recovery"; Section 5.1 "stateless middleware").

"In processing entangled transactions, the system maintains additional
state to keep track of the transactions that are currently in the system
and awaiting partners.  It also may be keeping track of who has entangled
with whom in order to enforce group commits.  This state must be made
persistent ... the recovery algorithm must be entanglement-aware.  For
example, if two transactions entangle and only one manages to commit
prior to a crash, both must be rolled back during recovery."

The engine persists its state into ``_youtopia_*`` tables:

* ``_youtopia_pool`` — the dormant pool (handle, client, program SQL,
  arrival time); rows are deleted atomically inside each transaction's
  commit, so a crash never loses or duplicates queued work.
* ``_youtopia_commits`` — one row per committed group member
  ``(storage_txn, group_id, group_size)``, written inside the member's
  own transaction.

Restart proceeds in three steps:

1. **Scan the durable WAL** for ``_youtopia_commits`` inserts by
   committed transactions.  A group whose recorded member count is short
   of ``group_size`` committed only partially before the crash — all its
   recorded members are *demoted* to losers.
2. **Run storage recovery** (:func:`repro.storage.recovery.recover`) with
   that demotion set: winners are redone, losers (including demoted
   group members) are undone.
3. **Rebuild the middle tier**: a fresh engine is constructed over the
   recovered database and the dormant pool is re-submitted from
   ``_youtopia_pool`` — which, thanks to the rollbacks, again contains
   every transaction that did not durably group-commit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.engine import EngineConfig, EntangledTransactionEngine
from repro.core.policies import RunPolicy
from repro.errors import RecoveryError
from repro.storage.engine import StorageEngine
from repro.storage.expressions import RowPredicate
from repro.storage.recovery import RecoveryReport, recover
from repro.storage.wal import LogRecordType


@dataclass
class EntangledRecoveryReport:
    """What entanglement-aware restart did."""

    storage: RecoveryReport
    demoted: set[int] = field(default_factory=set)
    partial_groups: list[tuple[int, int, int]] = field(default_factory=list)
    resubmitted: list[int] = field(default_factory=list)


def find_partial_groups(store: StorageEngine) -> tuple[set[int], list[tuple[int, int, int]]]:
    """Scan the durable WAL(s) for partially committed entanglement groups.

    Returns (storage txns to demote, [(group_id, present, expected), ...]).

    Under sharding the commits-table rows are scattered across the
    per-shard WALs, so every shard's log is scanned; "committed" means
    durably committed in *every* written shard (a torn cross-shard
    commit is already bound for rollback and must not count toward its
    group's tally).
    """
    committed = store.durably_committed_txns()
    members: dict[int, list[int]] = {}
    expected: dict[int, int] = {}
    for wal in store.wals():
        for record in wal.records(durable_only=True):
            if (
                record.type is LogRecordType.INSERT
                and record.table == EntangledTransactionEngine.COMMITS_TABLE
                and record.txn in committed
            ):
                storage_txn, group_id, group_size = record.after
                members.setdefault(group_id, []).append(storage_txn)
                previous = expected.setdefault(group_id, group_size)
                if previous != group_size:
                    raise RecoveryError(
                        f"group {group_id} recorded inconsistent sizes "
                        f"{previous} and {group_size}"
                    )
    demote: set[int] = set()
    partial: list[tuple[int, int, int]] = []
    for group_id, present in sorted(members.items()):
        size = expected[group_id]
        if len(present) < size:
            demote.update(present)
            partial.append((group_id, len(present), size))
    return demote, partial


def recover_entangled(
    crashed: StorageEngine,
    config: EngineConfig | None = None,
    policy: RunPolicy | None = None,
) -> tuple[EntangledTransactionEngine, EntangledRecoveryReport]:
    """Entanglement-aware restart: storage recovery + middle-tier rebuild.

    ``crashed`` must be the engine returned by
    :meth:`StorageEngine.crash` (empty tables, surviving WAL).  Returns
    the rebuilt middle tier and a report.
    """
    demote, partial = find_partial_groups(crashed)
    storage_report = recover(crashed, demote_to_loser=demote)

    config = config or EngineConfig(persist_state=True)
    if not config.persist_state:
        raise RecoveryError(
            "entanglement-aware recovery requires persist_state engines"
        )
    engine = EntangledTransactionEngine(crashed, config, policy)

    report = EntangledRecoveryReport(
        storage=storage_report, demoted=demote, partial_groups=partial
    )

    # Re-submit the dormant pool from the recovered table.  The demoted
    # transactions' pool-row deletions were rolled back with them, so they
    # reappear here and will be re-executed.
    pool_table = crashed.db.table(EntangledTransactionEngine.POOL_TABLE)
    rows = sorted(pool_table.scan(), key=lambda row: row.values[0])
    # Clear the persisted pool first: submit() re-inserts each entry under
    # its new handle, keeping table and in-memory pool consistent.
    system = crashed.begin()
    crashed.delete_where(system, EntangledTransactionEngine.POOL_TABLE,
                         RowPredicate((), None))
    crashed.commit(system)
    for row in rows:
        _handle, client, program_sql, submitted_at = row.values
        if not program_sql:
            raise RecoveryError(
                f"pool entry {_handle} has no program text; transactions "
                f"submitted as ASTs cannot be recovered"
            )
        new_handle = engine.submit(program_sql, client=client, at=submitted_at)
        report.resubmitted.append(new_handle)
    return engine, report
