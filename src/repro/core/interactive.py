"""Interactive entangled transactions (the Section 4 extension).

"Interactive transactions are created by users online, statement by
statement.  Subsequent statements are constructed dynamically, based on
the result of earlier operations.  An interactive user may be willing to
wait a few minutes for his or her entangled query to find partners and
return results.  If results are not forthcoming, then the user may
decide to abort or issue another command.  This interactive model is
suited, for example, to social games."

The paper implements only the non-interactive model and leaves this as
future work; we provide it as an extension.  An
:class:`InteractiveSession` executes statements immediately as the user
types them.  An entangled query does not block the client: it parks the
session in a *waiting* state; :meth:`InteractiveBroker.match_round`
evaluates all waiting queries together (the interactive analogue of a
run's evaluation phase) and resumes sessions whose queries were
answered.  An impatient user may :meth:`~InteractiveSession.cancel` the
pending query and issue different statements instead — the paper's
"decide to abort or issue another command".

Interactive sessions commit individually but still respect widow
prevention: a session that received entangled answers can only commit
once every session it entangled with has also requested commit (the
group-commit rule applied at the session granularity).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.analysis.latch import Latch
from repro.core.groups import GroupTracker, commit_group, evaluate_round
from repro.core.interpreter import deliver_answer, execute_statement
from repro.core.transaction import EntangledTransaction
from repro.entangled.answers import QueryAnswer
from repro.entangled.evaluator import QueryOutcome
from repro.errors import MiddlewareError, TransactionAborted
from repro.sql.ast import EntangledSelectStmt
from repro.sql.compiler import compile_entangled
from repro.sql.parser import prepare_statement
from repro.storage.engine import TxnIsolation
from repro.storage.protocol import Store
from repro.storage.types import SQLValue


class SessionState(enum.Enum):
    OPEN = "open"
    WAITING = "waiting"            # blocked on an entangled query
    COMMIT_PENDING = "commit-pending"  # wants to commit, group not ready
    COMMITTED = "committed"
    ABORTED = "aborted"

    @property
    def is_terminal(self) -> bool:
        return self in (SessionState.COMMITTED, SessionState.ABORTED)


@dataclass
class StatementResult:
    """What one interactive statement produced."""

    rows: list[tuple["SQLValue | None", ...]] = field(default_factory=list)
    pending: bool = False          # True when an entangled query now waits
    answer: QueryAnswer | None = None


class InteractiveSession:
    """One user's statement-by-statement entangled transaction.

    It holds one :class:`~repro.core.transaction.EntangledTransaction`
    (:attr:`txn`) for its lifetime — the same object a batch script is —
    and runs every statement through the batch interpreter's executor on
    it, so host variables, ``SET``, statistics and the pending entangled
    query live where they do for a script.  What is the session's own is
    the client-facing state machine around it.
    """

    def __init__(self, broker: "InteractiveBroker", session_id: int,
                 client: str,
                 isolation: TxnIsolation = TxnIsolation.TWO_PL):
        self.broker = broker
        self.session_id = session_id
        self.client = client
        self.isolation = isolation
        self.state = SessionState.OPEN
        self.txn = EntangledTransaction(handle=session_id, client=client)
        self.txn.start_attempt(broker.store.begin(isolation=isolation))
        # A session that has not executed anything yet must not pin the
        # vacuum horizon: its snapshot is *parked* (deregistered from
        # every shard oracle) until the first statement re-snapshots.
        # Abandoned sessions therefore never block vacuum.
        self._parked = broker.store.park_snapshot(self.storage_txn)

    @property
    def env(self) -> dict[str, "SQLValue | None"]:
        """The host-variable bindings (``AS @var``, ``SET``, answers)."""
        return self.txn.env

    @property
    def storage_txn(self) -> int:
        return self.txn.storage_txn

    # -- statement execution -------------------------------------------------------

    def execute(self, sql: str) -> StatementResult:
        """Execute one statement; entangled queries park the session and
        ``ROLLBACK`` ends it as :meth:`abort` does."""
        self._require(SessionState.OPEN)
        store, txn = self.broker.store, self.txn
        if self._parked:
            # First observation since open/cancel: take a fresh snapshot
            # and rejoin the vacuum horizon.
            store.unpark_snapshot(self.storage_txn)
            self._parked = False
        stmt, params = prepare_statement(sql)
        if isinstance(stmt, EntangledSelectStmt):
            txn.entangled_ordinal += 1
            query_id = f"s{self.session_id}q{txn.entangled_ordinal}"
            txn.block_on(stmt, compile_entangled(
                stmt, store.db, txn.env, query_id, params))
            self.state = SessionState.WAITING
            self.broker._enqueue(self)
            return StatementResult(pending=True)
        try:
            return StatementResult(
                rows=execute_statement(txn, stmt, store, params))
        except TransactionAborted:
            self.abort()
            return StatementResult()

    # -- waiting-state controls -------------------------------------------------------

    @property
    def waiting(self) -> bool:
        return self.state is SessionState.WAITING

    def cancel(self) -> None:
        """Give up on the pending entangled query; the session stays open
        and the user may issue other commands (paper: "the user may
        decide to abort or issue another command").

        A SNAPSHOT session that has not yet read or written anything also
        fully *releases its snapshot horizon* (parks): the vacuum floor
        is no longer pinned by an idle waiter — even one that waits
        forever — and the next statement re-snapshots at the latest
        commit timestamp.  A session that already observed state keeps
        its snapshot (repeatability wins), falling back to an in-place
        refresh when still clean enough."""
        self._require(SessionState.WAITING)
        self.broker._dequeue(self)
        self.txn.resume()  # past the withdrawn statement, nothing bound
        self.state = SessionState.OPEN
        if self.broker.store.park_snapshot(self.storage_txn):
            self._parked = True
        else:
            self.broker.store.refresh_snapshot(self.storage_txn)

    # -- termination ------------------------------------------------------------------

    def commit(self) -> bool:
        """Request commit.  Returns True when committed now; False when
        the session waits for its entanglement group (widow prevention)."""
        self._require(SessionState.OPEN)
        self.state = SessionState.COMMIT_PENDING
        self.broker._try_group_commit(self)
        return self.state is SessionState.COMMITTED

    def abort(self) -> None:
        if self.state in (SessionState.COMMITTED, SessionState.ABORTED):
            raise MiddlewareError(
                f"session {self.session_id} already {self.state.value}")
        self.broker._dequeue(self)
        self.broker.store.abort(self.storage_txn)
        self.state = SessionState.ABORTED
        self.broker._on_abort(self)

    def close(self) -> None:
        """Tear the session down from *any* state (idempotent).

        A non-terminal session — waiting, commit-pending, or one that
        never executed a statement at all — aborts its storage
        transaction, releasing every lock and (via the abort path or the
        park taken at open) its snapshot horizon, so an abandoned
        session can never pin vacuum.  Terminal sessions no-op.
        """
        if self.state.is_terminal:
            return
        if self.state is SessionState.COMMIT_PENDING:
            # The group never completed; withdrawing the commit request
            # aborts this member (and, by widow prevention, its group).
            self.state = SessionState.OPEN
        self.abort()

    def _require(self, expected: SessionState) -> None:
        if self.state is not expected:
            raise MiddlewareError(
                f"session {self.session_id} is {self.state.value}, "
                f"needs {expected.value}")


class InteractiveBroker:
    """Coordinates entangled queries across interactive sessions.

    Internal: :func:`repro.connect` gives every
    :class:`repro.client.Client` one over its store.  A
    :class:`repro.client.Session`'s ``execute()`` is the
    public face (parked queries come back as awaitable/pollable
    :class:`~repro.client.PendingAnswer` objects, and ``Client.pump()``
    drives the matching rounds).  Over a sharded store, sessions
    transparently get vector snapshots and cross-shard group commits
    run the ordered two-phase prepare per member.
    """

    def __init__(
        self,
        store: Store,
        default_isolation: TxnIsolation = TxnIsolation.TWO_PL,
    ):
        self.store = store
        self.default_isolation = default_isolation
        self.groups = GroupTracker()
        #: the sessions whose transaction is unfinished.
        self._sessions: dict[int, InteractiveSession] = {}
        self._waiting: dict[int, InteractiveSession] = {}
        self._next_id = 1
        #: guards session/group bookkeeping: sessions may be driven from
        #: real client threads while commits cascade through groups.
        self._mutex = Latch("interactive-broker")

    def open_session(
        self,
        client: str = "client",
        isolation: TxnIsolation | None = None,
    ) -> InteractiveSession:
        """Open a session; ``isolation`` chooses its read protocol, so
        SNAPSHOT readers and 2PL writers can share one broker (and one
        ``match_round``)."""
        with self._mutex:
            session = InteractiveSession(
                self, self._next_id, client,
                isolation=isolation or self.default_isolation,
            )
            self._next_id += 1
            self._sessions[session.session_id] = session
            self.groups.register(session.session_id)
            return session

    # -- matching ---------------------------------------------------------------------

    def match_round(self) -> int:
        """Evaluate all waiting queries together; returns #answered.

        The interactive analogue of a run's evaluation phase: queries
        whose partners have arrived are answered and their sessions
        resume; the rest keep waiting.  Serialized under the broker
        mutex — any client thread may pump (``PendingAnswer.poll`` /
        ``Client.pump``), and two concurrent rounds would deliver the
        same answers twice.
        """
        with self._mutex:
            return self._match_round_locked()

    def _match_round_locked(self) -> int:
        """Evaluate the waiting queries as one batch
        (:func:`~repro.core.groups.evaluate_round`) and do to each
        *session* what its query's outcome asks.  A session whose
        grounding blocked, or found no partner yet, simply keeps waiting
        for a later round."""
        by_query = {
            s.txn.pending_query.query_id: s
            for s in self._waiting.values() if s.waiting
        }
        if not by_query:
            return 0
        verdict = evaluate_round(self.store, {
            qid: (session.txn.pending_query, session.storage_txn)
            for qid, session in by_query.items()
        })
        if verdict.poisoned is not None:
            # Nobody in a poisoned batch is answered: every participant
            # aborts, as in a run, and the next round is whoever is left.
            # (``close``, here and below: the group cascade of an earlier
            # abort in this round may already have reached the session.)
            for session in by_query.values():
                session.close()
            return 0
        # Entangled partners share a group for widow prevention.
        for component in verdict.components:
            self.groups.entangle(
                *(by_query[qid].session_id for qid in component))
        result = verdict.result
        answered = 0
        for qid, session in sorted(by_query.items()):
            outcome = result.outcome(qid)
            if outcome in (QueryOutcome.ANSWERED, QueryOutcome.EMPTY):
                # The answer (even an empty one) is information derived
                # from this snapshot; once delivered, the snapshot can
                # never be refreshed.
                self.store.pin_snapshot(session.storage_txn)
                deliver_answer(session.txn, result.answer(qid))
                session.state = SessionState.OPEN
                self._waiting.pop(session.session_id, None)
                answered += 1
            elif outcome is QueryOutcome.DEADLOCKED:
                # The victim must release its locks or the cycle would
                # re-form every round; abort surfaces to the client as
                # SessionState.ABORTED, the interactive analogue of the
                # batch engine's deadlock-victim retry.
                session.close()
            elif outcome is QueryOutcome.RESTART:
                # The waiter's snapshot was pruned.  Re-snapshot and
                # retry in a later round when nothing observed the old
                # snapshot; otherwise repeatability cannot be preserved
                # and the session aborts (the interactive analogue of
                # the batch engine's read-restart retry) instead of
                # failing the same way every round forever.
                if not self.store.refresh_snapshot(session.storage_txn):
                    session.close()
        return answered

    # -- internals ----------------------------------------------------------------------

    def _enqueue(self, session: InteractiveSession) -> None:
        with self._mutex:
            self._waiting[session.session_id] = session

    def _dequeue(self, session: InteractiveSession) -> None:
        with self._mutex:
            self._waiting.pop(session.session_id, None)

    def _try_group_commit(self, session: InteractiveSession) -> None:
        """Commit the whole group once every member requested commit.

        :func:`~repro.core.groups.commit_group` validates the group as
        one atomic SSI unit before any member commits — keeping widows
        impossible — and its per-commit guard is a defense-in-depth net
        for failures the simulation could not foresee.  The members'
        logs are flushed before the sessions report COMMITTED state to
        any client (the broker mutex is still held here).
        """
        with self._mutex:
            group = self.groups.group_of(session.session_id)
            members = [self._sessions[sid] for sid in sorted(group)
                       if sid in self._sessions]
            if not all(
                m.state is SessionState.COMMIT_PENDING for m in members
            ):
                return

            def mark_committed(member: InteractiveSession) -> None:
                member.state = SessionState.COMMITTED

            outcome = commit_group(self.store, members, after=mark_committed)
            # Aborting one member cascades to (what is left of) the
            # group; the failure surfaces as ABORTED sessions the
            # clients can retry.
            if outcome.doomed:
                members[0].abort()
            elif outcome.failed is not None:
                outcome.failed.abort()
            else:
                for member in members:
                    self._retire(member)

    def _retire(self, session: InteractiveSession) -> None:
        """A finished session leaves the broker (broker mutex held)."""
        self.groups.forget(session.session_id)
        del self._sessions[session.session_id]

    def _on_abort(self, session: InteractiveSession) -> None:
        """Widow prevention: aborting a session aborts its whole group."""
        with self._mutex:
            group = (
                self.groups.group_of(session.session_id)
                - {session.session_id}
            )
            self._retire(session)
            for sid in sorted(group):
                member = self._sessions.get(sid)
                if member is None or member.state in (
                        SessionState.COMMITTED, SessionState.ABORTED):
                    continue
                member.abort()
