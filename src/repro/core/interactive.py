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
from typing import Any

from repro.analysis.latch import Latch
from repro.core.groups import GroupTracker, commit_group
from repro.entangled.answers import QueryAnswer
from repro.entangled.evaluator import QueryOutcome, evaluate_batch
from repro.errors import MiddlewareError
from repro.sql.ast import EntangledSelectStmt, SelectStmt, Statement
from repro.sql.compiler import compile_entangled, compile_select
from repro.sql.parser import parse_statement
from repro.storage.engine import StorageEngine, TxnIsolation
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
    """One user's statement-by-statement entangled transaction."""

    def __init__(self, broker: "InteractiveBroker", session_id: int,
                 client: str,
                 isolation: TxnIsolation = TxnIsolation.TWO_PL):
        self.broker = broker
        self.session_id = session_id
        self.client = client
        self.isolation = isolation
        self.state = SessionState.OPEN
        self.env: dict[str, "SQLValue | None"] = {}
        self.storage_txn = broker.store.begin(isolation=isolation)
        # A session that has not executed anything yet must not pin the
        # vacuum horizon: its snapshot is *parked* (deregistered from
        # every shard oracle) until the first statement re-snapshots.
        # Abandoned sessions therefore never block vacuum.
        self._parked = broker.store.park_snapshot(self.storage_txn)
        self._pending_stmt: EntangledSelectStmt | None = None
        self._pending_query = None
        self._query_counter = 0

    # -- statement execution -------------------------------------------------------

    def execute(self, sql: str) -> StatementResult:
        """Execute one statement; entangled queries park the session."""
        self._require(SessionState.OPEN)
        if self._parked:
            # First observation since open/cancel: take a fresh snapshot
            # and rejoin the vacuum horizon.
            self.broker.store.unpark_snapshot(self.storage_txn)
            self._parked = False
        stmt = parse_statement(sql)
        return self._execute_parsed(stmt)

    def _execute_parsed(self, stmt: Statement) -> StatementResult:
        from repro.core.interpreter import _execute_classical
        from repro.core.transaction import EntangledTransaction

        if isinstance(stmt, EntangledSelectStmt):
            self._query_counter += 1
            query_id = f"s{self.session_id}q{self._query_counter}"
            query = compile_entangled(
                stmt, self.broker.store.db, self.env, query_id)
            self._pending_stmt = stmt
            self._pending_query = query
            self.state = SessionState.WAITING
            self.broker._enqueue(self)
            return StatementResult(pending=True)

        # Reuse the batch interpreter's classical execution by adapting
        # the session into the transaction shape it expects.
        carrier = EntangledTransaction(
            handle=self.session_id, client=self.client,
            program=_EMPTY_PROGRAM)
        carrier.env = self.env
        carrier.storage_txn = self.storage_txn
        from repro.core.interpreter import NullCostTap

        if isinstance(stmt, SelectStmt):
            compiled = compile_select(stmt, self.broker.store.db, self.env)
            rows = self.broker.store.query(self.storage_txn, compiled.plan)
            first = rows[0] if rows else None
            for var, index in compiled.bindings:
                self.env[var] = None if first is None else first[index]
            return StatementResult(rows=rows)
        _execute_classical(carrier, stmt, self.broker.store, NullCostTap())
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
        self._pending_stmt = None
        self._pending_query = None
        self.state = SessionState.OPEN
        if self.broker.store.park_snapshot(self.storage_txn):
            self._parked = True
        else:
            self.broker.store.refresh_snapshot(self.storage_txn)

    def _deliver(self, answer: QueryAnswer | None) -> None:
        assert self._pending_query is not None
        # The answer (even an empty one) is information derived from this
        # snapshot; once delivered, the snapshot can never be refreshed.
        self.broker.store.pin_snapshot(self.storage_txn)
        if answer is not None:
            for var, head_index, position in self._pending_query.var_bindings:
                atom = answer.tuples[head_index]
                self.env[var] = atom.values[position]
        else:
            for var, _h, _p in self._pending_query.var_bindings:
                self.env[var] = None
        self._pending_stmt = None
        self._pending_query = None
        self.state = SessionState.OPEN

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
        store: StorageEngine,
        default_isolation: TxnIsolation = TxnIsolation.TWO_PL,
    ):
        self.store = store
        self.default_isolation = default_isolation
        self.groups = GroupTracker()
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
        waiting = [s for s in self._waiting.values() if s.waiting]
        if not waiting:
            return 0
        # Grounding read locks at access-path granularity, exactly as the
        # batch engine takes them: a lock-acquiring observer per 2PL
        # session.  A session whose grounding blocks (or would deadlock)
        # simply keeps waiting for a later round.  SNAPSHOT sessions
        # instead ground against their own snapshot provider — lock-free,
        # so they can never hold up (or be held up by) the writers in the
        # same round.
        evaluable = list(waiting)
        observers = {}
        providers = {}
        for session in evaluable:
            qid = session._pending_query.query_id
            observer, provider = self.store.grounding_hooks(
                session.storage_txn
            )
            observers[qid] = observer
            if provider is not None:
                providers[qid] = provider
        queries = [s._pending_query for s in evaluable]
        result = evaluate_batch(
            queries, self.store.db, read_observer_for=observers,
            provider_for=providers or None,
        )
        answered = 0
        by_query = {s._pending_query.query_id: s for s in evaluable}
        # Entangled partners share a group for widow prevention.
        components: dict[Any, list[int]] = {}
        for qid in result.answered_ids():
            session = by_query[qid]
            grounding = result.match.chosen[qid]
            for atom in grounding.heads:
                components.setdefault(atom, []).append(session.session_id)
        for qid, session in sorted(by_query.items()):
            outcome = result.outcome(qid)
            if outcome is QueryOutcome.ANSWERED:
                grounding = result.match.chosen[qid]
                for atom in grounding.postconditions:
                    for provider in components.get(atom, ()):
                        if provider != session.session_id:
                            self.groups.entangle(session.session_id, provider)
                session._deliver(result.answer(qid))
                self._waiting.pop(session.session_id, None)
                answered += 1
            elif outcome is QueryOutcome.EMPTY:
                session._deliver(None)
                self._waiting.pop(session.session_id, None)
                answered += 1
            elif outcome is QueryOutcome.DEADLOCKED:
                # The victim must release its locks or the cycle would
                # re-form every round; abort surfaces to the client as
                # SessionState.ABORTED, the interactive analogue of the
                # batch engine's deadlock-victim retry.
                session.abort()
            elif outcome is QueryOutcome.RESTART:
                # The waiter's snapshot was pruned.  Re-snapshot and
                # retry in a later round when nothing observed the old
                # snapshot; otherwise repeatability cannot be preserved
                # and the session aborts (the interactive analogue of
                # the batch engine's read-restart retry) instead of
                # failing the same way every round forever.
                if not self.store.refresh_snapshot(session.storage_txn):
                    session.abort()
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
                    self.groups.forget(member.session_id)

    def _on_abort(self, session: InteractiveSession) -> None:
        """Widow prevention: aborting a session aborts its whole group."""
        with self._mutex:
            group = (
                self.groups.group_of(session.session_id)
                - {session.session_id}
            )
            self.groups.forget(session.session_id)
            for sid in sorted(group):
                member = self._sessions.get(sid)
                if member is None or member.state in (
                        SessionState.COMMITTED, SessionState.ABORTED):
                    continue
                member.abort()


# Adapter plumbing for reusing the batch interpreter.
from repro.sql.ast import TransactionProgram as _TP

_EMPTY_PROGRAM = _TP((), None)
