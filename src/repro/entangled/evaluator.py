"""End-to-end evaluation of a batch of entangled queries.

This is the system-side view of Appendix A: safety-check the batch, ground
every matchable query on the current database, search for a coordinating
set, materialize the ANSWER relations, and classify every query's outcome:

* ``ANSWERED`` — the query is in the coordinating set and receives its
  head tuples.
* ``EMPTY`` — a combined query could be formulated (template-level
  partners exist) but evaluation chose no grounding for this query.  Per
  Appendix B this is *query success with an empty answer*: the transaction
  may proceed.
* ``WAIT`` — no combined query including this query could be formulated
  (no head in the batch unifies with some postcondition).  The query has
  *failed* for now; the transaction must wait for partners (and the
  run-based scheduler returns it to the dormant pool).
* ``UNSAFE`` — the query violates safety and is never answered.
* ``BLOCKED`` — the query's grounding reads hit a lock conflict this
  round; it stays pending and is retried once the conflict clears.
* ``DEADLOCKED`` — granting the query's grounding-read locks would have
  closed a waits-for cycle; the owning transaction is the victim.

For correctness "it is necessary to ensure that the underlying database is
not changed while [evaluation] is being carried out" (Appendix A) — the
coordinator guarantees this by supplying a lock-acquiring ``read_observer``
per query (``read_observer_for``): grounding then locks exactly the access
paths it takes (index keys, rows, scans), so entangled evaluation of
disjoint groups no longer serializes on whole tables.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.entangled.answers import AnswerRelationSet, QueryAnswer
from repro.entangled.grounding import Grounding, ground
from repro.entangled.ir import EntangledQuery
from repro.entangled.matching import MatchResult, find_coordinating_set
from repro.entangled.safety import SafetyReport, analyze
from repro.errors import DeadlockError, SnapshotTooOldError
from repro.storage.engine import WouldBlock
from repro.storage.query import ReadObserver, Reads, TableProvider
from repro.storage.types import SQLValue


class QueryOutcome(enum.Enum):
    ANSWERED = "answered"
    EMPTY = "empty"
    WAIT = "wait"
    UNSAFE = "unsafe"
    BLOCKED = "lock-blocked"
    DEADLOCKED = "deadlocked"
    #: the query's snapshot was pruned mid-wait; the owning transaction
    #: must restart its attempt on a fresh snapshot (a *read restart*).
    RESTART = "snapshot-restart"


@dataclass
class EvaluationResult:
    """The complete result of one evaluation round."""

    outcomes: dict[str, QueryOutcome] = field(default_factory=dict)
    answers: dict[str, QueryAnswer] = field(default_factory=dict)
    relation_set: AnswerRelationSet = field(default_factory=AnswerRelationSet)
    grounding_reads: dict[str, list[str]] = field(default_factory=dict)
    groundings_per_query: dict[str, int] = field(default_factory=dict)
    safety: SafetyReport = field(default_factory=SafetyReport)
    match: MatchResult = field(default_factory=MatchResult)

    def outcome(self, query_id: str) -> QueryOutcome:
        return self.outcomes[query_id]

    def answer(self, query_id: str) -> QueryAnswer | None:
        return self.answers.get(query_id)

    def answered_ids(self) -> list[str]:
        return sorted(
            qid
            for qid, outcome in self.outcomes.items()
            if outcome is QueryOutcome.ANSWERED
        )


def evaluate_batch(
    queries: Sequence[EntangledQuery],
    provider: TableProvider,
    *,
    params: Mapping[str, Mapping[str, "SQLValue | None"]] | None = None,
    node_budget: int = 200_000,
    read_observer_for: Mapping[str, ReadObserver] | None = None,
    provider_for: Mapping[str, TableProvider] | None = None,
) -> EvaluationResult:
    """Evaluate a batch of entangled queries against ``provider``.

    ``params`` maps query id -> host-variable bindings for that query's
    body predicate (``@var`` names).

    ``read_observer_for`` maps query id -> a read observer threaded into
    that query's grounding evaluation — the coordinator passes
    lock-acquiring observers here.  An observer that raises ``WouldBlock``
    sidelines just its query for this round (outcome ``BLOCKED``); one
    that raises ``DeadlockError`` marks it ``DEADLOCKED``.  Either way the
    rest of the batch proceeds.

    ``provider_for`` maps query id -> a per-query table provider — the
    coordinator grounds SNAPSHOT transactions' queries through their own
    :class:`~repro.storage.snapshot.SnapshotDatabase` here, so each query
    reads its owner's consistent past without locks.  A pruned snapshot
    (:class:`~repro.errors.SnapshotTooOldError`) yields ``RESTART``.

    The pipeline is deterministic: identical batches on identical database
    states produce identical results (the determinism assumption the formal
    model relies on, Appendix C.1).
    """
    result = EvaluationResult()
    params = params or {}
    observers = read_observer_for or {}
    providers = provider_for or {}
    result.safety = analyze(queries)
    unsafe = set(result.safety.unsafe)
    unmatchable = set(result.safety.unmatchable)

    groundings_by_query: dict[str, list[Grounding]] = {}
    for query in queries:
        if query.query_id in unsafe:
            result.outcomes[query.query_id] = QueryOutcome.UNSAFE
            continue
        if query.query_id in unmatchable:
            result.outcomes[query.query_id] = QueryOutcome.WAIT
            continue
        # Its observer may raise WouldBlock / DeadlockError; with none
        # given, one that only books the tables read.
        observe = Reads.of(observers.get(query.query_id)) or Reads()
        try:
            groundings = ground(
                query,
                providers.get(query.query_id, provider),
                params=params.get(query.query_id),
                read_observer=observe,
            )
        except WouldBlock:
            result.outcomes[query.query_id] = QueryOutcome.BLOCKED
            continue
        except DeadlockError:
            result.outcomes[query.query_id] = QueryOutcome.DEADLOCKED
            continue
        except SnapshotTooOldError:
            result.outcomes[query.query_id] = QueryOutcome.RESTART
            continue
        result.grounding_reads[query.query_id] = sorted(observe.tables)
        result.groundings_per_query[query.query_id] = len(groundings)
        groundings_by_query[query.query_id] = groundings

    result.match = find_coordinating_set(
        groundings_by_query, node_budget=node_budget
    )
    result.relation_set = result.match.answers

    for query in queries:
        qid = query.query_id
        if qid in result.outcomes:
            continue  # UNSAFE / WAIT / BLOCKED / DEADLOCKED already assigned
        grounding = result.match.chosen.get(qid)
        if grounding is None:
            result.outcomes[qid] = QueryOutcome.EMPTY
        else:
            result.outcomes[qid] = QueryOutcome.ANSWERED
            result.answers[qid] = QueryAnswer(qid, grounding.heads)
    return result
