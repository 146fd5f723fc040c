"""Property test: snapshot probes stay O(matching + per-key history).

PR 2's snapshot probes unioned the table's *entire* historic-rid set
into every candidate list, so a delete/re-key-heavy window between
vacuums degraded every probe toward a linear scan.  The per-key history
maps fix that: a probe may only examine the rids the current index maps
to its key plus the rids that *historically* carried that exact key.

Hypothesis drives interleaved inserts, deletes, re-keys (secondary and
primary), and vacuums around an open snapshot, then checks — for every
key — that

* ``SnapshotView.lookup_index`` / ``lookup_pk`` return exactly what a
  full ``scan()`` filter returns (correctness is untouched), and
* the probe visits no more candidate rids than current matches plus the
  probed key's own history posting (counted by instrumenting
  ``Table.version_read``), independent of churn under *other* keys.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import ColumnType, StorageEngine, TableSchema

GROUPS = 4  # distinct secondary-index key values


def build_engine(n_rows: int) -> StorageEngine:
    engine = StorageEngine()
    engine.vacuum_interval = 0  # vacuums happen only where the test says
    engine.create_table(TableSchema.build(
        "T",
        [("k", ColumnType.INTEGER), ("g", ColumnType.INTEGER),
         ("v", ColumnType.INTEGER)],
        primary_key=["k"],
        indexes=[["g"]],
    ))
    engine.load("T", [(i, i % GROUPS, 0) for i in range(n_rows)])
    return engine


@st.composite
def churn(draw):
    """(initial rows, ops before snapshot, ops after snapshot)."""
    n_rows = draw(st.integers(min_value=4, max_value=12))
    def ops(max_len):
        return draw(st.lists(
            st.tuples(
                st.sampled_from(
                    ("delete", "rekey", "repk", "insert", "vacuum")
                ),
                st.integers(min_value=0, max_value=10_000),
            ),
            max_size=max_len,
        ))
    return n_rows, ops(8), ops(16)


def apply_op(engine: StorageEngine, op: str, arg: int, next_pk: list[int]) -> None:
    table = engine.db.table("T")
    txn = engine.begin()
    rids = table.rids()
    if op == "vacuum":
        engine.vacuum()  # horizon = oldest active snapshot
    elif op == "insert":
        engine.insert(txn, "T", (next_pk[0], arg % GROUPS, 0))
        next_pk[0] += 1
    elif rids:
        rid = rids[arg % len(rids)]
        row = table.get(rid)
        if op == "delete":
            engine.delete(txn, "T", rid)
        elif op == "rekey":
            engine.update(
                txn, "T",
                rid, (row.values[0], (row.values[1] + 1 + arg) % GROUPS, 1),
            )
        else:  # repk: move the row to a fresh primary key
            engine.update(
                txn, "T", rid, (next_pk[0], row.values[1], row.values[2])
            )
            next_pk[0] += 1
    engine.commit(txn)


class _ReadCounter:
    """Counts Table.version_read calls (the per-candidate visibility
    check) so the test can bound how many candidates a probe examined."""

    def __init__(self, table):
        self.table = table
        self.calls = 0
        self._original = table.version_read

    def __enter__(self):
        def counting(rid, txn, read_ts):
            self.calls += 1
            return self._original(rid, txn, read_ts)
        self.table.version_read = counting
        return self

    def __exit__(self, *exc):
        self.table.version_read = self._original
        return False


@settings(max_examples=120, deadline=None, derandomize=True)
@given(scenario=churn())
def test_probe_cost_is_bounded_by_matches_plus_per_key_history(scenario):
    n_rows, before_ops, after_ops = scenario
    engine = build_engine(n_rows)
    next_pk = [10_000]  # fresh primary keys, disjoint from the loaded ones
    for op, arg in before_ops:
        apply_op(engine, op, arg, next_pk)

    from repro.storage.engine import TxnIsolation
    reader = engine.begin(TxnIsolation.SNAPSHOT)
    view = engine.snapshot_provider(reader).table("T")

    for op, arg in after_ops:
        apply_op(engine, op, arg, next_pk)

    table = engine.db.table("T")
    snapshot_rows = list(view.scan())

    # Secondary-index probes: exact answers, per-key-bounded cost.
    index = table.secondary_index(("g",))
    for g in range(GROUPS):
        expected = [r for r in snapshot_rows if r.values[1] == g]
        with _ReadCounter(table) as counter:
            got = view.lookup_index(("g",), (g,))
        assert [r.rid for r in got] == [r.rid for r in expected]
        budget = len(index.lookup((g,))) + len(
            table.history_rids_for_index(("g",), (g,))
        )
        assert counter.calls <= budget, (
            f"g={g}: probe visited {counter.calls} candidates, "
            f"budget {budget} (history total {len(table.history_rids())})"
        )

    # Primary-key probes: same contract, bucket of exactly one key.
    by_pk = {r.values[0]: r for r in snapshot_rows}
    probe_keys = set(by_pk) | {n_rows + 1, 10_000}  # include misses
    for k in sorted(probe_keys):
        with _ReadCounter(table) as counter:
            got = view.lookup_pk((k,))
        expected_row = by_pk.get(k)
        if expected_row is None:
            assert got is None
        else:
            assert got is not None and got.rid == expected_row.rid
        budget = 1 + len(table.history_rids_for_pk((k,)))
        assert counter.calls <= budget, (
            f"pk={k}: probe visited {counter.calls} candidates, "
            f"budget {budget} (history total {len(table.history_rids())})"
        )

    # Releasing the snapshot and vacuuming drains the history maps: the
    # probes' extra candidates cannot grow without bound in long runs.
    engine.abort(reader)
    engine.vacuum()
    assert table.history_rids() == frozenset()
    assert all(len(tree) == 0 for tree in table._history_ordered.values())
    assert not table._history_entries


# -- the range twin: a LIMIT-k range read costs the prefix, not the bounds ---------------

#: pk bounds: around the loaded keys (0..11) and around the fresh keys
#: ``repk`` moves rows to (10_000..), so re-keys carry rows *across* them.
PK_BOUNDS = st.one_of(
    st.none(), st.integers(-1, 13), st.integers(9_998, 10_012))
G_BOUNDS = st.one_of(st.none(), st.integers(-1, GROUPS))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(scenario=churn(), data=st.data())
def test_range_scan_is_the_scan_prefix_and_costs_the_prefix(scenario, data):
    n_rows, before_ops, after_ops = scenario
    engine = build_engine(n_rows)
    next_pk = [10_000]
    for op, arg in before_ops:
        apply_op(engine, op, arg, next_pk)

    from repro.storage.bptree import value_sort_key
    from repro.storage.engine import TxnIsolation
    reader = engine.begin(TxnIsolation.SNAPSHOT)
    view = engine.snapshot_provider(reader).table("T")

    for op, arg in after_ops:
        apply_op(engine, op, arg, next_pk)

    table = engine.db.table("T")
    snapshot_rows = list(view.scan())
    index = table.secondary_index(("g",))
    # Per key: every rid the walk may have to look at under it.
    candidates = {
        ("k",): lambda key: (
            {table.pk_rid(key)} - {None}) | table.history_rids_for_pk(key),
        ("g",): lambda key: (
            index.lookup(key) | table.history_rids_for_index(("g",), key)),
    }
    known_keys = {
        ("k",): set(table._pk_index)
        | set(table._history_ordered[("k",)].keys_in_range()),
        ("g",): set(index._buckets)
        | set(table._history_ordered[("g",)].keys_in_range()),
    }

    for cols, position, bounds in ((("k",), 0, PK_BOUNDS), (("g",), 1, G_BOUNDS)):
        for _ in range(4):
            lo, hi = data.draw(bounds), data.draw(bounds)
            lo_inc, hi_inc = data.draw(st.booleans()), data.draw(st.booleans())
            reverse = data.draw(st.booleans())
            limit = data.draw(st.one_of(st.none(), st.integers(0, 6)))

            def within(value):
                if lo is not None and (value < lo or (value == lo and not lo_inc)):
                    return False
                if hi is not None and (value > hi or (value == hi and not hi_inc)):
                    return False
                return True

            expected = sorted(
                (r for r in snapshot_rows if within(r.values[position])),
                key=lambda r: (value_sort_key(r.values[position]), r.rid),
                reverse=reverse,
            )[:limit]
            with _ReadCounter(table) as counter:
                got = view.range_scan(
                    cols,
                    None if lo is None else (lo,), None if hi is None else (hi,),
                    lo_inc=lo_inc, hi_inc=hi_inc, reverse=reverse, limit=limit,
                )
            assert [r.rid for r in got] == [r.rid for r in expected]

            # Budget: the candidates under the in-bounds keys up to the
            # one the limit was spent at (all of them if it never was) —
            # the rows returned plus whatever had to be rejected on the
            # way.  Keys past that one, and every key outside the bounds,
            # contribute nothing however much history they carry.
            examined = [key for key in known_keys[cols] if within(key[0])]
            if limit == 0:
                examined = []
            elif limit is not None and len(got) == limit:
                stop = got[-1].values[position]
                examined = [
                    key for key in examined
                    if (key[0] >= stop if reverse else key[0] <= stop)
                ]
            budget = sum(len(candidates[cols](key)) for key in examined)
            assert counter.calls <= budget, (
                f"{cols} [{lo}, {hi}] reverse={reverse} limit={limit}: "
                f"{counter.calls} version reads, budget {budget} "
                f"(history total {len(table.history_rids())})"
            )

    engine.abort(reader)
    engine.vacuum()
    assert table.history_rids() == frozenset()
    assert all(len(tree) == 0 for tree in table._history_ordered.values())
