"""The system meets the theory: recorded executions satisfy the model.

For randomized mixes of entangled pairs, classical transactions, and
rollbacks, the engine under FULL isolation must produce schedules that
are entangled-isolated (Definition C.5) — and therefore, by Theorem 3.6,
oracle-serializable.  This is the strongest end-to-end guarantee the
paper makes, checked mechanically.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import Client
from repro.core import EngineConfig, IsolationConfig
from repro.model import (
    check_isolation,
    IsolationLevel,
    find_widowed_transactions,
    is_entangled_isolated,
)
from repro.storage import ColumnType, TableSchema

from _batch import submit, system_for


def build_system(isolation=IsolationConfig.FULL) -> Client:
    system = system_for(EngineConfig(
        record_schedule=True, isolation=isolation))
    system.create_table(TableSchema.build(
        "Items", [("item", ColumnType.INTEGER), ("kind", ColumnType.TEXT)],
        primary_key=["item"], indexes=[["kind"]]))
    system.create_table(TableSchema.build(
        "Claims", [("who", ColumnType.TEXT), ("item", ColumnType.INTEGER)]))
    system.create_table(TableSchema.build(
        "Log", [("who", ColumnType.TEXT)]))
    system.load("Items", [(i, "gem" if i % 2 else "ore") for i in range(1, 9)])
    return system


def entangled_pair(a: str, b: str, kind: str) -> tuple[str, str]:
    def one(me: str, friend: str) -> str:
        return f"""
            BEGIN TRANSACTION WITH TIMEOUT 1 DAYS;
            SELECT '{me}', item AS @item INTO ANSWER Pick
            WHERE item IN (SELECT item FROM Items WHERE kind='{kind}')
            AND ('{friend}', item) IN ANSWER Pick
            CHOOSE 1;
            INSERT INTO Claims (who, item) VALUES ('{me}', @item);
            COMMIT;
        """
    return one(a, b), one(b, a)


CLASSICAL = """
    BEGIN TRANSACTION;
    SELECT item AS @i FROM Items WHERE kind='gem' LIMIT 1;
    INSERT INTO Log (who) VALUES ('{who}');
    COMMIT;
"""

ROLLBACK = """
    BEGIN TRANSACTION;
    INSERT INTO Log (who) VALUES ('{who}');
    ROLLBACK;
    COMMIT;
"""


@settings(max_examples=25, deadline=None)
@given(
    pair_count=st.integers(0, 3),
    classical_count=st.integers(0, 3),
    rollback_count=st.integers(0, 2),
    interleave_seed=st.randoms(use_true_random=False),
)
def test_property_recorded_schedules_are_entangled_isolated(
    pair_count, classical_count, rollback_count, interleave_seed
):
    system = build_system()
    programs = []
    for pair in range(pair_count):
        kind = "gem" if pair % 2 else "ore"
        left, right = entangled_pair(f"a{pair}", f"b{pair}", kind)
        programs.append(left)
        programs.append(right)
    for i in range(classical_count):
        programs.append(CLASSICAL.format(who=f"c{i}"))
    for i in range(rollback_count):
        programs.append(ROLLBACK.format(who=f"r{i}"))
    interleave_seed.shuffle(programs)
    for program in programs:
        submit(system, program)
    system.drain(max_runs=20)

    schedule = system.engine.recorded_schedule()
    check = check_isolation(schedule, IsolationLevel.FULL_ENTANGLED)
    assert check.ok, [str(v) for v in check.violations]


def test_entangled_pairs_claim_same_item():
    system = build_system()
    left, right = entangled_pair("alice", "bob", "gem")
    a = submit(system, left, "alice")
    b = submit(system, right, "bob")
    report = system.run()
    assert sorted(report.committed) == [a, b]
    claims = dict(system.query("SELECT who, item FROM Claims"))
    assert claims["alice"] == claims["bob"]


def test_relaxed_isolation_breaks_the_guarantee():
    """The control experiment: under NO_GROUP_COMMIT a partner abort
    produces a widowed schedule — the guarantee really does come from
    group commit, not from luck."""
    system = build_system(isolation=IsolationConfig.NO_GROUP_COMMIT)
    left, _right = entangled_pair("alice", "bob", "gem")
    aborting_right = """
        BEGIN TRANSACTION WITH TIMEOUT 1 DAYS;
        SELECT 'bob', item INTO ANSWER Pick
        WHERE item IN (SELECT item FROM Items WHERE kind='gem')
        AND ('alice', item) IN ANSWER Pick
        CHOOSE 1;
        ROLLBACK;
        COMMIT;
    """
    submit(system, left, "alice")
    submit(system, aborting_right, "bob")
    system.run()
    schedule = system.engine.recorded_schedule()
    assert find_widowed_transactions(schedule)
    assert not is_entangled_isolated(schedule)
