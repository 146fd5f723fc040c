"""Pinned tests for documented behaviors at the edge of the design.

These are not bugs but consequences of Strict 2PL + group commit that the
paper's own workloads avoid (see DESIGN.md "Known behaviors"); the tests
pin them so a change in behavior is noticed and re-documented.
"""


from repro.client import Client
from repro.storage import ColumnType, TableSchema

from _batch import submit, system_for


def system_with_counter() -> Client:
    system = system_for()
    system.create_table(TableSchema.build(
        "Slots",
        [("slot", ColumnType.INTEGER), ("free", ColumnType.INTEGER)],
        primary_key=["slot"]))
    system.create_table(TableSchema.build(
        "Taken", [("who", ColumnType.TEXT), ("slot", ColumnType.INTEGER)]))
    system.load("Slots", [(1, 10)])
    return system


def grab(me: str, friend: str) -> str:
    """Coordinate on a slot, then UPDATE the *same grounded table* —
    the pattern that upgrade-deadlocks under Strict 2PL."""
    return f"""
        BEGIN TRANSACTION WITH TIMEOUT 1 DAYS;
        SELECT '{me}', slot AS @slot INTO ANSWER Pick
        WHERE slot IN (SELECT slot FROM Slots WHERE free > 0)
        AND ('{friend}', slot) IN ANSWER Pick
        CHOOSE 1;
        UPDATE Slots SET free = free - 1 WHERE slot = @slot;
        COMMIT;
    """


class TestWriteAfterGroundLivelock:
    def test_pair_retries_without_crashing(self):
        # Both partners ground on Slots then write it: the S->X upgrade
        # deadlocks, the victim resets, the survivor's group is then
        # incomplete, and the whole pair is returned to the pool.  The
        # engine must stay healthy (no exception, no widow, no partial
        # write) — the pair simply never commits.
        system = system_with_counter()
        a = submit(system, grab("A", "B"), "a")
        b = submit(system, grab("B", "A"), "b")
        report = system.run()
        assert report.committed == []
        assert sorted(report.returned_to_pool) == [a, b]
        # No partial effects leaked.
        assert [tuple(r.values) for r in
                system.store.db.table("Slots").scan()] == [(1, 10)]

    def test_drain_detects_no_progress(self):
        system = system_with_counter()
        submit(system, grab("A", "B"), "a")
        submit(system, grab("B", "A"), "b")
        reports = system.drain(max_runs=10)
        # drain() stops as soon as a run makes no progress.
        assert len(reports) < 10
        assert len(system.engine.unfinished()) == 2

    def test_disjoint_ground_and_write_tables_commit_fine(self):
        # The discipline the paper's workloads follow: ground on Slots,
        # write Taken — no upgrade, the pair commits.
        system = system_with_counter()
        program = """
            BEGIN TRANSACTION WITH TIMEOUT 1 DAYS;
            SELECT '{me}', slot AS @slot INTO ANSWER Pick
            WHERE slot IN (SELECT slot FROM Slots WHERE free > 0)
            AND ('{friend}', slot) IN ANSWER Pick
            CHOOSE 1;
            INSERT INTO Taken (who, slot) VALUES ('{me}', @slot);
            COMMIT;
        """
        a = submit(system, program.format(me="A", friend="B"), "a")
        b = submit(system, program.format(me="B", friend="A"), "b")
        report = system.run()
        assert sorted(report.committed) == [a, b]
