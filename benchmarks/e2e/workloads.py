"""The six workloads: topology, seeded inputs, output checks, expected hooks.

Every workload hands the driver ``rounds`` — lists of ``(sql, tag)`` scripts,
one per client — generated from the seed before any timing starts, so the
program under test sees only SQL text.  ``tag`` is what the output check
needs to know about a script once it has committed.

Counts are fixed operation counts per repeat, never durations: throughput
decays as tables grow, so two commits are only comparable on identical work.
They are sized for a window of 3 to 5 seconds per repeat on the 2-core host
that froze them, so that the benchmark driver's whole schedule of runs fits
its time cap.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass

from repro.core.engine import EngineConfig
from repro.storage.schema import TableSchema
from repro.storage.types import ColumnType
from repro.workloads import (
    OnCallRoster,
    PaymentLedger,
    SocialNetwork,
    TravelDatabase,
    WorkloadKind,
    generate_workload,
)

WARMUP_TXNS = 100


class Transfer:
    """``bench.contention``'s 3-statement transfer on disjoint ids per round."""

    ACCOUNTS = 4096
    BALANCE = 100.0

    def __init__(self, seed: int, clients: int, n_rounds: int):
        rng = random.Random(seed)
        self.rounds = []
        for _ in range(n_rounds):
            ids = rng.sample(range(self.ACCOUNTS), 2 * clients)
            self.rounds.append([
                (self._program(ids[2 * i], ids[2 * i + 1]), None)
                for i in range(clients)
            ])

    @staticmethod
    def _program(read_id: int, write_id: int) -> str:
        return f"""
            BEGIN TRANSACTION;
            SELECT balance AS @b FROM Accounts WHERE id={read_id};
            UPDATE Accounts SET balance = balance + 1 WHERE id={write_id};
            INSERT INTO Transfers (account, amount) VALUES ({write_id}, 1);
            COMMIT;
        """

    def install(self, client) -> None:
        client.create_table(TableSchema.build(
            "Accounts",
            [("id", ColumnType.INTEGER), ("owner", ColumnType.TEXT),
             ("balance", ColumnType.FLOAT)],
            primary_key=["id"],
        ))
        client.create_table(TableSchema.build(
            "Transfers",
            [("account", ColumnType.INTEGER), ("amount", ColumnType.FLOAT)],
            indexes=[["account"]],
        ))
        client.load("Accounts", [
            (i, f"u{i}", self.BALANCE) for i in range(self.ACCOUNTS)
        ])

    def check(self, client, committed: list) -> list[str]:
        errors = []
        total = sum(b for (b,) in client.query("SELECT balance FROM Accounts"))
        expected = self.ACCOUNTS * self.BALANCE + len(committed)
        if total != expected:
            errors.append(f"sum(balance) is {total}, expected {expected}")
        transfers = len(client.query("SELECT account FROM Transfers"))
        if transfers != len(committed):
            errors.append(f"{transfers} Transfers rows for {len(committed)} commits")
        return errors


class _LoggedLoad:
    """What ``TravelDatabase.populate`` needs of a database, routed through
    the client so the load is WAL-logged and survives the recovery check."""

    def __init__(self, client):
        self._client = client

    def has_table(self, name: str) -> bool:
        return self._client.store.db.has_table(name)

    def create_table(self, schema) -> None:
        self._client.create_table(schema)

    def load(self, table: str, rows) -> None:
        self._client.load(table, rows)


class Travel:
    """Per round: 7 mutually-referencing Entangled-T pairs + 6 Social-T."""

    USERS = 500
    PAIRS, SOCIAL = 7, 6

    def __init__(self, seed: int, clients: int, n_rounds: int):
        assert clients == 2 * self.PAIRS + self.SOCIAL
        self.travel = TravelDatabase(SocialNetwork(self.USERS, seed=seed), seed=seed)
        entangled = generate_workload(
            WorkloadKind.ENTANGLED_T, self.travel, 2 * self.PAIRS * n_rounds)
        social = generate_workload(
            WorkloadKind.SOCIAL_T, self.travel, self.SOCIAL * n_rounds)
        self.rounds = []
        for r in range(n_rounds):
            scripts = []
            for k, item in enumerate(
                    entangled[2 * self.PAIRS * r: 2 * self.PAIRS * (r + 1)]):
                scripts.append((item.program, (item.uid, (r, k // 2))))
            for item in social[self.SOCIAL * r: self.SOCIAL * (r + 1)]:
                scripts.append((item.program, (item.uid, None)))
            self.rounds.append(scripts)

    def install(self, client) -> None:
        self.travel.populate(_LoggedLoad(client))

    def check(self, client, committed: list) -> list[str]:
        errors = []
        destination = dict(client.query("SELECT fid, destination FROM Flight"))
        booked = Counter(
            (uid, destination[fid])
            for uid, fid in client.query("SELECT uid, fid FROM Reserve")
        )
        asked = Counter(
            (uid, self.travel.shared_hometown_destination(uid))
            for uid, _pair in committed
        )
        if booked != asked:
            errors.append(
                f"Reserve holds {sum(booked.values())} bookings, "
                f"{sum((booked - asked).values())} unasked and "
                f"{sum((asked - booked).values())} missing, "
                f"for {len(committed)} commits")
        members = Counter(pair for _uid, pair in committed if pair is not None)
        widowed = [pair for pair, n in members.items() if n != 2]
        if widowed:
            errors.append(f"{len(widowed)} entangled pairs committed one member")
        return errors


class OnCall:
    """Guarded sign-offs and sign-ons on a tiny hot roster under SSI."""

    WARDS, DOCTORS = 8, 4

    def __init__(self, seed: int, clients: int, n_rounds: int):
        self.roster = OnCallRoster(
            n_wards=self.WARDS, doctors_per_ward=self.DOCTORS, seed=seed)
        self.rounds = [
            [(self.roster.program(0.0), None) for _ in range(clients)]
            for _ in range(n_rounds)
        ]

    def install(self, client) -> None:
        self.roster.install(client)

    def check(self, client, committed: list) -> list[str]:
        doctors = len(client.query("SELECT doc FROM Doctors"))
        if doctors != self.WARDS * self.DOCTORS:
            return [f"Doctors has {doctors} rows, expected {self.WARDS * self.DOCTORS}"]
        return []


class Ledger:
    """Payment transfers beside time-window range reads, half and half."""

    ACCOUNTS = 1024

    def __init__(self, seed: int, clients: int, n_rounds: int):
        self.ledger = PaymentLedger(n_accounts=self.ACCOUNTS, seed=seed)
        rng = random.Random(seed)
        self.rounds = []
        index = 0
        for _ in range(n_rounds):
            # Exactly half of every round transfers, in a seeded order: a
            # per-script coin flip would let the read/write mix, and with
            # it the cost of a round, vary from seed to seed.
            transfers = [i < clients // 2 for i in range(clients)]
            rng.shuffle(transfers)
            scripts = []
            for transfer in transfers:
                at = index * 0.01
                sql = (self.ledger.transfer_program(at) if transfer
                       else self.ledger.temporal_query_program(at))
                scripts.append((sql, transfer))
                index += 1
            self.rounds.append(scripts)

    def install(self, client) -> None:
        self.ledger.install(client)

    def check(self, client, committed: list) -> list[str]:
        errors = []
        entries = len(client.query("SELECT entry FROM Ledger"))
        transfers = sum(committed)
        if entries != transfers:
            errors.append(f"{entries} Ledger rows for {transfers} committed transfers")
        total = sum(b for (b,) in client.query("SELECT balance FROM Accounts"))
        if not math.isclose(total, self.ACCOUNTS * 1000.0, abs_tol=1e-3):
            errors.append(f"sum(balance) drifted to {total}")
        return errors


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: type
    clients: int
    #: scripts per repeat at the default ``--seconds``.
    count: int
    connect: dict
    #: span-name prefixes that must fire during the traced window ...
    exercised: tuple
    #: ... and those that may or may not; every other hook must stay silent.
    optional: tuple = ()
    #: worker processes or dispatch threads that compete for cores; 0 on the
    #: serial workloads, whose per-layer counts repeat exactly.
    workers: int = 0

    def build(self, seed: int, count: int):
        """Inputs for one repeat: a ~100-script warm-up, then ``count``
        scripts rounded to whole rounds of one per client.  A count below
        one round runs as a single short round (``--quick`` on 1000 clients)."""
        warm = math.ceil(WARMUP_TXNS / self.clients)
        measured = max(1, round(count / self.clients))
        inputs = self.inputs(seed, self.clients, warm + measured)
        warmup, inputs.rounds = inputs.rounds[:warm], inputs.rounds[warm:]
        warmup[-1] = warmup[-1][:WARMUP_TXNS - (warm - 1) * self.clients]
        if count < self.clients:
            inputs.rounds[0] = inputs.rounds[0][:count]
        return inputs, warmup


#: fired by every workload, whatever the topology.
_COMMON = (
    "client.", "sql.lex", "sql.parse", "sql.compile.select", "core.run",
    "core.interpret", "storage.exec.", "storage.ssi.on_commit",
)
#: a StorageEngine in this process does the work (not so in process mode).
_LOCAL = (
    "storage.engine.begin", "storage.engine.commit", "storage.locks.acquire",
    "storage.locks.release_all", "storage.wal.", "storage.ssi.record_write",
    "storage.stats.engine",
)
_SHARDED = (
    "sql.compile.insert", "sql.compile.update", "core.executor",
    "storage.sharding.begin", "storage.sharding.commit",
    "storage.sharding.flush_commits", "storage.stats.sharded",
    "storage.ssi.record_read",
)
#: fire only when a vacuum interval elapses or an attempt is retried.
_MAYBE = ("storage.vacuum.", "storage.engine.abort", "storage.sharding.abort")
_TRANSFER = _COMMON + _LOCAL + (
    "sql.compile.insert", "sql.compile.update", "storage.engine.insert",
    "storage.engine.update",
)

WORKLOADS = {w.name: w for w in [
    Workload(
        "transfer_b10",
        "Statement pipeline (lex/parse/compile/interpret/point ops) dominates; "
        "10 live txns in the lock manager; the growing-table workload.",
        Transfer, clients=10, count=4000,
        connect=dict(executor="serial", isolation="full"),
        exercised=_TRANSFER, optional=_MAYBE,
    ),
    Workload(
        "transfer_b1000",
        "Same programs with 1000 live txns: the lock manager does most of the "
        "work, so a lock-manager change moves this and not transfer_b10.",
        Transfer, clients=1000, count=1000,
        connect=dict(executor="serial", isolation="full"),
        exercised=_TRANSFER, optional=_MAYBE,
    ),
    Workload(
        "travel_entangled",
        "The paper's workload: the only one that runs entangled evaluation "
        "(ground, match) and multi-table joins through planner and operators.",
        Travel, clients=20, count=1200,
        connect=dict(executor="serial", isolation="full",
                     config=EngineConfig(connections=100)),
        exercised=_COMMON + _LOCAL + (
            "sql.compile.insert", "sql.compile.entangled", "entangled.",
            "storage.engine.insert", "storage.ssi.group_doomed"),
        optional=_MAYBE,
    ),
    Workload(
        "oncall_ssi",
        "Lock-free snapshot reads on a 32-row roster: SSI tracking and "
        "abort/retry are the cost, measured as attempts per commit.",
        OnCall, clients=16, count=4800,
        connect=dict(executor="serial", isolation="serializable"),
        exercised=_COMMON + _LOCAL + (
            "sql.compile.update", "storage.engine.update", "storage.engine.abort",
            "storage.ssi.record_read"),
        optional=_MAYBE,
    ),
    Workload(
        "ledger_process",
        "2 shard worker processes: transport frames dominate (one synchronous "
        "round trip per storage call); B+ tree range reads beside writes.",
        Ledger, clients=16, count=960,
        connect=dict(shards=2, executor="process", isolation="snapshot"),
        exercised=_COMMON + _SHARDED + ("transport.",),
        optional=_MAYBE,
        workers=2,
    ),
    Workload(
        "ledger_replicated",
        "Same inputs on 2 in-process shards with 2 followers each: every write "
        "commit pays receive-before-ack shipping, reads route to followers.",
        Ledger, clients=16, count=960,
        connect=dict(shards=2, executor="pool", replicas=2, max_staleness=8,
                     isolation="snapshot"),
        exercised=_COMMON + _LOCAL + _SHARDED + (
            "storage.engine.insert", "storage.engine.update", "replication.ship",
            "replication.apply.receive"),
        optional=_MAYBE,
        workers=2,
    ),
]}
