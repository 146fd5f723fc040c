"""Shared fixtures: the Figure 1 database and small travel environments."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.storage import Database, StorageEngine
from repro.workloads import (
    SocialNetwork,
    TravelDatabase,
    example_schema,
    figure1_rows,
)

#: ``tests/core/_batch.py`` builds engines and brokers through
#: ``connect()`` for suites in every test directory, and
#: ``tests/sql/_reference_bind.py``'s ``literal`` reads a compiled
#: SELECT as the plan its values bind.
sys.path.insert(0, str(Path(__file__).parent / "core"))
sys.path.insert(0, str(Path(__file__).parent / "sql"))


@pytest.fixture
def figure1_db() -> Database:
    """The exact flight database of Figure 1(a), plus Hotels."""
    db = Database("figure1")
    for schema in example_schema():
        db.create_table(schema)
    for table, rows in figure1_rows().items():
        db.load(table, rows)
    db.load("Hotels", [(7, "LA"), (9, "LA"), (11, "Paris")])
    return db


@pytest.fixture
def figure1_store(figure1_db) -> StorageEngine:
    return StorageEngine(figure1_db)


@pytest.fixture(scope="session")
def small_network() -> SocialNetwork:
    """A small deterministic social graph shared across tests."""
    return SocialNetwork(n_users=300, attachment=4, seed=7)


@pytest.fixture
def travel_env(small_network):
    """A populated Appendix D database on a fresh storage engine."""
    travel = TravelDatabase(small_network, seed=7)
    store = StorageEngine()
    travel.populate(store.db)
    return travel, store
