"""Public API sanity: imports, __all__ consistency, error hierarchy."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


PACKAGES = [
    "repro",
    "repro.bench",
    "repro.bench.fig6a",
    "repro.bench.fig6b",
    "repro.bench.fig6c",
    "repro.bench.harness",
    "repro.client",
    "repro.core",
    "repro.core.executor",
    "repro.entangled",
    "repro.errors",
    "repro.model",
    "repro.sim",
    "repro.sql",
    "repro.storage",
    "repro.workloads",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize(
    "name",
    ["repro", "repro.core", "repro.entangled", "repro.model",
     "repro.sim", "repro.sql", "repro.storage", "repro.workloads"],
)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    for symbol in module.__all__:
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


def test_version():
    assert repro.__version__ == "1.1.0"


def test_all_is_importable_and_complete():
    """``repro.__all__`` resolves name by name and carries the whole
    public surface: the connect() façade, the once-missing legacy names
    (InteractiveBroker, ShardedStorageEngine, TxnIsolation, RunReport),
    and the user-facing error types."""
    for symbol in repro.__all__:
        assert getattr(repro, symbol, None) is not None, symbol
    assert len(set(repro.__all__)) == len(repro.__all__), "duplicate exports"
    required = {
        # the unified client API
        "connect", "Client", "Session", "PendingAnswer", "ScriptHandle",
        "StorageTransaction", "Durability",
        # previously missing public names
        "InteractiveBroker", "ShardedStorageEngine", "TxnIsolation",
        "RunReport",
        # error types from repro.errors
        "ReproError", "StorageError", "EngineError", "MiddlewareError",
        "DeadlockError", "WriteConflictError", "SnapshotTooOldError",
        "SerializationFailureError", "EntanglementTimeout",
        "SafetyViolationError", "TransactionAborted", "SQLError",
    }
    missing = required - set(repro.__all__)
    assert not missing, f"missing from repro.__all__: {sorted(missing)}"


def test_legacy_entry_points_emit_deprecation_pointer():
    """The engine and the broker are internal now: their docstrings say
    so and point at repro.connect(), which builds them; the deprecated
    ``Youtopia`` front end is gone."""
    for cls in (repro.EntangledTransactionEngine, repro.InteractiveBroker):
        assert "connect" in (cls.__doc__ or ""), cls.__name__
        assert "internal" in (cls.__doc__ or "").lower(), cls.__name__
    assert not hasattr(repro, "Youtopia")
    with repro.connect() as db:
        assert isinstance(db.engine, repro.EntangledTransactionEngine)
        assert isinstance(db.broker, repro.InteractiveBroker)


def test_error_hierarchy():
    from repro import errors

    assert issubclass(errors.DeadlockError, errors.LockError)
    assert issubclass(errors.LockError, errors.StorageError)
    assert issubclass(errors.StorageError, errors.ReproError)
    assert issubclass(errors.SafetyViolationError, errors.EntangledQueryError)
    assert issubclass(errors.InvalidScheduleError, errors.ModelError)
    assert issubclass(errors.EntanglementTimeout, errors.EngineError)
    assert issubclass(errors.ParseError, errors.SQLError)
    # One catch-all for library users:
    assert issubclass(errors.EngineError, errors.ReproError)
    assert issubclass(errors.SQLError, errors.ReproError)


def test_docstrings_on_public_modules():
    for name in PACKAGES:
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} lacks a module docstring"


def test_importing_the_product_does_not_load_networkx():
    """Only the conflict-graph oracle and the synthetic social network
    build graphs, and they import networkx when they do: a fresh
    interpreter's ``import repro, repro.workloads`` leaves it unloaded."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro, repro.workloads; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout.strip()
    assert loaded == "[]"
