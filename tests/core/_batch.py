"""Helpers for engine- and broker-level tests driven through connect().

The run reports these tests assert on list integer engine handles, so
``submit`` returns the handle rather than the ``ScriptHandle`` wrapper.
Nothing outside ``connect()`` and crash recovery constructs the engine
or the broker; suites that assert on their internals take them off a
client (``engine_for``, ``broker_for``).  ``tests/conftest.py`` puts
this directory on ``sys.path`` for the suites outside it.
"""

from repro.client import Client, ScriptHandle, connect
from repro.core import EngineConfig


def system_for(
    config: "EngineConfig | None" = None, *, store=None, policy=None,
    clock=None,
) -> Client:
    """A client whose engine runs exactly ``config`` (``connect()``
    overrides a config's isolation/executor with its own arguments, so
    they are passed through explicitly), on ``clock`` (default: real
    seconds)."""
    config = config or EngineConfig()
    return connect(
        store, isolation=config.isolation, executor=config.executor,
        config=config, policy=policy, clock=clock,
    )


def submit(system: Client, program, client: str = "client", at=None) -> int:
    """Submit one batch script under a named session; returns its handle."""
    return script(system, program, client, at).handle


def script(
    system: Client, program, client: str = "client", at=None
) -> ScriptHandle:
    """Submit one batch script under a named session; returns its
    client-visible view, which answers for the script once it finished
    (the engine keeps only unfinished transactions)."""
    return system.session(client).run_script(program, at=at)


def engine_for(store, config: "EngineConfig | None" = None, *, policy=None):
    """The engine of a client over ``store``, for suites that assert on
    scheduler internals (``run_once`` reports, handles, the recorder)."""
    return system_for(config, store=store, policy=policy).engine


def broker_for(store):
    """The interactive broker of a client over ``store``."""
    return connect(store).broker
