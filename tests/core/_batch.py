"""Batch-script helpers for engine-level tests driven through connect().

The run reports these tests assert on list integer engine handles, so
``submit`` returns the handle rather than the ``ScriptHandle`` wrapper.
"""

from repro.client import Client, ScriptHandle, connect
from repro.core import EngineConfig


def system_for(
    config: "EngineConfig | None" = None, *, store=None, policy=None
) -> Client:
    """A client whose engine runs exactly ``config`` (``connect()``
    overrides a config's isolation/executor with its own arguments, so
    they are passed through explicitly)."""
    config = config or EngineConfig()
    return connect(
        store, isolation=config.isolation, executor=config.executor,
        config=config, policy=policy,
    )


def submit(system: Client, program, client: str = "client", at=None) -> int:
    """Submit one batch script under a named session; returns its handle."""
    return system.session(client).run_script(program, at=at).handle


def ticket(system: Client, handle: int) -> ScriptHandle:
    """The client-visible view of a submitted script."""
    return ScriptHandle(system, handle)
