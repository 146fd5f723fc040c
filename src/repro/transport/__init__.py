"""Process-per-shard execution for the sharded storage engine.

Each shard's complete engine — oracle, lock manager, version chains,
WAL — runs in its own **worker process** behind a small message
transport; the coordinator stays in the client process and keeps doing
what the threaded sharded engine already does: statement routing, the
vector-snapshot begin/refresh exchange, and the ordered two-phase
prepare/commit.  Python's GIL stops threads from scaling CPU-bound
transaction processing past one core; separate processes do not.

Layout:

* :mod:`~repro.transport.frames`  — length-prefixed pickle frames and
  the cross-process exception registry;
* :mod:`~repro.transport.verbs`   — the verb table: every call that may
  cross the pipe, declared once for both ends;
* :mod:`~repro.transport.worker`  — the shard worker process: one
  shard-member :class:`~repro.storage.engine.StorageEngine` served by a
  single-threaded FIFO request loop that dispatches through the table;
* :mod:`~repro.transport.proxy`   — coordinator-side stand-ins
  (:class:`RemoteShardEngine` and friends) implementing
  :class:`~repro.storage.protocol.ShardEngine`: local mirrors plus
  forwarders generated from the table;
* :mod:`~repro.transport.process` — :class:`ProcessShardedStorageEngine`,
  the sharded engine constructed over remote proxies, plus the
  probe-based distributed deadlock detector.
"""

from repro.errors import TransportError
from repro.transport.frames import FrameChannel, decode_error, encode_error
from repro.transport.process import ProcessShardedStorageEngine

__all__ = [
    "FrameChannel",
    "ProcessShardedStorageEngine",
    "TransportError",
    "decode_error",
    "encode_error",
]
