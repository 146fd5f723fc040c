"""Length-prefixed pickle frames over raw pipe file descriptors.

The wire format of the process-per-shard transport (:mod:`repro.
transport`): each message is a 4-byte big-endian length followed by a
pickle of the frame object.  Frames are small Python tuples:

* request  — ``(req_id, method, args, prelude)``; ``prelude`` lists the
  one-way ``(method, args)`` calls queued since the last frame, which
  the worker runs first (there is no fire-and-forget frame);
* response — ``(req_id, status, payload, envelope)`` with ``status``
  one of ``"ok"`` / ``"error"`` / ``"would_block"``.

The channel itself is deliberately dumb: no threading, no retries, no
request matching — that lives in :mod:`repro.transport.proxy` (the
coordinator side runs a receiver thread; the worker side is a
single-threaded serve loop, so neither end needs a lock *inside* the
codec, only around interleaved ``send`` calls).

Exceptions cross the pipe as ``(class_name, message, extras)`` triples
rather than raw pickles, so a worker-side failure is reconstructed
coordinator-side as the *same* :class:`~repro.errors.ReproError`
subclass — keyword-only constructor arguments (``pivot``, ``reason``,
``retry_after``, ``position``) survive because :func:`encode_error`
ships them explicitly; ``BaseException.__reduce__`` would drop them.
"""

from __future__ import annotations

import os
import pickle
import struct

import repro.errors as _errors
from repro.errors import (
    LexError,
    OverloadError,
    ParseError,
    ReproError,
    SerializationFailureError,
    TransactionAborted,
    TransportError,
)

_HEADER = struct.Struct(">I")


class FrameChannel:
    """One duplex frame pipe: a read fd and a write fd, length-prefixed."""

    def __init__(self, read_fd: int, write_fd: int):
        # Wrap the raw fds only here — after fork — so parent and child
        # never share Python-level buffer state.
        self._reader = os.fdopen(read_fd, "rb")
        self._writer = os.fdopen(write_fd, "wb")

    def send(self, frame) -> None:
        payload = pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            self._writer.write(_HEADER.pack(len(payload)))
            self._writer.write(payload)
            self._writer.flush()
        except (BrokenPipeError, ValueError, OSError) as exc:
            raise TransportError(f"peer gone while sending frame: {exc}") from exc

    def recv(self):
        """The next frame, or ``None`` on clean EOF (peer closed)."""
        header = self._read_exact(_HEADER.size)
        if not header:
            return None
        if len(header) < _HEADER.size:
            raise TransportError("peer died mid-frame (truncated header)")
        (length,) = _HEADER.unpack(header)
        payload = self._read_exact(length)
        if len(payload) < length:
            raise TransportError("peer died mid-frame (truncated payload)")
        return pickle.loads(payload)

    def _read_exact(self, n: int) -> bytes:
        data = b""
        while len(data) < n:
            try:
                chunk = self._reader.read(n - len(data))
            except (ValueError, OSError):
                chunk = b""
            if not chunk:
                break
            data += chunk
        return data

    def close(self) -> None:
        for stream in (self._writer, self._reader):
            try:
                stream.close()
            except (OSError, ValueError):  # pragma: no cover - already gone
                pass


# -- exception (de)serialization ----------------------------------------------------

#: keyword-only constructor extras worth preserving across the pipe.
_EXTRA_ATTRS = ("pivot", "reason", "retry_after", "position", "txn", "resource")


def encode_error(exc: BaseException) -> tuple:
    """``(class_name, message, extras)`` — picklable, class-preserving."""
    extras = {}
    for attr in _EXTRA_ATTRS:
        value = getattr(exc, attr, None)
        if value is not None:
            extras[attr] = value
    return (type(exc).__name__, str(exc), extras)


def _rebuild_would_block(message, extras):
    from repro.storage.engine import WouldBlock

    return WouldBlock(extras.get("txn", 0), extras.get("resource"))


_SPECIAL_BUILDERS = {
    "SerializationFailureError": lambda m, e: SerializationFailureError(
        m, pivot=e.get("pivot", True)
    ),
    "TransactionAborted": lambda m, e: TransactionAborted(m, reason=e.get("reason", "")),
    "OverloadError": lambda m, e: OverloadError(
        m, reason=e.get("reason", "overload"), retry_after=e.get("retry_after", 0.0)
    ),
    "LexError": lambda m, e: LexError(m, e.get("position", -1)),
    "ParseError": lambda m, e: ParseError(m, e.get("position", -1)),
    "WouldBlock": _rebuild_would_block,
}


def decode_error(payload: tuple) -> BaseException:
    """Rebuild the exception a worker encoded with :func:`encode_error`."""
    name, message, extras = payload
    builder = _SPECIAL_BUILDERS.get(name)
    if builder is not None:
        return builder(message, extras)
    cls = getattr(_errors, name, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        try:
            return cls(message)
        except TypeError:  # pragma: no cover - non-standard constructor
            pass
    return TransportError(f"remote {name}: {message}")
