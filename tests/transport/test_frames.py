"""The length-prefixed frame codec and its exception registry."""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.errors import (
    DeadlockError,
    OverloadError,
    ParseError,
    SerializationFailureError,
    TransactionAborted,
    TransportError,
)
from repro.transport.frames import FrameChannel, decode_error, encode_error


def pipe_pair():
    """Two connected FrameChannels (a -> b and b -> a)."""
    a2b_read, a2b_write = os.pipe()
    b2a_read, b2a_write = os.pipe()
    a = FrameChannel(b2a_read, a2b_write)
    b = FrameChannel(a2b_read, b2a_write)
    return a, b


class TestFrameChannel:
    def test_round_trips_request_and_response_frames(self):
        a, b = pipe_pair()
        try:
            a.send((7, "insert", ("T", (1, "x"))))
            assert b.recv() == (7, "insert", ("T", (1, "x")))
            b.send((7, "ok", [(1, "x")], None))
            assert a.recv() == (7, "ok", [(1, "x")], None)
        finally:
            a.close()
            b.close()

    def test_large_payload_survives_framing(self):
        # Bigger than any pipe buffer, so the codec must loop on short
        # reads instead of assuming one read() returns the whole frame —
        # and the sender must be drained concurrently or it would block
        # on the full pipe, exactly as the receiver thread does in the
        # real transport.
        import threading

        a, b = pipe_pair()
        received = []
        try:
            rows = [(i, "v" * 100) for i in range(20_000)]
            reader = threading.Thread(target=lambda: received.append(b.recv()))
            reader.start()
            a.send((1, "load", rows))
            reader.join(timeout=30.0)
            assert received == [(1, "load", rows)]
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = pipe_pair()
        a.close()
        try:
            assert b.recv() is None
        finally:
            b.close()

    def test_truncated_payload_raises_transport_error(self):
        read_fd, write_fd = os.pipe()
        # A header promising 100 bytes, then EOF after 3.
        os.write(write_fd, (100).to_bytes(4, "big") + b"abc")
        os.close(write_fd)
        channel = FrameChannel(read_fd, os.open(os.devnull, os.O_WRONLY))
        try:
            with pytest.raises(TransportError):
                channel.recv()
        finally:
            channel.close()

    def test_send_after_peer_close_raises_transport_error(self):
        a, b = pipe_pair()
        b.close()
        try:
            with pytest.raises(TransportError):
                # Large enough to overrun the pipe buffer and hit EPIPE
                # even if the first flush is absorbed.
                for _ in range(100):
                    a.send((1, "ping", b"x" * 65536))
        finally:
            a.close()


@dataclasses.dataclass(frozen=True)
class DefaultReduce:
    """What a Row cost on the wire before it had its own ``__reduce__``."""

    rid: int
    values: tuple


class TestRowPayload:
    """Rows are most of what crosses the pipe; they pickle positionally."""

    def test_rows_round_trip_equal_and_within_the_byte_bound(self):
        import pickle

        from repro.storage.row import Row

        ledger = [
            (2 * i + 1, (i, i % 1024, (7 * i) % 1024, 12.5 + i, i * 0.01))
            for i in range(125)
        ]
        rows = [Row(rid, values) for rid, values in ledger]
        a, b = pipe_pair()
        try:
            a.send((1, "ok", rows, None))
            assert b.recv() == (1, "ok", rows, None)
        finally:
            a.close()
            b.close()
        size = len(pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL))
        default = len(pickle.dumps(
            [DefaultReduce(rid, values) for rid, values in ledger],
            protocol=pickle.HIGHEST_PROTOCOL))
        assert size <= 0.85 * default
        assert size <= 36.5 * len(rows)  # 4,505 B for these 125


class TestErrorRegistry:
    def roundtrip(self, exc):
        return decode_error(encode_error(exc))

    def test_serialization_failure_preserves_pivot_flag(self):
        rebuilt = self.roundtrip(
            SerializationFailureError("skew", pivot=False))
        assert isinstance(rebuilt, SerializationFailureError)
        assert rebuilt.pivot is False
        assert "skew" in str(rebuilt)

    def test_transaction_aborted_preserves_reason(self):
        rebuilt = self.roundtrip(TransactionAborted("gone", reason="widow"))
        assert isinstance(rebuilt, TransactionAborted)
        assert rebuilt.reason == "widow"

    def test_overload_preserves_retry_after(self):
        rebuilt = self.roundtrip(
            OverloadError("busy", reason="queue", retry_after=0.25))
        assert isinstance(rebuilt, OverloadError)
        assert rebuilt.retry_after == 0.25

    def test_parse_error_preserves_position(self):
        rebuilt = self.roundtrip(ParseError("bad token", 17))
        assert isinstance(rebuilt, ParseError)
        assert rebuilt.position == 17

    def test_would_block_rebuilds_waiter_and_resource(self):
        from repro.storage.engine import WouldBlock

        original = WouldBlock(9, ("T", 4))
        assert encode_error(original)[1] == ""  # the message stays home
        rebuilt = self.roundtrip(original)
        assert isinstance(rebuilt, WouldBlock)
        assert rebuilt.txn == 9
        assert rebuilt.resource == ("T", 4)
        assert str(rebuilt) == str(original)

    def test_plain_repro_errors_rebuild_by_name(self):
        rebuilt = self.roundtrip(DeadlockError("cycle"))
        assert isinstance(rebuilt, DeadlockError)

    def test_unknown_exception_degrades_to_transport_error(self):
        rebuilt = decode_error(("SomethingInternal", "boom", {}))
        assert isinstance(rebuilt, TransportError)
        assert "SomethingInternal" in str(rebuilt)
        assert "boom" in str(rebuilt)
