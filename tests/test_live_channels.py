"""Tests for the live data plane's framing (``repro.live.channels``).

A channel is an ``asyncio.Protocol``: these tests feed
:meth:`EdgeChannel.data_received` byte streams directly (any chunking,
malformed frames) and run two real endpoints over localhost to check
write flow control.
"""

from __future__ import annotations

import asyncio
import socket

import pytest
from hypothesis import given, strategies as st

from repro.core.payload import IDPair, Message, UID
from repro.live import wire
from repro.live.channels import ChannelSet, EdgeChannel

DATA_KINDS = (wire.HELLO, wire.PROPOSE, wire.NOPROPOSE, wire.ACCEPT, wire.PAYLOAD)
R = 7


class FakeTransport:
    """Just enough of a transport for a channel fed by hand."""

    def __init__(self):
        self.closed = False
        self.written: list[bytes] = []

    def write(self, data: bytes) -> None:
        self.written.append(data)

    def close(self) -> None:
        self.closed = True


def channel(peer: int | None = 1, register=None) -> tuple[EdgeChannel, FakeTransport]:
    ch = EdgeChannel(peer, register)
    transport = FakeTransport()
    ch.connection_made(transport)
    return ch, transport


def drain(ch: EdgeChannel) -> list:
    """Every queued ``(kind, value)`` up to EOF, via the node-facing API."""

    async def run():
        out = []
        while (got := await ch.expect(DATA_KINDS, R)) is not None:
            out.append(got)
        return out

    return asyncio.run(run())


def expect_once(ch: EdgeChannel):
    return asyncio.run(ch.expect(DATA_KINDS, R))


frame_values = st.one_of(
    st.tuples(
        st.sampled_from((wire.HELLO, wire.PROPOSE, wire.NOPROPOSE)),
        st.integers(0, 1),
    ).map(lambda kv: (kv[0], wire.RoundValue(R, kv[1]))),
    st.integers(0, 1).map(lambda ok: (wire.ACCEPT, wire.RoundValue(R, ok))),
    st.tuples(st.lists(st.integers(0, 2**40), max_size=3), st.binary(max_size=40)).map(
        lambda kv: (
            wire.PAYLOAD,
            {
                "r": R,
                "msg": Message(
                    uids=tuple(UID(k) for k in kv[0]),
                    extra_bits=len(kv[1]),
                    data={"raw": kv[1], "pair": IDPair(UID(1), 0)},
                ),
            },
        )
    ),
)


def split(stream: bytes, cuts: list[int]) -> list[bytes]:
    points = sorted({c % (len(stream) + 1) for c in cuts} | {0, len(stream)})
    return [stream[a:b] for a, b in zip(points, points[1:])]


class TestFrameParser:
    @given(st.lists(frame_values, max_size=12), st.lists(st.integers(0, 10**6), max_size=20))
    def test_any_chunking_yields_the_same_frames(self, frames, cuts):
        stream = b"".join(wire.frame_bytes(k, v) for k, v in frames)
        stream += wire.frame_bytes(wire.BYE)
        whole, _ = channel()
        whole.data_received(stream)  # many frames in one chunk
        byte_by_byte, _ = channel()
        for i in range(len(stream)):
            byte_by_byte.data_received(stream[i : i + 1])
        chunked, _ = channel()
        for piece in split(stream, cuts):
            chunked.data_received(piece)
        expected = [(k, v) for k, v in frames]
        for ch in (whole, byte_by_byte, chunked):
            assert drain(ch) == expected

    def test_fixed_width_body_decodes_to_round_value(self):
        ch, _ = channel()
        ch.data_received(wire.frame_bytes(wire.HELLO, wire.RoundValue(R, 1)))
        kind, value = expect_once(ch)
        assert kind == wire.HELLO
        assert type(value) is wire.RoundValue and value == (R, 1)

    def test_eof_is_sticky(self):
        ch, _ = channel()
        ch.data_received(wire.frame_bytes(wire.BYE))
        for _ in range(3):  # every later expect returns at once
            assert expect_once(ch) is None
        assert not ch.up

    def test_frames_after_bye_are_ignored(self):
        ch, _ = channel()
        ch.data_received(
            wire.frame_bytes(wire.BYE)
            + wire.frame_bytes(wire.HELLO, wire.RoundValue(R, 0))
        )
        assert expect_once(ch) is None

    def test_connection_loss_posts_eof_after_queued_frames(self):
        ch, _ = channel()
        frame = wire.frame_bytes(wire.NOPROPOSE, wire.RoundValue(R, 0))
        ch.data_received(frame + frame[:3])  # one whole frame, one torn
        ch.connection_lost(None)
        assert drain(ch) == [(wire.NOPROPOSE, wire.RoundValue(R, 0))]
        assert expect_once(ch) is None

    def test_wrong_round_is_a_channel_error(self):
        from repro.live.channels import ChannelError

        ch, _ = channel()
        ch.data_received(wire.frame_bytes(wire.HELLO, wire.RoundValue(R + 1, 0)))
        with pytest.raises(ChannelError, match="for round 8 during round 7"):
            expect_once(ch)


def _raw(kind: int, body: bytes) -> bytes:
    return wire._HEADER.pack(len(body), kind) + body


MALFORMED = {
    "length_above_max": wire._HEADER.pack(wire.MAX_FRAME + 1, wire.PAYLOAD),
    "truncated_tagged_body": _raw(wire.PAYLOAD, wire.encode({"r": R, "msg": None})[:-1]),
    "garbage_body": _raw(wire.PAYLOAD, b"\xff\x00\x13"),
    "bad_utf8": _raw(wire.PAYLOAD, b"s\x00\x00\x00\x02\xff\xfe"),
    "unhashable_key": _raw(wire.PAYLOAD, b"d\x00\x00\x00\x01" + wire.encode([1]) + b"Z"),
    "nested_too_deep": _raw(wire.PAYLOAD, b"l\x00\x00\x00\x01" * 50_000 + b"Z"),
    "short_fixed_body": _raw(wire.HELLO, wire.encode(wire.RoundValue(R, 0))[:-1]),
    "long_fixed_body": _raw(wire.HELLO, wire.encode(wire.RoundValue(R, 0)) + b"\x00"),
    "tagged_body_on_small_kind": _raw(wire.HELLO, wire.encode({"r": R, "tag": 0})),
    "accept_ok_2": wire.frame_bytes(wire.ACCEPT, wire.RoundValue(R, 2)),
    "accept_ok_negative": wire.frame_bytes(wire.ACCEPT, wire.RoundValue(R, -1)),
}


class TestMalformedFrames:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_frame_takes_channel_down(self, name):
        ch, transport = channel()
        good = wire.frame_bytes(wire.HELLO, wire.RoundValue(R, 1))
        ch.data_received(good + MALFORMED[name] + good)  # must not raise
        assert transport.closed and not ch.up
        # Frames before the bad one are still delivered, nothing after it.
        assert drain(ch) == [(wire.HELLO, wire.RoundValue(R, 1))]
        assert expect_once(ch) is None
        ch.data_received(good)  # later bytes are ignored
        assert expect_once(ch) is None

    def test_accepted_socket_must_open_with_ident(self):
        registered = []
        ch, transport = channel(None, lambda peer, c: registered.append(peer))
        ch.data_received(wire.frame_bytes(wire.HELLO, wire.RoundValue(R, 0)))
        assert transport.closed and not ch.up and registered == []

    @pytest.mark.parametrize("body", [{"node": "3"}, {"peer": 3}, [3], None])
    def test_ident_body_must_name_a_node(self, body):
        registered = []
        ch, transport = channel(None, lambda peer, c: registered.append(peer))
        ch.data_received(wire.frame_bytes(wire.IDENT, body))
        assert transport.closed and registered == []

    def test_ident_registers_and_later_frames_queue(self):
        registered = []
        ch, transport = channel(None, lambda peer, c: registered.append((peer, c)))
        hello = wire.frame_bytes(wire.HELLO, wire.RoundValue(R, 0))
        ch.data_received(wire.frame_bytes(wire.IDENT, {"node": 4}) + hello)
        assert registered == [(4, ch)] and ch.peer == 4 and not transport.closed
        assert expect_once(ch) == (wire.HELLO, wire.RoundValue(R, 0))

    def test_no_exception_reaches_the_event_loop(self):
        """Garbage on a real accepted socket closes it and registers nothing."""

        async def run():
            loop = asyncio.get_running_loop()
            errors = []
            loop.set_exception_handler(lambda lp, ctx: errors.append(ctx))
            server = ChannelSet(0, "127.0.0.1")
            port = await server.start()
            for payload in MALFORMED.values():
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(payload)
                await writer.drain()
                assert await reader.read() == b""  # the listener hung up
                writer.close()
            await server.shutdown()
            return errors, server.channels

        errors, channels = asyncio.run(run())
        assert errors == [] and channels == {}


class TestFlowControl:
    def test_sender_waits_for_reader_and_nothing_is_lost(self):
        count, block = 200, 8192

        async def run():
            a, b = ChannelSet(0, "127.0.0.1"), ChannelSet(1, "127.0.0.1")
            port = await a.start()
            await b.start()
            sender = await b.dial(0, "127.0.0.1", port)
            receiver = await a.await_up(1)
            # A small kernel send buffer, so the paused reader's socket
            # backs up into the transport within a few frames.
            sender.transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
            )
            sender.transport.set_write_buffer_limits(high=1024, low=256)
            receiver.transport.pause_reading()
            frames = [
                wire.frame_bytes(wire.PAYLOAD, {"r": R, "i": i, "msg": bytes([i % 251]) * block})
                for i in range(count)
            ]

            async def send_all():
                for frame in frames:
                    assert await sender.send(frame)

            task = asyncio.create_task(send_all())
            for _ in range(500):  # until the transport pauses the writer
                await asyncio.sleep(0.01)
                if sender.transport.get_write_buffer_size() > 1024:
                    break
            await asyncio.sleep(0.1)
            blocked = not task.done() and sender.frames_sent < count
            receiver.transport.resume_reading()
            got = [await receiver.expect((wire.PAYLOAD,), R) for _ in range(count)]
            await task
            await a.shutdown()
            await b.shutdown()
            return blocked, got

        blocked, got = asyncio.run(run())
        assert blocked, "the sender never waited for the paused reader"
        assert [body["i"] for _, body in got] == list(range(count))
        assert all(body["msg"] == bytes([i % 251]) * block for i, (_, body) in enumerate(got))
