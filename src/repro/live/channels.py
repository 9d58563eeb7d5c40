"""Per-edge TCP channels and the per-node listener (data plane).

Each graph edge maps to exactly one TCP connection, shared full-duplex
by both endpoints.  The dialing side introduces itself with an ``IDENT``
frame; the accepting side registers the channel under that peer id.  A
channel is an :class:`asyncio.Protocol`: the event loop hands it raw
bytes, and :meth:`EdgeChannel.data_received` cuts them into frames,
decodes each body and queues ``(kind, value)`` for node logic, which
``expect``\\ s exactly the frames a protocol phase owes it — the phases
of a round are self-delimiting because every phase sends a fixed number
of frames per live edge and TCP preserves per-channel order.  There is
no per-edge task: a frame costs one callback, one decode and, when the
node is already waiting on that channel, one future wake-up.

Channel loss is an *event*, not an error: ``BYE``, a closed socket
(crash fault, or a peer that went away) or a malformed frame marks the
channel down with a sticky EOF, after which every ``expect`` returns
``None`` at once.  Whether that is expected (the coordinator announced
the crash) or a protocol violation is the node's call.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Callable

from repro.live import wire

__all__ = ["ChannelError", "EdgeChannel", "ChannelSet"]

#: Listen backlog: a clique hub can receive every initial dial at once.
_BACKLOG = 512

_HEADER = wire._HEADER
_HEADER_SIZE = _HEADER.size
_ROUND_KINDS = wire.ROUND_VALUE_KINDS
_BYE = wire.frame_bytes(wire.BYE)


class ChannelError(RuntimeError):
    """A data channel broke the live framing contract."""


class EdgeChannel(asyncio.Protocol):
    """One live edge: a framed, full-duplex connection to one peer.

    A dialed channel knows its ``peer`` up front.  An accepted one starts
    with ``peer=None``; its first frame must be ``IDENT``, which names the
    peer and hands the channel to ``register``.
    """

    def __init__(
        self,
        peer: int | None,
        register: Callable[[int, "EdgeChannel"], None] | None = None,
    ):
        self.peer = peer
        self.transport: asyncio.Transport | None = None
        self.up = False
        self.frames_sent = 0
        self._register = register
        self._buf = bytearray()
        self._frames: deque = deque()
        self._eof = False
        self._waiter: asyncio.Future | None = None
        self._paused = False
        self._drain: asyncio.Future | None = None

    # -- protocol callbacks ---------------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.up = True

    def data_received(self, data: bytes) -> None:
        if self._eof:
            return
        buf = self._buf
        buf += data
        end = len(buf)
        pos = 0
        try:
            while end - pos >= _HEADER_SIZE:
                length, kind = _HEADER.unpack_from(buf, pos)
                if length > wire.MAX_FRAME:
                    raise wire.WireError(
                        f"incoming frame of {length} bytes exceeds {wire.MAX_FRAME}"
                    )
                start = pos + _HEADER_SIZE
                stop = start + length
                if stop > end:
                    break
                obj = wire.decode(buf[start:stop])
                pos = stop
                if kind == wire.BYE:
                    self._set_eof()
                    return
                if kind in _ROUND_KINDS:
                    if type(obj) is not wire.RoundValue:
                        raise wire.WireError(f"{wire.kind_name(kind)} without a round value")
                    if kind == wire.ACCEPT and obj.value not in (0, 1):
                        raise wire.WireError(f"ACCEPT with ok={obj.value}")
                if self.peer is None:
                    self._identify(kind, obj)
                    continue
                self._frames.append((kind, obj))
        except wire.WireError:
            self._set_eof()
            self.transport.close()
            return
        finally:
            del buf[:pos]
        waiter = self._waiter
        if waiter is not None and self._frames and not waiter.done():
            waiter.set_result(None)

    def _identify(self, kind: int, obj) -> None:
        if (
            kind != wire.IDENT
            or type(obj) is not dict
            or type(obj.get("node")) is not int
        ):
            raise wire.WireError(
                f"accepted socket opened with {wire.kind_name(kind)}, not IDENT"
            )
        self.peer = obj["node"]
        self._register(self.peer, self)

    def eof_received(self) -> None:
        self._set_eof()  # returning None lets the transport close itself

    def connection_lost(self, exc) -> None:
        self._set_eof()
        self._paused = False
        self._wake_drain()

    def pause_writing(self) -> None:
        self._paused = True

    def resume_writing(self) -> None:
        self._paused = False
        self._wake_drain()

    def _set_eof(self) -> None:
        self.up = False
        self._eof = True
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def _wake_drain(self) -> None:
        drain = self._drain
        if drain is not None and not drain.done():
            drain.set_result(None)

    # -- node-facing API ------------------------------------------------------

    async def send(self, frame: bytes) -> bool:
        """Write one ready-made frame; ``False`` (not an error) if the peer
        is gone.  Waits only while the transport has paused writing.

        Sends to a just-crashed peer are best-effort by design: the
        sender learns about the crash from its own read of the closed
        channel (or the coordinator's round message), not from the write.
        """
        if not self.up:
            return False
        self.transport.write(frame)
        self.frames_sent += 1
        while self._paused and self.up:
            self._drain = asyncio.get_running_loop().create_future()
            try:
                await self._drain
            finally:
                self._drain = None
        return True

    async def expect(self, kinds: tuple[int, ...], r: int):
        """Receive the next frame, which must be one of ``kinds`` for
        round ``r``; returns ``(kind, body)`` or ``None`` on EOF."""
        frames = self._frames
        while not frames:
            if self._eof:
                return None
            self._waiter = asyncio.get_running_loop().create_future()
            try:
                await self._waiter
            finally:
                self._waiter = None
        kind, obj = frames.popleft()
        if kind not in kinds:
            raise ChannelError(
                f"peer {self.peer} sent {wire.kind_name(kind)} while "
                f"{'/'.join(wire.kind_name(k) for k in kinds)} was due in round {r}"
            )
        if kind in _ROUND_KINDS:
            sent_r = obj.r
        else:  # PAYLOAD carries a tagged ``{"r": …, "msg": …}`` dict
            sent_r = obj.get("r") if isinstance(obj, dict) else r
        if sent_r != r:
            raise ChannelError(
                f"peer {self.peer} sent {wire.kind_name(kind)} for round "
                f"{sent_r} during round {r}"
            )
        return kind, obj

    def abort(self) -> None:
        """Hard-close: stop reading and drop the socket (crash fault)."""
        self._set_eof()
        if self.transport is not None:
            self.transport.close()

    async def close(self) -> None:
        """Graceful close: say ``BYE``, then drop the socket."""
        await self.send(_BYE)
        self.abort()


class ChannelSet:
    """One node's data-plane endpoint: listener plus per-peer channels."""

    def __init__(self, node_id: int, host: str):
        self.node_id = node_id
        self.host = host
        self.port: int | None = None
        self.channels: dict[int, EdgeChannel] = {}
        self._up_waiters: dict[int, asyncio.Event] = {}
        self._server: asyncio.Server | None = None
        self._frames_retired = 0

    async def start(self) -> int:
        """Open the listener on an ephemeral port; returns the port."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: EdgeChannel(None, self._register),
            host=self.host,
            port=0,
            backlog=_BACKLOG,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    def _register(self, peer: int, channel: EdgeChannel) -> None:
        stale = self.channels.pop(peer, None)
        if stale is not None:
            stale.abort()
        self.channels[peer] = channel
        waiter = self._up_waiters.pop(peer, None)
        if waiter is not None:
            waiter.set()

    async def dial(self, peer: int, host: str, port: int) -> EdgeChannel:
        """Connect to ``peer`` and introduce ourselves."""
        transport, channel = await asyncio.get_running_loop().create_connection(
            lambda: EdgeChannel(peer), host, port
        )
        # The introduction is framing, not round traffic: not counted.
        transport.write(wire.frame_bytes(wire.IDENT, {"node": self.node_id}))
        self._register(peer, channel)
        return channel

    async def await_up(self, peer: int) -> EdgeChannel:
        """Wait until ``peer``'s (re-)dial lands; never times out — the
        caller only waits for dials the coordinator has sequenced."""
        while True:
            channel = self.channels.get(peer)
            if channel is not None and channel.up:
                return channel
            waiter = asyncio.Event()
            self._up_waiters[peer] = waiter
            await waiter.wait()

    def drop(self, peer: int) -> None:
        """Hard-drop the channel to ``peer`` if one exists."""
        channel = self.channels.pop(peer, None)
        if channel is not None:
            self._frames_retired += channel.frames_sent
            channel.abort()

    def crash(self) -> None:
        """Crash fault: hard-close every data socket (peers read EOF)."""
        for peer in list(self.channels):
            self.drop(peer)

    @property
    def frames_sent(self) -> int:
        return self._frames_retired + sum(
            ch.frames_sent for ch in self.channels.values()
        )

    async def shutdown(self) -> None:
        """Graceful end-of-run teardown (``BYE`` on every live channel)."""
        for channel in list(self.channels.values()):
            await channel.close()
            self._frames_retired += channel.frames_sent
        self.channels.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
