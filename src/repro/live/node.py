"""A live network node: one asyncio task running a ``NodeProtocol``.

The node owns real sockets (a listener plus one TCP channel per live
edge) and executes the mobile telephone model's round structure over
them, phase by phase:

* **A — advertise/scan:** send ``HELLO(r, tag)`` on every live edge,
  collect one ``HELLO`` per live neighbor;
* **B — propose:** run the protocol's ``decide`` on the scanned view,
  then send exactly one frame per live edge — ``PROPOSE`` to the chosen
  target, ``NOPROPOSE`` everywhere else — and collect the same;
* **C — accept:** a node that proposed awaits one ``ACCEPT`` verdict
  (a proposer can never accept — it rejects all suitors); a listener
  with incoming proposals accepts exactly one, chosen uniformly from
  its own seeded stream, and rejects the rest;
* **D — exchange:** both endpoints of the established connection send
  one budget-validated ``PAYLOAD`` and deliver the peer's.

Because every phase owes a *fixed* number of frames per live edge and
TCP preserves per-channel order, the phases self-delimit: no
per-phase barrier round-trips are needed, only the coordinator's
round-boundary barrier.  The protocol object underneath is the exact
class the simulators run — ``choose_tag``/``decide``/``compose``/
``deliver``/``end_round`` — which is the transport-independence claim
this tier exists to prove.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.core.engine import ModelViolation
from repro.core.payload import Message, PayloadBudget
from repro.core.protocol import NodeProtocol, RoundView
from repro.live import wire
from repro.live.channels import ChannelError, ChannelSet
from repro.live.faults import connection_dropped

__all__ = ["LiveNode"]


class LiveNode:
    """One node of the live deployment: sockets + an unchanged protocol."""

    def __init__(
        self,
        node_id: int,
        protocol: NodeProtocol,
        *,
        seed: int | None,
        host: str,
        coordinator_port: int,
        rng,
        accept_rng,
        budget: PayloadBudget,
        drop_p: float = 0.0,
    ):
        self.node_id = node_id
        self.protocol = protocol
        self.seed = seed
        self.host = host
        self.coordinator_port = coordinator_port
        self.rng = rng
        self.accept_rng = accept_rng
        self.budget = budget
        self.drop_p = drop_p
        self.channels = ChannelSet(node_id, host)
        self.frames_sent = 0
        self._neighbors: list[int] = []
        self._peers: dict[int, int] = {}
        self._cwriter = None

    # -- control-plane helpers ------------------------------------------------

    async def _ctrl_send(self, kind: int, obj=None) -> None:
        self._cwriter.write(wire.frame_bytes(kind, obj))
        await self._cwriter.drain()
        self.frames_sent += 1

    def _tag_ok(self, tag: int) -> bool:
        b = self.protocol.tag_length
        return tag == 0 if b == 0 else 0 <= tag < (1 << b)

    # -- wiring ---------------------------------------------------------------

    async def _establish(
        self, peers: list[int], down: frozenset[int], rejoining: frozenset[int]
    ) -> None:
        """Bring up any missing channels to live neighbors.

        Exactly one endpoint of each missing edge dials: a rejoining peer
        dials out (it knows it came back; its stable neighbors only learn
        from the coordinator's round message), ties between two rejoiners
        and fresh topology edges go to the higher id.  Every wait below
        is for a dial the coordinator has already sequenced, so none can
        hang.
        """
        for v in self._neighbors:
            if v in down:
                continue
            channel = self.channels.channels.get(v)
            if channel is not None and channel.up:
                continue
            if v in rejoining:
                await self.channels.await_up(v)
            elif self.node_id > v:
                await self.channels.dial(v, self.host, self._peers[v])
            else:
                await self.channels.await_up(v)

    async def _rejoin(self, msg: dict) -> None:
        """Handle a REJOIN directive: optional reset, then re-dial."""
        if msg["reset"]:
            self.protocol.reset()
        self._neighbors = [int(v) for v in msg["neighbors"]]
        down = frozenset(msg["down"])
        rejoining = frozenset(msg["rejoining"])
        for v in self._neighbors:
            if v in down:
                continue
            if v not in rejoining or v < self.node_id:
                await self.channels.dial(v, self.host, self._peers[v])
            # A fellow rejoiner with the higher id dials us; its channel
            # lands before the coordinator releases the round barrier.

    # -- one round ------------------------------------------------------------

    async def _round(self, msg: dict) -> dict:
        r = int(msg["r"])
        if msg.get("neighbors") is not None:
            new = [int(v) for v in msg["neighbors"]]
            for v in set(self._neighbors) - set(new):
                self.channels.drop(v)
            self._neighbors = new
        down = frozenset(msg["down"])
        rejoining = frozenset(msg["rejoining"])
        for v in self._neighbors:
            if v in down:
                # The peer's FIN is already queued behind the last round's
                # frames (the coordinator sequenced its crash before
                # releasing this round); close our side proactively.
                self.channels.drop(v)
        await self._establish(self._neighbors, down, rejoining)

        proto = self.protocol
        local_round = r  # every live node activates in round 1

        # Phase A: advertise + scan.
        tag = int(proto.choose_tag(local_round, self.rng))
        if not self._tag_ok(tag):
            raise ModelViolation(
                f"node {self.node_id} advertised tag {tag} outside "
                f"{proto.tag_length} bits"
            )
        live = [v for v in self._neighbors if v not in down]
        chans = [self.channels.channels[v] for v in live]
        # Each phase's shared frame is encoded once and written to every
        # live edge.
        hello = wire.frame_bytes(wire.HELLO, wire.RoundValue(r, tag))
        for ch in chans:
            await ch.send(hello)
        tags: dict[int, int] = {}
        for v, ch in zip(live, chans):
            got = await ch.expect((wire.HELLO,), r)
            if got is None:
                raise ChannelError(
                    f"node {self.node_id}: channel to live neighbor {v} "
                    f"closed during round {r} scan"
                )
            peer_tag = got[1].value
            if not self._tag_ok(peer_tag):
                raise ModelViolation(
                    f"node {self.node_id} received tag {peer_tag} from {v} "
                    f"outside {proto.tag_length} bits"
                )
            tags[v] = peer_tag

        # Phase B: decide, then propose-or-decline on every live edge.
        view = RoundView(
            local_round=local_round,
            neighbors=np.asarray(live, dtype=np.int64),
            neighbor_tags=np.asarray([tags[v] for v in live], dtype=np.int64),
            rng=self.rng,
        )
        target = proto.decide(view)
        if target is not None:
            target = int(target)
            if target not in tags:
                raise ModelViolation(
                    f"node {self.node_id} proposed to {target}, not a live "
                    f"neighbor in round {r}"
                )
            propose = wire.frame_bytes(wire.PROPOSE, wire.RoundValue(r, 0))
        nopropose = wire.frame_bytes(wire.NOPROPOSE, wire.RoundValue(r, 0))
        for v, ch in zip(live, chans):
            await ch.send(propose if v == target else nopropose)
        proposers = []
        for v, ch in zip(live, chans):
            got = await ch.expect((wire.PROPOSE, wire.NOPROPOSE), r)
            if got is None:
                raise ChannelError(
                    f"node {self.node_id}: channel to live neighbor {v} "
                    f"closed during round {r} proposals"
                )
            if got[0] == wire.PROPOSE:
                proposers.append(v)
        proposers.sort()

        # Phase C: one acceptance verdict per incoming proposal.
        channels = self.channels.channels
        accepted_from = None
        connection = None
        if target is not None:
            if proposers:  # a proposer cannot accept (model rule)
                reject = wire.frame_bytes(wire.ACCEPT, wire.RoundValue(r, 0))
                for v in proposers:
                    await channels[v].send(reject)
            got = await channels[target].expect((wire.ACCEPT,), r)
            if got is None:
                raise ChannelError(
                    f"node {self.node_id}: channel to proposal target {target} "
                    f"closed during round {r} acceptance"
                )
            if got[1].value:
                connection = (self.node_id, target)
        elif proposers:
            winner = proposers[int(self.accept_rng.integers(0, len(proposers)))]
            verdicts = [
                wire.frame_bytes(wire.ACCEPT, wire.RoundValue(r, ok)) for ok in (0, 1)
            ]
            for v in proposers:
                await channels[v].send(verdicts[v == winner])
            accepted_from = winner
            connection = (winner, self.node_id)

        # Phase D: budgeted symmetric exchange (unless the drop fault
        # eats the connection — both endpoints compute the same verdict).
        if connection is not None:
            s, t = connection
            if connection_dropped(self.seed, r, s, t, self.drop_p):
                # The connection vanishes: no payload, no delivery, and
                # the acceptor does not report it (matching the
                # simulators, whose traces record only survivors).
                accepted_from = None
            else:
                peer = t if self.node_id == s else s
                out = proto.compose(peer)
                if not isinstance(out, Message):
                    raise ModelViolation(
                        f"node {self.node_id} composed a non-Message"
                    )
                self.budget.validate(out)
                await channels[peer].send(
                    wire.frame_bytes(wire.PAYLOAD, {"r": r, "msg": out})
                )
                got = await channels[peer].expect((wire.PAYLOAD,), r)
                if got is None:
                    raise ChannelError(
                        f"node {self.node_id}: connection peer {peer} closed "
                        f"during round {r} payload exchange"
                    )
                incoming = got[1]["msg"]
                if not isinstance(incoming, Message):
                    raise ModelViolation(
                        f"node {self.node_id} received a non-Message from {peer}"
                    )
                self.budget.validate(incoming)  # enforced over transport too
                proto.deliver(peer, incoming)

        proto.end_round()
        return {"r": r, "tag": tag, "proposed": target, "accepted": accepted_from}

    # -- lifecycle ------------------------------------------------------------

    async def run(self) -> None:
        port = await self.channels.start()
        creader, self._cwriter = await asyncio.open_connection(
            self.host, self.coordinator_port
        )
        try:
            await self._ctrl_send(wire.IDENT, {"node": self.node_id, "port": port})
            kind, welcome = await wire.read_frame(creader)
            if kind != wire.WELCOME:
                raise ChannelError(f"expected WELCOME, got {wire.kind_name(kind)}")
            self._peers = {int(v): int(p) for v, p in welcome["peers"].items()}
            self._neighbors = [int(v) for v in welcome["neighbors"]]
            # Initial wiring: the higher id dials each edge.
            for v in self._neighbors:
                if self.node_id > v:
                    await self.channels.dial(v, self.host, self._peers[v])
            for v in self._neighbors:
                if v > self.node_id:
                    await self.channels.await_up(v)
            await self._ctrl_send(wire.READY, {"node": self.node_id})

            while True:
                kind, msg = await wire.read_frame(creader)
                if kind == wire.STOP:
                    break
                if kind == wire.CRASH:
                    self.channels.crash()  # real socket closes: peers see EOF
                    await self._ctrl_send(wire.READY, {"node": self.node_id})
                elif kind == wire.REJOIN:
                    await self._rejoin(msg)
                    await self._ctrl_send(wire.READY, {"node": self.node_id})
                elif kind == wire.ROUND:
                    report = await self._round(msg)
                    await self._ctrl_send(wire.DONE, report)
                else:
                    raise ChannelError(
                        f"unexpected control frame {wire.kind_name(kind)}"
                    )
        finally:
            self.frames_sent += self.channels.frames_sent
            await self.channels.shutdown()
            if self._cwriter is not None:
                self._cwriter.close()
