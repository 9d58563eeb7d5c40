"""The round synchronizer: barrier coordinator, discovery registrar,
trace assembler, and model-rule referee of a live run.

The coordinator is the only component with a global view.  Per round it

1. sequences fault directives — ``CRASH`` victims hard-close their
   sockets and ack *before* the round barrier releases, so every peer's
   EOF is already queued when the round starts (no flaky timeouts);
   rejoining nodes re-dial and ack the same way;
2. releases the barrier with one ``ROUND`` frame per live node, carrying
   the authoritative down/rejoining sets and (on a τ epoch boundary) the
   node's new adjacency;
3. collects one ``DONE`` report per live node, cross-checks the model
   rules over the reports (tag width, proposals-on-live-edges,
   acceptor-really-proposed-to, at most one connection per node), and
   assembles the shared :class:`~repro.core.trace.RoundRecord`;
4. asks the runner's callback whether to stop.

Discovery is a static peer table seeded from the graph family: every
node registers ``(id, port)`` on startup and receives the full table in
its ``WELCOME`` — the moral equivalent of the related repos' peer-table
middleware, kept deliberately simple because the membership is the graph
family's vertex set.
"""

from __future__ import annotations

import asyncio
from typing import Callable

import numpy as np

from repro.core.engine import ModelViolation
from repro.core.trace import RoundRecord, Trace
from repro.graphs.dynamic import DynamicGraph, epoch_of_round
from repro.live import wire
from repro.live.channels import ChannelError
from repro.live.faults import LiveFaultModel

__all__ = ["RoundCoordinator"]


class _NodeHandle:
    def __init__(self, reader, writer, port: int):
        self.reader = reader
        self.writer = writer
        self.port = port


class RoundCoordinator:
    """TCP barrier coordinator for one live run."""

    def __init__(
        self,
        *,
        dynamic_graph: DynamicGraph,
        tau: float,
        faults: LiveFaultModel,
        tag_length: int,
        host: str,
        collect_trace: bool = True,
        on_round: Callable[[int, RoundRecord], bool] | None = None,
    ):
        self.dg = dynamic_graph
        self.n = dynamic_graph.n
        self.tau = tau
        self.faults = faults
        self.tag_length = tag_length
        self.host = host
        self.trace = Trace() if collect_trace else None
        self.on_round = on_round or (lambda r, record: False)
        self.port: int | None = None
        self.rounds_executed = 0
        self.connections_made = 0
        self.frames_sent = 0
        self._handles: dict[int, _NodeHandle] = {}
        self._registered = asyncio.Event()
        self._server: asyncio.Server | None = None

    # -- registration ---------------------------------------------------------

    async def start(self) -> int:
        self._server = await asyncio.start_server(
            self._on_connect, host=self.host, port=0, backlog=512
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def _on_connect(self, reader, writer) -> None:
        try:
            kind, obj = await wire.read_frame(reader)
        except (asyncio.IncompleteReadError, ConnectionError, wire.WireError):
            writer.close()
            return
        if kind != wire.IDENT or not isinstance(obj, dict):
            writer.close()
            return
        node = int(obj["node"])
        self._handles[node] = _NodeHandle(reader, writer, int(obj["port"]))
        if len(self._handles) == self.n:
            self._registered.set()

    # -- control-plane helpers ------------------------------------------------

    async def _send(self, node: int, frame: bytes) -> None:
        handle = self._handles[node]
        handle.writer.write(frame)
        await handle.writer.drain()
        self.frames_sent += 1

    async def _expect(self, node: int, kind: int) -> dict:
        got_kind, obj = await wire.read_frame(self._handles[node].reader)
        if got_kind != kind:
            raise ChannelError(
                f"coordinator expected {wire.kind_name(kind)} from node "
                f"{node}, got {wire.kind_name(got_kind)}"
            )
        return obj

    def _tag_ok(self, tag: int) -> bool:
        if self.tag_length == 0:
            return tag == 0
        return 0 <= tag < (1 << self.tag_length)

    # -- run loop -------------------------------------------------------------

    async def run_rounds(self, max_rounds: int) -> None:
        await self._registered.wait()
        peers = {v: handle.port for v, handle in self._handles.items()}
        graph = self.dg.graph_at(1)
        adjacency = {v: graph.neighbors(v).tolist() for v in range(self.n)}
        for v in range(self.n):
            await self._send(
                v,
                wire.frame_bytes(
                    wire.WELCOME, {"peers": peers, "neighbors": adjacency[v]}
                ),
            )
        await asyncio.gather(
            *(self._expect(v, wire.READY) for v in range(self.n))
        )

        down_prev: frozenset[int] = frozenset()
        for r in range(1, max_rounds + 1):
            down = self.faults.down_at(r)
            crashed_now = sorted(down - down_prev)
            rejoining = sorted(down_prev - down)
            epoch_changed = (
                r > 1
                and not np.isinf(self.tau)
                and epoch_of_round(r, self.tau) != epoch_of_round(r - 1, self.tau)
            )
            if epoch_changed:
                graph = self.dg.graph_at(r)
                adjacency = {v: graph.neighbors(v).tolist() for v in range(self.n)}

            # Fault directives first, each acked before the barrier
            # releases: a victim's socket FIN is then queued at every
            # peer before any ROUND frame arrives (happens-before chain).
            if crashed_now:
                crash = wire.frame_bytes(wire.CRASH, {"r": r})
                for v in crashed_now:
                    await self._send(v, crash)
                for v in crashed_now:
                    await self._expect(v, wire.READY)
            resets = self.faults.resets_at(r)
            for v in rejoining:
                await self._send(
                    v,
                    wire.frame_bytes(
                        wire.REJOIN,
                        {
                            "r": r,
                            "reset": v in resets,
                            "down": sorted(down),
                            "rejoining": rejoining,
                            "neighbors": adjacency[v],
                        },
                    ),
                )
            for v in rejoining:
                await self._expect(v, wire.READY)

            live = [v for v in range(self.n) if v not in down]
            body = {"r": r, "down": sorted(down), "rejoining": rejoining}
            if epoch_changed:  # every node gets its own new adjacency
                for v in live:
                    body["neighbors"] = adjacency[v]
                    await self._send(v, wire.frame_bytes(wire.ROUND, body))
            else:  # one body for every live node: encode it once
                body["neighbors"] = None
                frame = wire.frame_bytes(wire.ROUND, body)
                for v in live:
                    await self._send(v, frame)
            reports = dict(
                zip(
                    live,
                    await asyncio.gather(
                        *(self._expect(v, wire.DONE) for v in live)
                    ),
                )
            )

            record = self._assemble(r, live, down, adjacency, reports)
            if self.trace is not None:
                self.trace.append(record)
            self.rounds_executed = r
            self.connections_made += record.connections.shape[0]
            if self.on_round(r, record) or r == max_rounds:
                break
            down_prev = down

        stop = wire.frame_bytes(wire.STOP)
        for v in range(self.n):
            await self._send(v, stop)

    # -- report validation + trace assembly -----------------------------------

    def _assemble(
        self,
        r: int,
        live: list[int],
        down: frozenset[int],
        adjacency: dict[int, list[int]],
        reports: dict[int, dict],
    ) -> RoundRecord:
        tags = np.full(self.n, -1, dtype=np.int64)
        proposals: list[tuple[int, int]] = []
        proposed_to: dict[int, int] = {}
        for v in live:
            report = reports[v]
            if report["r"] != r:
                raise ChannelError(
                    f"node {v} reported round {report['r']} during round {r}"
                )
            tag = int(report["tag"])
            if not self._tag_ok(tag):
                raise ModelViolation(
                    f"node {v} reported tag {tag} outside {self.tag_length} bits"
                )
            tags[v] = tag
            target = report["proposed"]
            if target is not None:
                target = int(target)
                if target in down or target not in adjacency[v]:
                    raise ModelViolation(
                        f"node {v} proposed to {target}, not a live neighbor "
                        f"in round {r}"
                    )
                proposals.append((v, target))
                proposed_to[v] = target

        connections: list[tuple[int, int]] = []
        endpoint_seen: set[int] = set()
        for t in live:
            s = reports[t]["accepted"]
            if s is None:
                continue
            s = int(s)
            if proposed_to.get(s) != t:
                raise ModelViolation(
                    f"node {t} accepted {s}, which never proposed to it "
                    f"in round {r}"
                )
            if t in proposed_to:
                raise ModelViolation(
                    f"node {t} both proposed and accepted in round {r}"
                )
            for endpoint in (s, t):
                if endpoint in endpoint_seen:
                    raise ModelViolation(
                        f"node {endpoint} joined two connections in round {r}"
                    )
                endpoint_seen.add(endpoint)
            connections.append((s, t))

        active = np.ones(self.n, dtype=bool)
        for v in down:
            active[v] = False
        return RoundRecord(
            round_index=r,
            proposals=np.asarray(proposals, dtype=np.int64).reshape(-1, 2),
            connections=np.asarray(connections, dtype=np.int64).reshape(-1, 2),
            tags=tags,
            active=active,
        )

    async def shutdown(self) -> None:
        for handle in self._handles.values():
            try:
                handle.writer.close()
            except RuntimeError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
