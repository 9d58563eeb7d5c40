"""Golden trace digests for :class:`VectorizedEngine`.

Each case runs a small traced configuration and hashes every observable
of every round (proposals, connections, tags, activity) together with the
run result.  The digests pin the engine's exact RNG consumption and
kernel outputs, so a rewrite of the round's internals that is meant to be
bit-identical (a fast path, a different mask plumbing, a compact accept)
is checked as such: any change to a random stream or a tie-break shows up
as a digest mismatch.  Re-pin only for an intended stream change, and say
so in the change log.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.algorithms.bit_convergence import BitConvergenceConfig, BitConvergenceVectorized
from repro.algorithms.blind_gossip import BlindGossipVectorized
from repro.algorithms.ppush import PPushVectorized
from repro.algorithms.push_pull import PushPullVectorized
from repro.core.vectorized import VectorizedEngine
from repro.faults import (
    ConnectionDropModel,
    CrashSchedule,
    CrashWindow,
    FaultPlan,
    TagCorruptionModel,
)
from repro.graphs import families
from repro.graphs.adversary import PackingAdversary
from repro.graphs.dynamic import PeriodicRelabelDynamicGraph, StaticDynamicGraph
from repro.harness.experiments import uid_keys_random


def _bitconv(n: int, delta: int) -> BitConvergenceVectorized:
    config = BitConvergenceConfig(n_upper=n, delta_bound=delta)
    return BitConvergenceVectorized(uid_keys_random(n, 3), config, tag_seed=5)


def _case(name: str) -> tuple[VectorizedEngine, int]:
    """Engine and round budget of one golden case."""
    rr = families.random_regular(128, 6, seed=1)
    if name == "blind_gossip":
        return VectorizedEngine(
            StaticDynamicGraph(rr), BlindGossipVectorized(uid_keys_random(128, 2)),
            seed=11, collect_trace=True, sparse="off",
        ), 400
    if name == "push_pull":
        return VectorizedEngine(
            StaticDynamicGraph(families.line_of_stars(4, 8)),
            PushPullVectorized(np.array([0])),
            seed=12, collect_trace=True, sparse="off",
        ), 400
    if name == "bit_convergence":
        return VectorizedEngine(
            StaticDynamicGraph(families.random_regular(64, 4, seed=2)),
            _bitconv(64, 4), seed=13, collect_trace=True, sparse="off",
        ), 300
    if name == "ppush":
        return VectorizedEngine(
            StaticDynamicGraph(families.line_of_stars(4, 8)),
            PPushVectorized(np.array([1])),
            seed=14, collect_trace=True, sparse="off",
        ), 400
    if name == "staggered":
        activation = np.random.default_rng(4).integers(1, 20, size=128)
        return VectorizedEngine(
            StaticDynamicGraph(rr), BlindGossipVectorized(uid_keys_random(128, 2)),
            seed=15, collect_trace=True, sparse="off",
            activation_rounds=activation,
        ), 400
    if name == "faults":
        plan = FaultPlan(
            crashes=CrashSchedule((
                CrashWindow(node=3, start=2, end=30, reset_on_rejoin=False),
                CrashWindow(node=9, start=5),
            )),
            connection_drop=ConnectionDropModel(p=0.2),
            tag_corruption=TagCorruptionModel(q=0.05),
        )
        return VectorizedEngine(
            StaticDynamicGraph(families.random_regular(64, 4, seed=2)),
            _bitconv(64, 4), seed=16, collect_trace=True, sparse="off",
            fault_plan=plan,
        ), 300
    if name == "relabel_tau1":
        return VectorizedEngine(
            PeriodicRelabelDynamicGraph(rr, 1, seed=6),
            BlindGossipVectorized(uid_keys_random(128, 2)),
            seed=17, collect_trace=True, sparse="off",
        ), 400
    if name == "adaptive":
        return VectorizedEngine(
            PackingAdversary(families.double_star(8), tau=1),
            PushPullVectorized(np.array([2])),
            seed=18, collect_trace=True, sparse="off",
        ), 400
    if name == "sparse_force":
        return VectorizedEngine(
            StaticDynamicGraph(rr), BlindGossipVectorized(uid_keys_random(128, 2)),
            seed=19, collect_trace=True, sparse="force",
        ), 400
    raise KeyError(name)


def trace_digest(engine: VectorizedEngine, max_rounds: int) -> str:
    """sha256 over the run result and every traced round's arrays."""
    res = engine.run(max_rounds)
    h = hashlib.sha256()
    h.update(repr((res.stabilized, res.rounds, engine.connections_made)).encode())
    for rec in res.trace.rounds:
        h.update(np.int64(rec.round_index).tobytes())
        for arr in (rec.proposals, rec.connections, rec.tags):
            a = np.ascontiguousarray(arr, dtype=np.int64)
            h.update(repr(a.shape).encode())
            h.update(a.tobytes())
        h.update(np.ascontiguousarray(rec.active, dtype=bool).tobytes())
    return h.hexdigest()


GOLDEN = {
    "blind_gossip": (
        "0723d889273196a18bdf1194e635601d"
        "a1a98449dbd3a7bf1a134732ca630f0e"
    ),
    "push_pull": (
        "49b53e26dfb90921fe372e93c7cbea52"
        "9fb4ed1b709bdded071bfbd1c5e5de84"
    ),
    "bit_convergence": (
        "77b0e6c3af02df5a90554c8002011cc1"
        "bc19d81d78e6da5658452eef2a6a9250"
    ),
    "ppush": (
        "c539aa09d36577f6acf023ae657db5d3"
        "1d72ed4bcf3e3d6c9aba8040a18d39a1"
    ),
    "staggered": (
        "1abe25241f79b44bd2d26dfc55da505e"
        "cf14065d870d8aee9e5661e5c404eabf"
    ),
    "faults": (
        "a7e55786397696804332ab26dd929ef0"
        "707c3473769987ee09a58e864742675f"
    ),
    "relabel_tau1": (
        "7752ade30978fc0b99912e27f3f49642"
        "b95a6fc10ef11baea3ab003d5cc197aa"
    ),
    "adaptive": (
        "8d78ca97177d2925753136001452a5dc"
        "98bcc700f6c6c7d1906fccba76bc1759"
    ),
    "sparse_force": (
        "9d85abbb03e3e70443e003d29955c190"
        "1a4cb089980bd2507bef221864eb4417"
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_digest_is_pinned(name):
    engine, max_rounds = _case(name)
    assert trace_digest(engine, max_rounds) == GOLDEN[name]


if __name__ == "__main__":  # print digests for (re-)pinning
    for key in GOLDEN:
        eng, budget = _case(key)
        print(f'    "{key}": "{trace_digest(eng, budget)}",')
