"""Golden trace digests for the live transport tier.

A live run is a deterministic function of its config and seed even
though socket scheduling is not (see :mod:`repro.live.run`).  Each case
below runs one small live configuration over localhost TCP and pins the
sha256 of every traced round's arrays (proposals, connections, tags,
activity) together with the round count, the connection count and the
number of frames the run sent.  A rewrite of the transport that is meant
to be behaviour-preserving (framing, codec, task structure) is checked
as such: a changed random stream, tie-break, phase order or frame count
shows up here.  Re-pin only for an intended change, and say so in the
change log.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.faults.plan import (
    ConnectionDropModel,
    CrashSchedule,
    CrashWindow,
    FaultPlan,
)
from repro.live import LiveRunConfig, run_live


def _config(name: str) -> LiveRunConfig:
    if name == "blind_gossip_clique16":
        return LiveRunConfig(algorithm="blind_gossip", family="clique", n=16, seed=0)
    if name == "ppush_clique12":
        return LiveRunConfig(algorithm="ppush", family="clique", n=12, seed=1)
    if name == "bit_convergence_clique8":
        return LiveRunConfig(algorithm="bit_convergence", family="clique", n=8, seed=2)
    if name == "push_pull_ring10_tau3":
        return LiveRunConfig(
            algorithm="push_pull", family="ring", n=10, seed=3, tau=3,
            max_rounds=2000,
        )
    if name == "crash_rejoin_drop":
        # The plan of ``test_live.TestLiveFaults.test_crash_rejoin_and_drop``.
        plan = FaultPlan(
            crashes=CrashSchedule((
                CrashWindow(node=2, start=2, end=4),
                CrashWindow(node=5, start=3, end=3, reset_on_rejoin=False),
            )),
            connection_drop=ConnectionDropModel(p=0.2),
        )
        return LiveRunConfig(
            algorithm="blind_gossip", family="clique", n=8, seed=9,
            fault_plan=plan, max_rounds=2000,
        )
    raise KeyError(name)


def live_digest(cfg: LiveRunConfig) -> tuple[str, int, int, int]:
    """(trace sha256, rounds, connections made, frames sent) of one run."""
    report = run_live(cfg)
    h = hashlib.sha256()
    h.update(repr((report.result.stabilized, report.result.rounds)).encode())
    for rec in report.trace.rounds:
        h.update(np.int64(rec.round_index).tobytes())
        for arr in (rec.proposals, rec.connections, rec.tags):
            a = np.ascontiguousarray(arr, dtype=np.int64)
            h.update(repr(a.shape).encode())
            h.update(a.tobytes())
        h.update(np.ascontiguousarray(rec.active, dtype=bool).tobytes())
    return (
        h.hexdigest(),
        report.result.rounds,
        report.connections_made,
        report.frames_sent,
    )


GOLDEN = {
    "blind_gossip_clique16": (
        "c353b77adb709511cd76e3a88f752cbb2505e4c630cf2827424fff6ba35f49c7",
        21, 66, 11107,
    ),
    "ppush_clique12": (
        "39b697570e0fee255ad370bcda16785551ad1817c2d1ed6669aeef8b3de90818",
        5, 11, 1536,
    ),
    "bit_convergence_clique8": (
        "86bfeb426ae5ded6ebfe541e6d5b503513b3a20b6d219010223d0249ac145865",
        36, 62, 4872,
    ),
    "push_pull_ring10_tau3": (
        "17db0b44e0c330a9b9e9393084c5e22c96e5aeaa13809f694ede5a1802d7917d",
        14, 29, 1007,
    ),
    "crash_rejoin_drop": (
        "fda5006c786672093a63b15dc9847503f30df9b08eb6652e3ccfc1efc8531ff4",
        13, 20, 1677,
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_live_digest_is_pinned(name):
    assert live_digest(_config(name)) == GOLDEN[name]


if __name__ == "__main__":  # print digests for (re-)pinning
    for key in GOLDEN:
        print(f"    {key!r}: {live_digest(_config(key))!r},")
