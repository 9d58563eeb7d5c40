"""Run one benchmark workload in this (fresh, single-threaded) process.

    python3 perfbench/worker.py WORKLOAD SEED --t0 EPOCH --workdir DIR --out RESULT.json
        [--setup-only] [--trace] [--plant LAYER]

``--t0`` is the wall-clock time at which the parent launched this
process, so ``setup_s`` covers interpreter start, imports, graph
construction and (for ``live``) the socket mesh, up to the first round or
cell.  The boundary is timestamped from outside the program by hooking
one public call per round or cell; ``--setup-only`` writes the result at
that boundary and exits at once.

The result JSON holds the timings, the workload's own correctness
verdict, and, with ``--trace``, the per-layer numbers and the spans file.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import re
import resource
import sys
import time
import traceback
from array import array
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402

#: Rounds a ``live`` process executes, independent of stabilization.  A
#: run pools the rounds of several such processes (``run.FULL_AT_25``).
LIVE_ROUNDS = 30
#: Nodes of the ``live`` clique.
LIVE_NODES = 64
#: ``million``: random 8-regular graph on this many nodes.
MILLION_N = 1_000_000
#: Accepted stabilization rounds for ``million``.  S1's quick table has
#: blind gossip on random 8-regular graphs stabilize in 71 rounds at
#: n = 2^17, and its verifier accepts a log-log slope of rounds against n
#: in [-0.2, 0.45].  Extrapolating that window over the factor 10^6 / 2^17
#: gives [47, 177]: wide enough for any RNG-stream change an engine fold
#: can make, narrow enough to fail a linear or stalled run.
MILLION_ROUND_BAND = (47, 177)


class _Clock:
    """Op (round or cell) boundaries and round durations, timestamped from
    outside the program."""

    def __init__(self, t0: float, setup_only: bool, out: Path):
        self.t0 = t0
        self.setup_only = setup_only
        self.out = out
        self.marks: list[float] = []
        self.setup_s: float | None = None
        self.rounds_end: float | None = None
        #: Round durations, when rounds are not the ops (``campaign``); an
        #: array, so that 10^5 rounds add under 1 MB to the measured RSS.
        self.round_ms: array | None = None
        self._inside = False
        self._in_round = False

    def mark(self) -> None:
        if not self.marks:
            self.setup_s = time.time() - self.t0
            if self.setup_only:
                _write(self.out, {"ok": True, "setup_s": self.setup_s})
                os._exit(0)
        self.marks.append(time.perf_counter())

    def hook(self, fn):
        """Wrap ``fn`` so each outermost call marks a boundary first."""
        clock = self

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            if clock._inside:
                return fn(*args, **kwargs)
            clock.mark()
            clock._inside = True
            try:
                return fn(*args, **kwargs)
            finally:
                clock._inside = False

        return marked

    def time_rounds(self, fn):
        """Wrap ``fn`` so each outermost call's duration is one round."""
        clock = self
        if clock.round_ms is None:
            clock.round_ms = array("d")
        rounds = clock.round_ms

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if clock._in_round:
                return fn(*args, **kwargs)
            clock._in_round = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rounds.append(1000 * (time.perf_counter() - start))
                clock._in_round = False

        return timed


ENGINES = (
    "repro.core.vectorized:VectorizedEngine",
    "repro.core.batched:BatchedVectorizedEngine",
    "repro.core.largen:LargeNEngine",
    "repro.core.engine:ReferenceEngine",
)


def _engine_classes():
    return [tracing.resolve(path) for path in ENGINES]


def _write(path: Path, doc: dict) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc))
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Workloads: each returns (ops, ops_failed, checks) and leaves its round
# boundaries on the clock.
# ---------------------------------------------------------------------------


def run_campaign(seed: int, clock: _Clock, workdir: Path) -> tuple[int, int, dict]:
    """The full quick-profile registry as one serial, in-process campaign."""
    import inspect

    from repro.harness import campaign
    from repro.harness.experiments import EXPERIMENTS, registry_order
    from repro.harness.persistence import load_document
    from repro.harness.verify import VERIFIERS

    # Cells are timestamped where the campaign calls into the registry; a
    # round is one engine step, timed on its own, since cells run whole
    # trials and tables between rounds.
    campaign.run_experiment = clock.hook(campaign.run_experiment)
    for cls in _engine_classes():
        cls.step = clock.time_rounds(cls.step)
    order = registry_order(None)
    seeded = [
        e for e in order if "seed" in inspect.signature(EXPERIMENTS[e].func).parameters
    ]
    report = campaign.run_campaign(
        campaign.CampaignConfig(
            profile="quick",
            checkpoint_dir=workdir / "checkpoints",
            processes=1,
            overrides={e: {"seed": seed} for e in seeded},
        )
    )
    failed = []
    findings = []
    for cell in report.cells:
        doc = load_document(cell.path, strict=False) if cell.path else None
        if (
            cell.status != "completed"
            or doc is None
            or doc.exp_id != cell.exp_id
            or (cell.exp_id in VERIFIERS and not cell.checks_total)
        ):
            failed.append(cell.exp_id)
        elif cell.checks_passed != cell.checks_total:
            findings.append(f"{cell.exp_id} {cell.checks_passed}/{cell.checks_total}")
    done = {cell.exp_id for cell in report.cells}
    failed += [e for e in order if e not in done]
    checks = {
        "cells": len(report.cells),
        "failed_cells": failed,
        "aborted": report.aborted,
        "failure_events": len(report.failures),
        "verifier_findings": findings,
        "seeded_cells": len(seeded),
    }
    return len(order), len(failed), checks


def run_million(seed: int, clock: _Clock, workdir: Path) -> tuple[int, int, dict]:
    """``repro simulate blind_gossip --family random_regular --params 10^6 8``."""
    from repro import cli

    # Rounds are timestamped at whichever engine's step the CLI drives; a
    # round runs from one step to the next, so it includes the CLI's
    # per-round progress and convergence scans.
    for cls in _engine_classes():
        cls.step = clock.hook(cls.step)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main([
            "simulate", "blind_gossip", "--family", "random_regular",
            "--params", str(MILLION_N), "8", "--seed", str(seed),
        ])
    text = out.getvalue()
    found = re.search(r"stabilized : round (\d+)", text)
    rounds = int(found.group(1)) if found else None
    lo, hi = MILLION_ROUND_BAND
    ok = rc == 0 and rounds is not None and lo <= rounds <= hi
    return 1, 0 if ok else 1, {"exit_code": rc, "stabilized_round": rounds, "band": [lo, hi]}


def run_live(seed: int, clock: _Clock, workdir: Path) -> tuple[int, int, dict]:
    """A 64-node blind-gossip clique over localhost TCP for a fixed round count."""
    from repro.live import run as live_run
    from repro.live.coordinator import RoundCoordinator
    from repro.live.faults import LiveFaultModel

    # The coordinator asks the fault model for each round's down set once,
    # at the start of the round: that call is the round boundary.
    LiveFaultModel.down_at = clock.hook(LiveFaultModel.down_at)
    run_rounds = RoundCoordinator.run_rounds

    @functools.wraps(run_rounds)
    async def timed_rounds(self, max_rounds):
        try:
            return await run_rounds(self, max_rounds)
        finally:
            clock.rounds_end = time.perf_counter()

    RoundCoordinator.run_rounds = timed_rounds
    report = live_run.run_live(
        live_run.LiveRunConfig(
            algorithm="blind_gossip",
            family="clique",
            n=LIVE_NODES,
            seed=seed,
            fixed_rounds=LIVE_ROUNDS,
            collect_trace=False,
        )
    )
    executed = report.result.rounds
    checks = {
        "rounds": executed,
        "connections": report.connections_made,
        "frames": report.frames_sent,
    }
    return LIVE_ROUNDS, 0 if executed == LIVE_ROUNDS else LIVE_ROUNDS, checks


WORKLOADS = {"campaign": run_campaign, "million": run_million, "live": run_live}


def _layer_metrics(
    tr: tracing.Tracer, window: tuple[float, float], run_s: float, checks: dict
) -> tuple[dict, dict]:
    """The per-layer numbers of one traced run (see ``BENCHMARK.json``)."""
    table = tr.summary()

    def incl(*names):
        return sum(table.get(n, {}).get("incl_s", 0.0) for n in names)

    c = tr.counts
    proposals = c.get("csrops.proposals", 0.0)
    metrics = {
        "graphs.build_s": incl("graphs.build"),
        "graphs.build_csr_s": incl("graphs.build_csr"),
        "graphs.is_connected_s": incl("graphs.is_connected"),
        "core.step_s": table.get("core.step", {}).get("self_s", 0.0),
        "core.rounds": table.get("core.step", {}).get("calls", 0),
        "core.sparse_rounds": c.get("core.sparse_rounds", 0.0),
        "csrops.pick_s": incl("csrops.pick"),
        "csrops.accept_s": incl("csrops.accept"),
        "csrops.proposals": proposals,
        "csrops.connections": c.get("csrops.connections", 0.0),
        "csrops.accept_ratio": c.get("csrops.connections", 0.0) / proposals if proposals else 0.0,
        "algorithms.tags_s": incl("algorithms.tags"),
        "algorithms.senders_s": incl("algorithms.senders"),
        "algorithms.exchange_s": incl("algorithms.exchange"),
        "algorithms.check_s": incl("algorithms.check"),
        "dynamic.topology_s": incl("dynamic.topology"),
        "faults.s": incl("faults"),
        "asyncsim.s": incl("asyncsim"),
        "tournament.s": incl("tournament"),
        "analysis.s": incl("analysis"),
        "runner.trials": c.get("runner.trials", 0.0),
        "runner.s": incl("runner"),
        "verify.s": incl("verify"),
        "verify.checks": c.get("verify.checks", 0.0),
        "verify.findings": len(checks.get("verifier_findings", ())),
        "persistence.save_s": incl("persistence.save"),
        "persistence.bytes": c.get("persistence.bytes", 0.0),
        "live.wire.encode_s": incl("live.wire.encode"),
        "live.wire.decode_s": incl("live.wire.decode"),
        "live.wire.frames": c.get("live.wire.frames", 0.0),
        "live.wire.bytes": c.get("live.wire.bytes", 0.0),
        "live.channels.send_s": incl("live.channels.send"),
        # Waits overlap across the nodes' tasks: report them per node.
        "live.channels.wait_s": incl("live.channels.wait") / LIVE_NODES,
        "live.connections": checks.get("connections", 0),
        "live.barrier_wait_s": sum(
            max(0.0, min(e, window[1]) - max(s, window[0]))
            for s, e in tr.spans_of("live.wire.read", None)
        ) / LIVE_NODES,
        # Busy layer spans only: the wrappers (a cell, the round loop) and
        # the waits would cover the run whatever the layers miss.
        "trace.coverage": tr.busy_union(window) / run_s if run_s > 0 else 0.0,
        "trace.spans": len(tr),
    }
    for name, row in table.items():
        if name.startswith("experiments.cell."):
            metrics["experiments.cell_s." + name.rsplit(".", 1)[1]] = row["incl_s"]
    return metrics, table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--plant", choices=sorted(tracing.PLANTS), default=None)
    args = parser.parse_args(argv)

    clock = _Clock(args.t0, args.setup_only, args.out)
    # The plant goes in first, so that a traced layer's one span times
    # both copies of its work.
    if args.plant:
        tracing.plant_slowdown(args.plant)
    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tracing.install(tr)
    try:
        ops, failed, checks = WORKLOADS[args.workload](args.seed, clock, args.workdir)
        error = None
    except Exception:  # noqa: BLE001 - the benchmark reports any failure as a failed op
        ops, failed, checks = 1, 1, {}
        error = traceback.format_exc()
    done = time.perf_counter()
    doc = {
        "ok": error is None and failed == 0 and bool(clock.marks),
        "error": error,
        "ops": ops,
        "ops_failed": failed,
        "checks": checks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if clock.marks:
        first = clock.marks[0]
        last = clock.rounds_end if clock.rounds_end is not None else done
        bounds = clock.marks + [last]
        doc["setup_s"] = clock.setup_s
        doc["run_s"] = done - first
        doc["op_ms"] = [1000 * (b - a) for a, b in zip(bounds, bounds[1:])]
        doc["round_ms"] = (
            clock.round_ms.tolist() if clock.round_ms is not None else doc["op_ms"]
        )
        if tr is not None:
            doc["layers"], table = _layer_metrics(tr, (first, done), done - first, checks)
            doc["table"] = table
            spans = args.workdir / "spans.npz"
            tr.save(str(spans))
            doc["spans_file"] = str(spans)
    _write(args.out, doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
