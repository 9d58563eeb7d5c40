"""Write ``perfbench/WHERE_TIME_GOES.md`` from the traced runs' tables.

    python3 perfbench/run.py --workload W --seed 1 --seconds 25 --trace 1   # each W
    python3 perfbench/report.py

``run.py --trace 1`` leaves ``.perfbench/table-<workload>.json``: the span
table (calls, inclusive and self time per span name) of its traced
process, the per-layer metrics and the paired tracing overhead.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

STATE = HERE.parent / ".perfbench"
OUT = HERE / "WHERE_TIME_GOES.md"
ORDER = ("campaign", "million", "live")

HEADER = """\
# Where the time goes

Generated by `python3 perfbench/report.py` from the traced process of
`python3 perfbench/run.py --workload W --seed {seed} --seconds 25 --trace 1`
(2 vCPUs shared with other tenants, Python {python}).  Spans are timed
around calls into the program's public functions from `perfbench/tracer.py`;
`src/` knows nothing of them.  *Inclusive* time sums a span name's
outermost calls; *self* time is a span minus the part its child spans cover.
The share is inclusive time over the traced `run_s`.  Traced times carry
the tracing overhead, which is given for each workload; read shares, not
absolute seconds.  `live` spans overlap across the 64 nodes' asyncio tasks,
so its wait spans (`live.wire.read`, `live.channels.wait`) sum to far more
than wall time and their shares exceed 100%; `live.channels.wait_s` and
`live.barrier_wait_s` in `BENCHMARK.json` are per node.  Inclusive times
are not clipped to the run: `live.coordinator.rounds` starts in set-up.

A span is a *wrapper* if it only brackets other work (`experiments.cell.*`,
`live.coordinator.rounds`, `live.channels.open`), a *wait* if it mostly
waits for a peer's frame (`live.channels.wait`, `live.wire.read`), and
*busy* otherwise.  Coverage is the share of the traced `run_s` that the
union of busy spans covers; the rest is unattributed, i.e. code between
the wrapped calls (on `live`, the nodes' round logic and the asyncio event
loop's socket handling).

## Why these workloads

- `campaign`: the whole quick-profile registry, serial and in-process, is
  what someone reproducing the paper runs.  Most of its time is harness:
  runner, verify, persistence, tournament, faults, dynamic graphs and
  adversaries, asyncsim.  Engines run at small n over many replicas, so
  they are bound by per-call dispatch cost.
- `million`: one blind-gossip trial at n = 10^6 through `repro simulate`,
  the scale the paper's system targets.  Set-up is graph construction;
  rounds are memory-bound `csrops` kernels over huge arrays, called a few
  times per round.  The harness does nothing.  With `campaign` it brackets
  `core`/`csrops`/`algorithms`: a change that trades per-call overhead for
  bandwidth, or the reverse, loses on one of the two.
- `live`: a 64-node clique over real localhost sockets for a fixed 30
  rounds per process, the only load on `live.wire`, `live.channels` and
  `live.coordinator`; array engines and harness do nothing.  A fixed round
  count keeps the work the same across commits.

## Why `harness.pool` and `util.shm` stay unmeasured

Every workload runs serially in one process, the default users run.  On 2
shared CPUs a 2-worker pool measures the host's scheduler and the other
tenants, not the pool, and it would put a second load-generating process
beside the measured one.  `util.shm` only serves the pool.
"""


def _kind(name: str) -> str:
    if name.startswith(tracer.WRAPPER_SPANS):
        return "wrapper"
    return "busy" if tracer.is_busy(name) else "wait"


def _fmt_workload(table: dict, units: dict[str, str]) -> str:
    run_s = table["run_s"]
    ratio, spread = table["overhead"]
    layers = table["layers"]
    op = "cell" if table["workload"] == "campaign" else "round"
    lines = [
        f"## `{table['workload']}`",
        "",
        f"Traced `run_s` {run_s:.2f} s; busy layer spans cover "
        f"{layers['trace.coverage']:.1%} of it, {1 - layers['trace.coverage']:.1%} is "
        f"unattributed; {int(layers['trace.spans']):,} spans.  Tracing overhead, each "
        f"traced {op} over the same {op} of the untraced process run just before: "
        f"median {ratio:.3f}, quartile distance {spread:.1%} of it; whole-run ratio "
        f"{table['run_s_ratio']:.3f}.",
        "",
        "| span | kind | calls | inclusive s | self s | share |",
        "|---|---|---:|---:|---:|---:|",
    ]
    rows = [
        (name, row) for name, row in table["spans"].items()
        if row["calls"] and not name.startswith("experiments.cell.")
    ]
    for name, row in sorted(rows, key=lambda kv: -kv[1]["incl_s"]):
        lines.append(
            f"| `{name}` | {_kind(name)} | {row['calls']:,} | {row['incl_s']:.3f} "
            f"| {row['self_s']:.3f} "
            f"| {row['incl_s'] / run_s:.1%} |"
        )
    cells = sorted(
        ((name.rsplit(".", 1)[1], row["incl_s"]) for name, row in table["spans"].items()
         if name.startswith("experiments.cell.")),
        key=lambda kv: -kv[1],
    )
    if cells:
        lines += ["", "Cells, slowest first (inclusive s): "
                  + ", ".join(f"{cid} {s:.2f}" for cid, s in cells) + "."]
    counts = [(k, v) for k, v in layers.items()
              if units.get(k) not in ("s", None) and not k.startswith("trace.") and v]
    if counts:
        lines += ["", "Counts: " + ", ".join(
            f"`{k}` {v:,.0f}" if v >= 10 else f"`{k}` {v:.3g}" for k, v in counts) + "."]
    return "\n".join(lines) + "\n"


def main() -> int:
    tables = []
    for workload in ORDER:
        path = STATE / f"table-{workload}.json"
        if not path.is_file():
            print(f"report: {path} missing; run the traced run first", file=sys.stderr)
            return 1
        tables.append(json.loads(path.read_text()))
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    seeds = sorted({t["seed"] for t in tables})
    text = HEADER.format(seed=",".join(map(str, seeds)), python=sys.version.split()[0])
    OUT.write_text(text + "\n" + "\n".join(_fmt_workload(t, units) for t in tables))
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
