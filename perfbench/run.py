"""The repository's benchmark: what users run, end to end and layer by layer.

    python3 perfbench/run.py --workload {campaign,million,live} --seed N
        --seconds S --trace {0,1}

Run it from the root of a checkout.  Each workload runs in fresh,
single-threaded worker processes (``perfbench/worker.py``) driven by the
seed; this process only launches them, one at a time, and aggregates.

``--trace 0`` measures the end-to-end metrics untraced.  A run makes
``FULL_AT_25[workload]`` full workload processes at ``--seconds 25``, in
proportion to ``S`` otherwise (a count fixed by the arguments), then
set-up-only processes until there are ``MIN_SETUPS[workload]`` set-up
samples.  ``setup_s``, ``run_s`` and ``peak_rss_mb`` are medians over
processes; ``round_ms_p50`` and ``round_ms_tail`` come from the rounds of
all full processes pooled: a ``live`` round, a ``million`` round from one
engine step to the next, a ``campaign`` engine step on its own.

``--trace 1`` runs an untraced process and then a traced one, and reports
the per-layer metrics of the traced one plus the tracing overhead, paired
op by op (a cell of ``campaign``, a round otherwise) with the op's
untraced twin.  The spans and the per-layer table of the traced process
are kept in
``.perfbench/`` (``perfbench/report.py`` turns the tables into
``perfbench/WHERE_TIME_GOES.md``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit.  Metric names and units come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

WORKLOADS = ("campaign", "million", "live")
#: Full workload processes per untraced run at ``--seconds 25``.  On 2
#: vCPUs a ``campaign`` process takes about 21 s, a ``million`` one 28 s
#: and a 30-round ``live`` one 10 s.  The host's speed moves by up to 20%
#: over seconds, so a run takes the median of several processes where a
#: full measurement (22 runs of each workload) still fits in under an hour.
FULL_AT_25 = {"campaign": 2, "million": 1, "live": 3}
#: Set-up samples per untraced run (set-up-only processes top up); fewer
#: for ``million``, whose set-up builds a 10^6-node graph each time.
MIN_SETUPS = {"campaign": 5, "million": 2, "live": 3}
#: Hard wall-clock budget of one run; a worker past it is killed.
RUN_BUDGET_S = 170.0
#: Samples beyond the tail percentile.
TAIL_BEYOND = 10
#: Never used while building or tuning the benchmark: confirm claims on it.
HELD_OUT_SEED = 20171


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


def tail(values: list[float]) -> float:
    """The highest sample with at least ``TAIL_BEYOND`` samples above it."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        raise ValueError(f"tail needs more than {TAIL_BEYOND} samples, got {len(ordered)}")
    return ordered[-TAIL_BEYOND - 1]


def full_processes(workload: str, seconds: int) -> int:
    return max(1, round(FULL_AT_25[workload] * seconds / 25))


def _worker_env(tmp: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(tmp)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Launcher:
    """Runs worker processes one at a time inside the run's budget."""

    def __init__(self, workload: str, seed: int, scratch: Path, plant: str | None = None):
        self.workload = workload
        self.seed = seed
        self.plant = plant
        self.scratch = scratch
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = _worker_env(scratch)

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def run(
        self, *, setup_only: bool = False, trace: bool = False, spans_to: Path | None = None
    ) -> dict:
        """One worker process; its result document, or a failed one.  A
        traced process's spans are kept at ``spans_to`` if given."""
        workdir = Path(tempfile.mkdtemp(dir=self.scratch))
        out = workdir / "result.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"), self.workload, str(self.seed),
            "--workdir", str(workdir), "--out", str(out),
        ]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd.append("--trace")
        if self.plant:
            cmd += ["--plant", self.plant]
        try:
            budget = self.remaining()
            if budget <= 0:
                return {"ok": False, "error": "run budget exhausted", "ops": 1, "ops_failed": 1}
            t0 = time.time()
            proc = subprocess.run(
                cmd + ["--t0", repr(t0)],
                cwd=ROOT, env=self.env, timeout=budget,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            if proc.returncode != 0 or not out.exists():
                return {
                    "ok": False, "ops": 1, "ops_failed": 1,
                    "error": f"worker exit {proc.returncode}: {proc.stderr[-2000:]}",
                }
            doc = json.loads(out.read_text())
            if spans_to is not None and doc.get("ok"):
                shutil.move(doc.pop("spans_file"), spans_to)
            return doc
        except subprocess.TimeoutExpired:
            return {"ok": False, "error": "worker timed out", "ops": 1, "ops_failed": 1}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def end_to_end(full: list[dict], setups: list[float]) -> dict[str, float]:
    rounds = [ms for d in full for ms in d["round_ms"]]
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(d["run_s"] for d in full),
        "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in full),
        "round_ms_p50": statistics.median(rounds),
        "round_ms_tail": tail(rounds),
    }


def paired_overhead(plain: dict, traced: dict) -> tuple[float, float]:
    """(median, quartile distance over median) of the traced/untraced
    ratios of each op paired with the same op of its untraced twin."""
    ratios = [t / p for p, t in zip(plain["op_ms"], traced["op_ms"]) if p > 0]
    q1, q2, q3 = statistics.quantiles(ratios, n=4)
    return q2, (q3 - q1) / q2


def measure(launcher: Launcher, seconds: int) -> tuple[list[dict], dict]:
    """Untraced run: the full processes, then set-up top-ups."""
    docs = [launcher.run() for _ in range(full_processes(launcher.workload, seconds))]
    full = [d for d in docs if d.get("ok")]
    if len(full) < len(docs):
        return docs, {}
    setups = [d["setup_s"] for d in full]
    while len(setups) < MIN_SETUPS[launcher.workload]:
        doc = launcher.run(setup_only=True)
        docs.append(doc)
        if not doc.get("ok"):
            return docs, {}
        setups.append(doc["setup_s"])
    return docs, end_to_end(full, setups)


def measure_traced(launcher: Launcher) -> tuple[list[dict], dict]:
    """Traced run: an untraced process, then its traced twin.  One pair
    keeps a traced run under about a minute on 2 vCPUs."""
    plain = launcher.run()
    traced = launcher.run(trace=True, spans_to=STATE / f"spans-{launcher.workload}.npz")
    docs = [plain, traced]
    if not (plain.get("ok") and traced.get("ok")):
        return docs, {}
    metrics = dict(traced["layers"])
    # Same seed, same ops (checked by ``verdict``): each traced op is
    # paired with its untraced twin, so the ratio has a spread even from
    # one pair of processes.
    ratio, spread = paired_overhead(plain, traced)
    metrics["trace.overhead_ratio"] = ratio
    metrics["trace.overhead_spread"] = spread
    table = {"workload": launcher.workload, "seed": launcher.seed,
             "overhead": [ratio, spread], "run_s_ratio": traced["run_s"] / plain["run_s"],
             "run_s": traced["run_s"], "layers": traced["layers"], "spans": traced["table"]}
    (STATE / f"table-{launcher.workload}.json").write_text(json.dumps(table, indent=1))
    return docs, metrics


def _fingerprint(doc: dict) -> str:
    """The per-seed deterministic part of a worker's checks."""
    return json.dumps(doc.get("checks", {}), sort_keys=True)


def verdict(docs: list[dict], seed: int) -> tuple[bool, int, int]:
    """(correct, attempted, failed) of a run's worker documents; every
    failure and finding is explained on standard error."""
    full = [d for d in docs if "ops" in d]
    attempted = sum(int(d["ops"]) for d in full)
    failed = sum(int(d["ops_failed"]) for d in full)
    prints = {_fingerprint(d) for d in full if d.get("ok")}
    correct = bool(full) and all(d.get("ok") for d in docs) and len(prints) == 1
    for d in docs:
        if not d.get("ok"):
            print(f"perfbench: worker failed: {d.get('error') or d.get('checks')}", file=sys.stderr)
    if len(prints) > 1:
        print(f"perfbench: same seed, different outcomes: {sorted(prints)}", file=sys.stderr)
    elif prints:
        print(f"perfbench: checks (seed {seed}): {prints.pop()}", file=sys.stderr)
    findings = {f for d in full for f in d.get("checks", {}).get("verifier_findings", ())}
    for finding in sorted(findings):
        print(f"perfbench: finding (seed {seed}): verifier {finding} checks passed",
              file=sys.stderr)
    return correct, max(attempted, 1), failed if attempted else 1


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path.name} not found at the checkout root")
    return json.loads(path.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (ROOT / "src" / "repro").is_dir():
            raise BenchError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        spec = _spec()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    STATE.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=STATE))
    try:
        launcher = Launcher(args.workload, args.seed, scratch)
        docs, measured = measure_traced(launcher) if args.trace else measure(launcher, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    correct, attempted, failed = verdict(docs, args.seed)

    metrics = {}
    if correct and measured:
        for m in wanted:
            name = m["name"]
            # A cell that did not run (every cell on ``million`` and ``live``) took no time.
            value = measured.get(name, 0.0) if name.startswith("experiments.cell_s.") else measured[name]
            metrics[name] = {"value": value, "unit": m["unit"]}
            print(f"{name:32s} {value:14.6g} {m['unit']}")
    print(json.dumps({"correct": correct and bool(measured), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
