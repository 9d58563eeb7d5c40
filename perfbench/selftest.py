"""The benchmark's planted-slowdown self-test.

    python3 perfbench/selftest.py [--seed N] [--rounds K] [--workload W ...]

From outside the program, make one layer do its work twice with unchanged
results (``tracer.PLANTS``: ``build_csr``, then
``segmented_uniform_accept_pairs``) and check that the benchmark flags the
regression where the layer matters and nowhere else:

* ``build_csr`` twice: ``setup_s`` on ``million``; not ``run_s``; nothing
  on ``live``.
* ``segmented_uniform_accept_pairs`` twice: ``run_s`` and
  ``csrops.accept_s`` on ``million``, ``csrops.accept_s`` on ``campaign``;
  not ``setup_s``; nothing on ``live``.
* an unchanged rerun: nothing, anywhere.

End-to-end metrics come from ``K`` untraced pairs per variant, each an
unchanged process and a variant process run back to back, alternating
which goes first.  The planted layer's own metric comes from
``LAYER_PAIRS`` traced pairs made the same way; the plant sits beneath
the tracer's span, so the span times both copies of the work.  A metric is flagged by
the gain rule of the choosing-metrics guide: the variant is worse in at
least nine tenths of its pairs (ties count for neither) and the medians
differ by more than the distance between the quartiles of the workload's
unchanged runs.

``run_s`` under the accept plant is reported, not gated, on ``campaign``:
the layer is about 12% of its ``run_s`` (``WHERE_TIME_GOES.md``), spread
over 31 cells of mostly other work, and five pairs of single processes on
a shared 2-CPU host do not resolve it end to end.

Takes about 40 minutes on 2 CPUs at the default ``K = 5``.  Prints one
line per check, writes them all to ``.perfbench/selftest.json`` and exits
1 if any expectation fails.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import STATE, Launcher  # noqa: E402

RERUN = "rerun"
BUILD_CSR = "build_csr"
ACCEPT = "segmented_uniform_accept_pairs"
#: workload -> variant -> {metric: must be flagged (True), must not
#: (False), or reported only (None)}.
EXPECT = {
    "million": {
        RERUN: {"setup_s": False, "run_s": False},
        BUILD_CSR: {"setup_s": True, "run_s": False},
        ACCEPT: {"setup_s": False, "run_s": True},
    },
    "campaign": {
        RERUN: {"setup_s": False, "run_s": False},
        ACCEPT: {"run_s": None},
    },
    "live": {
        RERUN: {"setup_s": False, "run_s": False},
        BUILD_CSR: {"setup_s": False, "run_s": False, "round_ms_p50": False},
        ACCEPT: {"run_s": False, "round_ms_p50": False},
    },
}
#: (workload, plant) -> the per-layer metric the plant doubles.
LAYER = {
    ("million", BUILD_CSR): "graphs.build_csr_s",
    ("million", ACCEPT): "csrops.accept_s",
    ("campaign", ACCEPT): "csrops.accept_s",
}
LAYER_PAIRS = 3


def _metrics(doc: dict) -> dict[str, float]:
    return {
        "setup_s": doc["setup_s"],
        "run_s": doc["run_s"],
        "round_ms_p50": statistics.median(doc["round_ms"]),
        **doc.get("layers", {}),
    }


def flagged(base: list[float], changed: list[float], spread: list[float]) -> tuple[bool, int, float]:
    """(flagged, pairs the change lost, median ratio) of paired samples;
    ``spread`` are the unchanged runs whose quartile distance the medians
    must differ by."""
    worse = sum(c > b for b, c in zip(base, changed))
    q1, _, q3 = statistics.quantiles(spread, n=4)
    gap = statistics.median(changed) - statistics.median(base)
    ratio = statistics.median(changed) / statistics.median(base)
    return worse >= 0.9 * len(base) and gap > q3 - q1, worse, ratio


def _pairs(workload: str, seed: int, variant: str, count: int, trace: bool,
           scratch: Path, log) -> list[tuple[dict, dict]]:
    """``count`` back-to-back (unchanged, variant) process pairs."""
    plant = None if variant == RERUN else variant
    pairs = []
    for i in range(count):
        sides = [None, plant]
        docs = [None, None]
        for side in ([1, 0] if i % 2 else [0, 1]):
            doc = Launcher(workload, seed, scratch, plant=sides[side]).run(trace=trace)
            if not doc.get("ok"):
                raise RuntimeError(f"{workload}/{variant} side {side} failed: {doc.get('error')}")
            docs[side] = _metrics(doc)
        pairs.append((docs[0], docs[1]))
        log(f"  {workload} {variant}{' traced' if trace else ''} pair {i + 1}/{count}: "
            + " ".join(f"{m}={docs[0][m]:.4g}/{docs[1][m]:.4g}" for m in ("setup_s", "run_s")))
    return pairs


def run_workload(workload: str, seed: int, rounds: int, scratch: Path, log) -> list[dict]:
    plain = {v: _pairs(workload, seed, v, rounds, False, scratch, log) for v in EXPECT[workload]}
    checks = [
        (variant, metric, want, pairs)
        for variant, pairs in plain.items()
        for metric, want in EXPECT[workload][variant].items()
    ]
    for (w, variant), metric in LAYER.items():
        if w == workload:
            pairs = _pairs(workload, seed, variant, LAYER_PAIRS, True, scratch, log)
            checks.append((variant, metric, True, pairs))
    rows = []
    for variant, metric, want, pairs in checks:
        traced = metric not in ("setup_s", "run_s", "round_ms_p50")
        spread = [b[metric] for b, _ in pairs] if traced else [
            b[metric] for ps in plain.values() for b, _ in ps
        ]
        flag, worse, ratio = flagged([b[metric] for b, _ in pairs],
                                     [c[metric] for _, c in pairs], spread)
        rows.append({
            "workload": workload, "variant": variant, "metric": metric,
            "ratio": ratio, "worse_pairs": worse, "pairs": len(pairs),
            "flagged": flag, "expected": want, "ok": want is None or flag == want,
        })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--workload", action="append", choices=sorted(EXPECT))
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")

    STATE.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=STATE))
    rows = []
    try:
        for workload in args.workload or list(EXPECT):
            rows += run_workload(workload, args.seed, args.rounds, scratch,
                                 lambda line: print(line, flush=True))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for row in rows:
        print("{ok:4s} {workload:9s} {variant:31s} {metric:19s} ratio {ratio:6.3f}  worse "
              "{worse_pairs}/{pairs}  flagged {flagged!s:5s} expected {expected}".format(
                  **{**row, "ok": "ok" if row["ok"] else "FAIL"}))
    (STATE / "selftest.json").write_text(json.dumps(rows, indent=1))
    return 0 if all(row["ok"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
