"""Unit tests of the benchmark's own arithmetic (seconds to run):

    python3 -m pytest perfbench/test_perfbench.py -q

The planted-slowdown check of the whole benchmark is ``selftest.py``.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402
from run import full_processes, paired_overhead, tail  # noqa: E402
from selftest import flagged  # noqa: E402


def test_tail_has_ten_samples_beyond():
    values = list(range(60))
    assert tail(values) == 49
    assert sum(v > tail(values) for v in values) == 10
    with pytest.raises(ValueError):
        tail(list(range(10)))


def test_process_count_depends_on_arguments_only():
    assert full_processes("live", 25) == 3
    assert full_processes("campaign", 25) == 2
    assert full_processes("million", 60) == 2
    assert full_processes("campaign", 1) == 1


def test_overhead_pairs_each_op_with_its_untraced_twin():
    plain = {"op_ms": [10.0, 20.0, 40.0, 0.0]}
    traced = {"op_ms": [11.0, 22.0, 44.0, 1.0]}  # the zero-length op is skipped
    ratio, spread = paired_overhead(plain, traced)
    assert ratio == pytest.approx(1.1)
    assert spread == pytest.approx(0.0)


def test_union_clips_and_merges():
    assert tracer._union([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert tracer._union([(0, 2), (1, 3)], 1.5, 2.5) == 1.0
    assert tracer._union([], 0, 1) == 0
    # A task started inside a span can outlive it: its spans do not count.
    assert tracer._union([(5, 6), (-3, -1)], 0, 2) == 0


def test_self_time_subtracts_children_and_nested_names_count_once():
    tr = tracer.Tracer()
    clock = iter([0.0, 1.0, 3.0, 3.5, 4.0, 10.0])
    tracer._perf, saved = (lambda: next(clock)), tracer._perf
    try:
        def leaf():
            pass

        inner = tr.wrap(leaf, "b")
        same = tr.wrap(lambda: inner(), "a")  # a -> a -> b
        outer = tr.wrap(lambda: same(), "a")
        outer()
    finally:
        tracer._perf = saved
    table = tr.summary()
    # outer a: 0..10, nested a: 1..4, b: 3..3.5
    assert table["a"]["calls"] == 1
    assert table["a"]["incl_s"] == 10.0
    assert table["a"]["self_s"] == pytest.approx((10 - 3) + (3 - 0.5))
    assert table["b"]["self_s"] == 0.5


def test_coverage_counts_busy_spans_not_wrappers_or_waits():
    tr = tracer.Tracer()
    clock = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 8.0, 10.0])
    tracer._perf, saved = (lambda: next(clock)), tracer._perf
    try:
        busy = tr.wrap(lambda: None, "csrops.pick")
        wait = tr.wrap(lambda: busy(), "live.channels.wait")
        cell = tr.wrap(lambda: (busy(), wait()), "experiments.cell.E1")
        cell()
    finally:
        tracer._perf = saved
    # cell 0..10 holds pick 1..2 and wait 3..8, which holds pick 5..6
    assert tr.busy_union((0.0, 10.0)) == pytest.approx(2.0)
    assert not tracer.is_busy("experiments.cell.E1")
    assert not tracer.is_busy("live.wire.read")
    assert tracer.is_busy("live.wire.decode")


def test_replace_everywhere_reaches_names_imported_by_name(monkeypatch):
    def original():
        return 1

    module = types.ModuleType("repro._perfbench_probe")
    module.fn = original
    module.table = {"k": original}
    monkeypatch.setitem(sys.modules, module.__name__, module)
    assert tracer.replace_everywhere(original, len) == 2
    assert module.fn is len and module.table["k"] is len


def test_flag_rule_needs_nine_tenths_and_a_gap_beyond_the_quartiles():
    base = [10.0, 10.2, 9.9, 10.1, 10.0]
    assert flagged(base, [b * 1.3 for b in base], base)[0]
    assert not flagged(base, [10.05, 10.25, 9.95, 10.15, 10.05], base)[0]  # consistent but tiny
    assert not flagged(base, [13.0, 13.0, 13.0, 13.0, 9.0], base)[0]  # only 4 of 5 worse
