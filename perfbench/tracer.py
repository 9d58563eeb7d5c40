"""Spans around calls into the program's public functions, installed from outside.

Nothing in ``src/`` knows about this module.  :func:`install` imports the
``repro`` package and swaps each public function or method named in
:data:`FUNCTION_LAYERS` / :data:`METHOD_LAYERS` for a wrapper that records
one span (name, start, end, parent) per call.  Module functions are
replaced in every ``repro`` module namespace (and module-level dict) that
holds them, so callers that imported them by name see the wrapper too.

The parent of a span is the span open in the caller's context; a
:class:`contextvars.ContextVar` carries it, so every asyncio task keeps
its own chain.  Spans live in flat arrays in memory and are written once,
by :meth:`Tracer.save`, when the workload ends.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import os
import pkgutil
import sys
import time
from array import array
from collections import defaultdict

__all__ = [
    "Tracer",
    "is_busy",
    "replace_everywhere",
    "wrap_methods",
    "resolve",
    "install",
    "plant_slowdown",
    "PLANTS",
]

_perf = time.perf_counter


class Tracer:
    """In-memory span store plus named counters."""

    def __init__(self) -> None:
        self.name_ids: dict[str, int] = {}
        self.names: list[str] = []
        self.span_name = array("I")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.counts: dict[str, float] = defaultdict(float)
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=-1
        )

    def _name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name, count=None):
        """Return ``fn`` wrapped in a span.

        ``name`` is a span name or a callable ``(args, kwargs) -> name``;
        ``count(counts, args, kwargs, result)`` updates counters after a
        call returns.
        """
        fixed = None if callable(name) else self._name_id(name)
        current = self._current
        span_name, start, end, parent = self.span_name, self.start, self.end, self.parent
        counts = self.counts

        def open_span(args, kwargs):
            idx = len(start)
            span_name.append(fixed if fixed is not None else self._name_id(name(args, kwargs)))
            parent.append(current.get())
            end.append(0.0)
            start.append(_perf())
            return idx, current.set(idx)

        if inspect.iscoroutinefunction(fn):

            async def wrapper(*args, **kwargs):
                idx, token = open_span(args, kwargs)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    end[idx] = _perf()
                    current.reset(token)
                if count is not None:
                    count(counts, args, kwargs, result)
                return result

        else:

            def wrapper(*args, **kwargs):
                idx, token = open_span(args, kwargs)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end[idx] = _perf()
                    current.reset(token)
                if count is not None:
                    count(counts, args, kwargs, result)
                return result

        functools.update_wrapper(wrapper, fn)
        wrapper.__perfbench_original__ = fn
        return wrapper

    def __len__(self) -> int:
        return len(self.start)

    def save(self, path: str) -> None:
        """Write every span (name, start, end, parent) as an npz file."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=object).astype(str),
            span_name=np.frombuffer(self.span_name, dtype=np.uint32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )

    # -- analysis -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive time and self time.

        Inclusive time sums the spans whose parent has another name, so a
        layer that calls itself is not counted twice.  Self time is a
        span's duration minus the part of it that its children cover
        (their union, clipped to the span), which stays correct when
        children are concurrent asyncio tasks.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        children: dict[int, list[int]] = defaultdict(list)
        for i in range(n):
            p = self.parent[i]
            children[p].append(i)
        covered = [0.0] * n
        for p, kids in children.items():
            if p < 0:
                continue
            covered[p] = _union(
                ((self.start[k], self.end[k]) for k in kids),
                self.start[p],
                self.end[p],
            )
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in self.names
        }
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            p = self.parent[i]
            nested = p >= 0 and self.span_name[p] == self.span_name[i]
            if not nested:
                row["calls"] += 1
                row["incl_s"] += dur[i]
            row["self_s"] += dur[i] - covered[i]
        return out

    def busy_union(self, window: tuple[float, float]) -> float:
        """Seconds of ``window`` that busy spans (see :func:`is_busy`) cover."""
        busy = [is_busy(name) for name in self.names]
        return _union(
            ((self.start[i], self.end[i]) for i in range(len(self.start))
             if busy[self.span_name[i]]),
            *window,
        )

    def spans_of(self, name: str, parent_name: str | None) -> list[tuple[float, float]]:
        """(start, end) of spans ``name`` whose parent is a ``parent_name``
        span, or that have no parent when ``parent_name`` is ``None``."""
        nid = self.name_ids.get(name)
        pid = -1 if parent_name is None else self.name_ids.get(parent_name)
        if nid is None or pid is None:
            return []
        return [
            (self.start[i], self.end[i])
            for i in range(len(self.start))
            if self.span_name[i] == nid
            and (
                self.parent[i] == -1
                if pid == -1
                else self.parent[i] >= 0 and self.span_name[self.parent[i]] == pid
            )
        ]


#: Spans that only bracket other work: a campaign cell, the live round
#: loop, a live channel's lifetime (its frame pump's reads nest under it).
WRAPPER_SPANS = ("experiments.cell", "live.coordinator.rounds", "live.channels.open")
#: Spans that mostly wait for a peer's frame on a live socket.
WAIT_SPANS = ("live.channels.wait", "live.wire.read")


def is_busy(name: str) -> bool:
    """Whether span ``name`` times a layer's own work: not a wrapper, not a wait."""
    return not name.startswith(WRAPPER_SPANS + WAIT_SPANS)


def _union(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        s = max(s, reach)
        if e > s:  # clipping empties an interval that lies outside [lo, hi]
            total += e - s
            reach = e
    return total


# ---------------------------------------------------------------------------
# Patching helpers
# ---------------------------------------------------------------------------


def _repro_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]


def replace_everywhere(original, replacement) -> int:
    """Rebind ``original`` to ``replacement`` in every ``repro`` module
    namespace and module-level dict; returns how many references moved."""
    moved = 0
    for module in _repro_modules():
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement
                moved += 1
            elif type(value) is dict:
                for dkey, dvalue in list(value.items()):
                    if dvalue is original:
                        value[dkey] = replacement
                        moved += 1
    return moved


def _subclasses(cls):
    seen, stack = [], [cls]
    while stack:
        c = stack.pop()
        if c not in seen:
            seen.append(c)
            stack.extend(c.__subclasses__())
    return seen


def wrap_methods(bases, method_names, make_wrapper) -> int:
    """Replace each method in ``method_names`` defined on any class in
    ``bases`` or their subclasses with ``make_wrapper(fn)``."""
    wrapped = 0
    for base in bases:
        for cls in _subclasses(base):
            for m in method_names:
                fn = cls.__dict__.get(m)
                if inspect.isfunction(fn) and not hasattr(fn, "__perfbench_original__"):
                    setattr(cls, m, make_wrapper(fn))
                    wrapped += 1
    return wrapped


def import_all_repro() -> None:
    """Import every ``repro`` submodule so every class and name reference
    exists before wrappers go in (lazy ``from … import`` inside functions
    then resolve to the wrapped module attribute)."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        try:
            importlib.import_module(info.name)
        except ImportError:
            pass  # optional backends (e.g. the numba kernels) are absent here


def resolve(path: str):
    """The object at ``"module:attr.attr"``."""
    module, _, attr = path.partition(":")
    obj = importlib.import_module(module)
    for part in attr.split(".") if attr else ():
        obj = getattr(obj, part)
    return obj


def _public_functions(module_name: str) -> list[str]:
    module = importlib.import_module(module_name)
    return [
        name
        for name, fn in vars(module).items()
        if inspect.isfunction(fn)
        and fn.__module__ == module_name
        and not name.startswith("_")
    ]


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------


def _count_accept(counts, args, kwargs, result):
    counts["csrops.proposals"] += len(args[0] if args else kwargs["senders"])
    counts["csrops.connections"] += len(result[0])


def _count_sparse(counts, args, kwargs, result):
    counts["core.sparse_rounds"] += 1


def _count_trials(counts, args, kwargs, result):
    counts["runner.trials"] += int(kwargs.get("trials", 0))


def _count_checks(counts, args, kwargs, result):
    counts["verify.checks"] += len(result)


def _count_saved(counts, args, kwargs, result):
    counts["persistence.bytes"] += os.path.getsize(result)


def _count_frame(counts, args, kwargs, result):
    counts["live.wire.frames"] += 1
    counts["live.wire.bytes"] += len(result)


def _cell_name(args, kwargs):
    exp_id = args[0] if args else kwargs["exp_id"]
    return f"experiments.cell.{exp_id}"


# ---------------------------------------------------------------------------
# The layers
# ---------------------------------------------------------------------------

#: (span name, defining module, function names, counter).  A ``None``
#: span name counts calls without recording a span.
FUNCTION_LAYERS = [
    ("graphs.build", "repro.graphs.families",
     lambda: sorted({fn.__name__ for fn in resolve("repro.graphs.families:FAMILY_BUILDERS").values()}), None),
    ("graphs.build_csr", "repro.util.csrops", ["build_csr"], None),
    ("csrops.pick", "repro.util.csrops",
     ["segmented_random_pick", "segmented_random_pick_subset",
      "batched_random_pick", "batched_permuted_pick"], None),
    ("csrops.accept", "repro.util.csrops",
     ["segmented_uniform_accept", "batched_uniform_accept"], None),
    ("csrops.accept", "repro.util.csrops", ["segmented_uniform_accept_pairs"], _count_accept),
    ("runner", "repro.harness.runner", ["run_trials", "run_trials_batched"], _count_trials),
    ("verify", "repro.harness.verify", ["verify_experiment"], _count_checks),
    ("persistence.save", "repro.harness.persistence", ["save_table"], _count_saved),
    ("tournament", "repro.harness.tournament",
     ["run_tournament_trial", "tournament_leaderboard"], None),
    *[
        ("analysis", f"repro.analysis.{m}", lambda m=m: _public_functions(f"repro.analysis.{m}"), None)
        for m in ("bounds", "expansion", "fitting", "matching", "micro", "statistics")
    ],
    ("experiments.cell", "repro.harness.experiments", ["run_experiment"], None),
    ("live.wire.encode", "repro.live.wire", ["encode"], None),
    ("live.wire.decode", "repro.live.wire", ["decode"], None),
    ("live.wire.read", "repro.live.wire", ["read_frame"], None),
    (None, "repro.live.wire", ["frame_bytes"], _count_frame),
]

#: (span name, base classes, method names, counter).
METHOD_LAYERS = [
    ("graphs.is_connected", ["repro.graphs.static:Graph"], ["is_connected"], None),
    ("core.step",
     ["repro.core.engine:ReferenceEngine", "repro.core.vectorized:VectorizedEngine",
      "repro.core.batched:BatchedVectorizedEngine", "repro.core.largen:LargeNEngine"],
     ["step"], None),
    ("algorithms.tags",
     ["repro.core.vectorized:VectorizedAlgorithm", "repro.core.batched:BatchedAlgorithm"],
     ["tags"], None),
    ("algorithms.senders",
     ["repro.core.vectorized:VectorizedAlgorithm", "repro.core.batched:BatchedAlgorithm"],
     ["senders", "eligible_flat", "receiver_mask"], None),
    ("algorithms.senders",
     ["repro.core.vectorized:VectorizedAlgorithm", "repro.core.batched:BatchedAlgorithm"],
     ["sparse_senders", "sparse_senders_flat"], _count_sparse),
    ("algorithms.exchange",
     ["repro.core.vectorized:VectorizedAlgorithm", "repro.core.batched:BatchedAlgorithm"],
     ["exchange"], None),
    ("algorithms.check",
     ["repro.core.vectorized:VectorizedAlgorithm", "repro.core.batched:BatchedAlgorithm"],
     ["converged", "observable", "node_done", "node_done_subset", "node_done_subset_flat"], None),
    ("dynamic.topology",
     ["repro.graphs.dynamic:DynamicGraph", "repro.graphs.dynamic:BatchedPermutedDynamicGraph"],
     ["graph_at", "permutation_at", "permutations_at", "observe"], None),
    ("faults", ["repro.faults.apply:_FaultStateBase"],
     ["up_mask", "rejoin_resets", "events_at", "connection_keep",
      "corruption_victims", "corrupt_tags"], None),
    ("asyncsim", ["repro.asyncsim.engine:EventSimEngine"], ["run", "run_until"], None),
    ("live.channels.send", ["repro.live.channels:EdgeChannel"], ["send"], None),
    ("live.channels.wait", ["repro.live.channels:EdgeChannel"], ["expect"], None),
    ("live.coordinator.rounds", ["repro.live.coordinator:RoundCoordinator"], ["run_rounds"], None),
    # A channel's frame pump is a task started by its constructor, so the
    # pump's reads nest under this span; a node's reads of its control
    # connection (the round barrier) are then the parentless reads.
    ("live.channels.open", ["repro.live.channels:EdgeChannel"], ["__init__"], None),
]


def _counting(fn, count, counts):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        count(counts, args, kwargs, result)
        return result

    wrapper.__perfbench_original__ = fn
    return wrapper


def install(tracer: Tracer) -> int:
    """Wrap every layer in :data:`FUNCTION_LAYERS` and :data:`METHOD_LAYERS`;
    returns the number of functions and methods wrapped."""
    import_all_repro()
    wrapped = 0
    for span, module_name, names, count in FUNCTION_LAYERS:
        module = importlib.import_module(module_name)
        for fname in names() if callable(names) else names:
            original = getattr(module, fname)
            if span is None:
                replacement = _counting(original, count, tracer.counts)
            else:
                name = _cell_name if span == "experiments.cell" else span
                replacement = tracer.wrap(original, name, count)
            replace_everywhere(original, replacement)
            wrapped += 1
    for span, bases, methods, count in METHOD_LAYERS:
        wrapped += wrap_methods(
            [resolve(b) for b in bases],
            methods,
            lambda fn, span=span, count=count: tracer.wrap(fn, span, count),
        )
    return wrapped


# ---------------------------------------------------------------------------
# Planted slowdowns (the benchmark's self-test)
# ---------------------------------------------------------------------------


def _twice_build_csr(fn):
    @functools.wraps(fn)
    def slow(n, edges):
        fn(n, edges)
        return fn(n, edges)

    return slow


def _twice_accept_pairs(fn):
    @functools.wraps(fn)
    def slow(senders, targets, rng):
        # Replay the same draws: restoring the generator's state costs a
        # fifth of a small call, where a deepcopy would cost twice one.
        state = rng.bit_generator.state
        fn(senders, targets, rng)
        rng.bit_generator.state = state
        return fn(senders, targets, rng)

    return slow


#: Layer name -> (defining module, function, wrapper doing the work twice).
PLANTS = {
    "build_csr": ("repro.util.csrops", "build_csr", _twice_build_csr),
    "segmented_uniform_accept_pairs": (
        "repro.util.csrops", "segmented_uniform_accept_pairs", _twice_accept_pairs,
    ),
}


def plant_slowdown(layer: str) -> None:
    """Make ``layer`` do its work twice, with unchanged results."""
    module_name, fname, make = PLANTS[layer]
    module = importlib.import_module(module_name)
    original = getattr(module, fname)
    replace_everywhere(original, make(original))
