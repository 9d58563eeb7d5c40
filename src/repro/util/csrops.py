"""Segmented operations on CSR adjacency structures.

The vectorized round engine (:mod:`repro.core.vectorized`) represents the
current topology as a CSR pair ``(indptr, indices)`` and needs two
primitives executed once per simulated round:

``segmented_random_pick``
    every *sender* chooses one neighbor uniformly at random, optionally
    restricted by a boolean predicate over neighbors (e.g. "neighbors
    currently advertising tag 1");

``segmented_uniform_accept``
    every *receiver* with at least one incoming proposal accepts one
    uniformly at random.

Both are fully vectorized (no per-node Python loop); this is the hot path
identified when profiling large sweeps, per the optimize-the-bottleneck
workflow.  The reference engine implements the same semantics with plain
per-node loops and the two are cross-validated in the test suite.

The batched round engine (:mod:`repro.core.batched`) runs ``T``
independent replicas of one configuration at once and needs the same two
primitives with a leading replica axis:

``batched_random_pick``
    per-replica uniform neighbor choice over a *shared* CSR topology,
    with ``(T, n)``/``(T, nnz)`` masks — one kernel dispatch covers all
    replicas of a round;

``batched_uniform_accept``
    per-(replica, receiver) uniform acceptance over flat proposal arrays
    carrying a replica id — one sort covers all replicas.

Replicas with *distinct* topologies come in two tiers.  Isomorphic churn
(relabelings of one shared base graph — the dominant dynamic workload) is
served by :func:`batched_permuted_pick`, which routes each replica's pick
through its ``(n,)`` relabel permutation against the single base CSR, so
no per-round graph construction or restacking happens at all.  Genuinely
structure-changing replicas are handled by :func:`stack_csr`, which
assembles a block-diagonal CSR so the plain segmented kernels batch over
``T·n`` vertices directly.

Sparse-activity rounds (the large-n path) add two subset primitives:
:func:`gather_rows` (concatenated neighbor lists of a row subset, used
for frontier expansion) and :func:`segmented_random_pick_subset` (uniform
neighbor choice for an explicit row subset, so a round whose active
frontier is small never touches the full ``(n,)``/``(nnz,)`` arrays).

Backend registry
----------------
The hot kernels dispatch through a named backend registry.  ``"numpy"``
(always present) is the pure-NumPy implementation below; ``"numba"`` is
registered at import when the optional :mod:`numba` package is installed
(see :mod:`repro.util._csrops_numba`) and produces bit-identical results.
Selection order at import: the ``REPRO_CSROPS_BACKEND`` environment
variable (``numpy`` / ``numba`` / ``auto``) wins; unset or ``auto`` picks
``numba`` when available and silently falls back to ``numpy`` otherwise.
At runtime, :func:`set_backend` switches backends and the module-level
``backend`` string names the active one.
"""

from __future__ import annotations

import math
import os
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "build_csr",
    "csr_degrees",
    "gather_rows",
    "unique_nodes",
    "segmented_random_pick",
    "segmented_random_pick_subset",
    "segmented_uniform_accept",
    "segmented_uniform_accept_pairs",
    "batched_random_pick",
    "batched_permuted_pick",
    "batched_uniform_accept",
    "invert_permutations",
    "stack_csr",
    "available_backends",
    "get_backend",
    "register_backend",
    "set_backend",
]


def _require_bool(name: str, mask: np.ndarray) -> None:
    if mask.dtype != np.bool_:
        raise TypeError(
            f"{name} must have dtype bool, got {mask.dtype} (a non-boolean "
            "mask would be summed, not tested, by the eligibility count)"
        )


def _check_masks(
    indptr: np.ndarray,
    indices: np.ndarray,
    *,
    active: np.ndarray | None = None,
    neighbor_mask: np.ndarray | None = None,
    flat_mask: np.ndarray | None = None,
) -> None:
    """Reject pick masks that are not boolean or do not match the CSR.

    Checked once, before backend dispatch: a mis-shaped mask would
    otherwise broadcast silently (a length-1 ``active`` makes every row
    pick) or index past the arrays it is meant to align with.
    """
    n = indptr.shape[0] - 1
    for name, mask, shape in (
        ("active", active, (n,)),
        ("neighbor_mask", neighbor_mask, (n,)),
        ("flat_mask", flat_mask, indices.shape),
    ):
        if mask is not None:
            _require_bool(name, mask)
            if mask.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {mask.shape}")


#: Largest vertex count whose composite arc key ``src * n + dst`` fits in
#: int64; :func:`build_csr` and the graph layer sort on that one key.
MAX_KEYED_N = math.isqrt(2**63 - 1)


def build_csr(n: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Build a CSR adjacency ``(indptr, indices)`` from an undirected edge list.

    Parameters
    ----------
    n
        Number of vertices (labelled ``0..n-1``), at most
        :data:`MAX_KEYED_N`.
    edges
        ``(m, 2)`` integer array of undirected edges.  Self-loops and
        duplicate edges are rejected.

    Returns
    -------
    indptr, indices
        Standard CSR row pointers (length ``n + 1``) and, for each vertex,
        its sorted neighbor list.
    """
    if n > MAX_KEYED_N:
        raise ValueError(
            f"n={n} exceeds {MAX_KEYED_N}, the largest vertex count whose "
            "composite edge key src*n + dst fits in int64"
        )
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        raise ValueError("edge endpoint out of range")
    if edges.size and np.any(edges[:, 0] == edges[:, 1]):
        raise ValueError("self-loops are not allowed")
    # Symmetrize: each undirected edge contributes two directed arcs, and
    # one sort of the arc keys ``src * n + dst`` orders them by row, then
    # by neighbor.
    src, dst = edges[:, 0], edges[:, 1]
    key = np.sort(np.concatenate([src * n + dst, dst * n + src]))
    if np.any(key[1:] == key[:-1]):
        raise ValueError("duplicate edges are not allowed")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // n, minlength=n), out=indptr[1:])
    return indptr, key % n


def csr_degrees(indptr: np.ndarray) -> np.ndarray:
    """Vertex degrees from CSR row pointers."""
    return indptr[1:] - indptr[:-1]


def _subset_flat_positions(
    indptr: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat CSR positions of ``rows``' entries, concatenated in row order.

    Returns ``(pos, starts, ends)`` where ``pos`` indexes ``indices`` and
    ``starts[i]..ends[i]`` delimit row ``i``'s segment inside ``pos``.
    """
    deg = indptr[rows + 1] - indptr[rows]
    ends = np.cumsum(deg)
    starts = ends - deg
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        return np.empty(0, dtype=np.int64), starts, ends
    pos = (
        np.arange(total, dtype=np.int64)
        - np.repeat(starts, deg)
        + np.repeat(indptr[rows], deg)
    )
    return pos, starts, ends


def gather_rows(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Concatenated CSR entries (neighbor lists) of ``rows``, in row order.

    The frontier-expansion primitive of the sparse-activity path: one
    vectorized gather replaces a per-row Python loop of slices.  Rows may
    repeat; empty rows contribute nothing.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return np.empty(0, dtype=np.int64)
    pos, _, _ = _subset_flat_positions(indptr, rows)
    return indices[pos]


def unique_nodes(ids: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer id array.

    Result-identical to :func:`numpy.unique` but via an explicit
    sort-and-diff — NumPy ≥ 2.3 routes ``unique`` through a hash table
    that is an order of magnitude slower at the few-thousand-element
    sizes frontier rounds produce every round.
    """
    if ids.size <= 1:
        return ids.astype(np.int64, copy=True).reshape(-1)
    a = np.sort(ids.reshape(-1))
    keep = np.empty(a.size, dtype=bool)
    keep[0] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


# ---------------------------------------------------------------------------
# NumPy backend kernels
# ---------------------------------------------------------------------------


def _segmented_random_pick_numpy(
    indptr: np.ndarray,
    indices: np.ndarray,
    rng: np.random.Generator,
    *,
    active: np.ndarray | None = None,
    neighbor_mask: np.ndarray | None = None,
    flat_mask: np.ndarray | None = None,
) -> np.ndarray:
    n = indptr.shape[0] - 1
    pick = np.full(n, -1, dtype=np.int64)
    if active is None:
        active = np.ones(n, dtype=bool)

    if neighbor_mask is None and flat_mask is None:
        deg = csr_degrees(indptr)
        rows = np.flatnonzero(active & (deg > 0))
        if rows.size == 0:
            return pick
        offsets = rng.integers(0, deg[rows])
        pick[rows] = indices[indptr[rows] + offsets]
        return pick

    # Masked variant: count eligible entries per row via a running sum over
    # the flat eligibility array, then locate the j-th eligible entry of a
    # row by binary search on that running sum.  ``csum[i - 1]`` is the
    # number of eligible entries among ``flat[:i]`` (0 for ``i = 0``), so
    # per-row counts index ``csum`` directly — no shifted copy is built.
    if neighbor_mask is not None:
        eligible = neighbor_mask[indices]
        if flat_mask is not None:
            eligible = eligible & flat_mask
    else:
        eligible = flat_mask
    if eligible.size == 0:
        return pick
    csum = np.cumsum(eligible, dtype=np.int64)
    starts, ends = indptr[:-1], indptr[1:]
    cnt_start = np.where(starts > 0, csum[starts - 1], 0)
    cnt_end = np.where(ends > 0, csum[ends - 1], 0)
    rows = np.flatnonzero(active & (cnt_end > cnt_start))
    if rows.size == 0:
        return pick
    j = rng.integers(0, (cnt_end - cnt_start)[rows])  # j-th eligible entry
    target_rank = cnt_start[rows] + j + 1
    flat_pos = np.searchsorted(csum, target_rank, side="left")
    pick[rows] = indices[flat_pos]
    return pick


def _segmented_random_pick_subset_numpy(
    indptr: np.ndarray,
    indices: np.ndarray,
    rng: np.random.Generator,
    vertices: np.ndarray,
    *,
    neighbor_mask: np.ndarray | None = None,
    flat_mask: np.ndarray | None = None,
) -> np.ndarray:
    vertices = np.asarray(vertices, dtype=np.int64)
    k = vertices.size
    pick = np.full(k, -1, dtype=np.int64)
    if k == 0:
        return pick

    if neighbor_mask is None and flat_mask is None:
        deg = indptr[vertices + 1] - indptr[vertices]
        rows = np.flatnonzero(deg > 0)
        if rows.size == 0:
            return pick
        offsets = rng.integers(0, deg[rows])
        pick[rows] = indices[indptr[vertices[rows]] + offsets]
        return pick

    # Masked: gather the selected rows' CSR segments into one flat run,
    # then reuse the dense masked strategy (running sum + binary search)
    # on that O(sum deg(vertices)) run instead of the full nnz array.
    pos, starts, ends = _subset_flat_positions(indptr, vertices)
    if pos.size == 0:
        return pick
    nbrs = indices[pos]
    if neighbor_mask is not None:
        eligible = neighbor_mask[nbrs]
        if flat_mask is not None:
            eligible = eligible & flat_mask[pos]
    else:
        eligible = flat_mask[pos]
    csum = np.cumsum(eligible, dtype=np.int64)
    cnt_start = np.where(starts > 0, csum[starts - 1], 0)
    cnt_end = np.where(ends > 0, csum[ends - 1], 0)
    rows = np.flatnonzero(cnt_end > cnt_start)
    if rows.size == 0:
        return pick
    j = rng.integers(0, (cnt_end - cnt_start)[rows])
    target_rank = cnt_start[rows] + j + 1
    loc = np.searchsorted(csum, target_rank, side="left")
    pick[rows] = nbrs[loc]
    return pick


def _segmented_uniform_accept_pairs_numpy(
    senders: np.ndarray,
    targets: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    senders = np.asarray(senders, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if senders.shape != targets.shape:
        raise ValueError("senders and targets must have equal shape")
    if senders.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    # Stable-by-target order via a unique composite key: quicksort on
    # distinct keys yields exactly the (target, input-position) order a
    # stable sort would, at a fraction of the cost of kind="stable" on
    # the raw (highly duplicated) targets.
    m = targets.size
    order = np.argsort(targets * m + np.arange(m, dtype=np.int64))
    s_sorted = senders[order]
    t_sorted = targets[order]
    # Group boundaries: starts[i]..starts[i+1] share one target.
    is_start = np.empty(t_sorted.size, dtype=bool)
    is_start[0] = True
    np.not_equal(t_sorted[1:], t_sorted[:-1], out=is_start[1:])
    starts = np.flatnonzero(is_start)
    ends = np.concatenate([starts[1:], [t_sorted.size]])
    sizes = ends - starts
    # floor(u * size), u ~ U[0, 1): uniform over each group up to an
    # O(size / 2^53) rounding bias, at about half the cost of a
    # per-element bounded integer draw.
    chosen = starts + (rng.random(starts.size) * sizes).astype(np.int64)
    return t_sorted[starts], s_sorted[chosen]


def _batched_random_pick_numpy(
    indptr: np.ndarray,
    indices: np.ndarray,
    rng: np.random.Generator,
    active: np.ndarray,
    *,
    neighbor_mask: np.ndarray | None = None,
    flat_mask: np.ndarray | None = None,
) -> np.ndarray:
    _require_bool("active", active)
    if active.ndim != 2:
        raise ValueError("active must have shape (T, n)")
    T, n = active.shape
    if indptr.shape[0] != n + 1:
        raise ValueError("active rows must match the CSR vertex count")
    nnz = indices.shape[0]
    pick = np.full((T, n), -1, dtype=np.int64)

    if neighbor_mask is None and flat_mask is None:
        deg = csr_degrees(indptr)
        rep, rows = np.nonzero(active & (deg > 0)[None, :])
        if rep.size == 0:
            return pick
        offsets = rng.integers(0, deg[rows])
        pick[rep, rows] = indices[indptr[rows] + offsets]
        return pick

    if neighbor_mask is not None:
        _require_bool("neighbor_mask", neighbor_mask)
        if neighbor_mask.shape != (T, n):
            raise ValueError("neighbor_mask must have shape (T, n)")
        eligible = neighbor_mask[:, indices]
        if flat_mask is not None:
            _require_bool("flat_mask", flat_mask)
            eligible = eligible & flat_mask
    else:
        if flat_mask.shape != (T, nnz):
            raise ValueError("flat_mask must have shape (T, nnz)")
        _require_bool("flat_mask", flat_mask)
        eligible = flat_mask
    if eligible.size == 0:
        return pick

    # One running sum over the row-major (T, nnz) eligibility treats the
    # batch as a single tiled CSR of T*n rows: replica t's row u spans
    # flat positions t*nnz + indptr[u] .. t*nnz + indptr[u+1].
    csum = np.cumsum(eligible.reshape(T * nnz), dtype=np.int64)
    rep_off = (np.arange(T, dtype=np.int64) * nnz)[:, None]
    starts = (indptr[:-1][None, :] + rep_off).reshape(T * n)
    ends = (indptr[1:][None, :] + rep_off).reshape(T * n)
    cnt_start = np.where(starts > 0, csum[starts - 1], 0)
    cnt_end = np.where(ends > 0, csum[ends - 1], 0)
    rows = np.flatnonzero(active.reshape(T * n) & (cnt_end > cnt_start))
    if rows.size == 0:
        return pick
    j = rng.integers(0, (cnt_end - cnt_start)[rows])
    target_rank = cnt_start[rows] + j + 1
    flat_pos = np.searchsorted(csum, target_rank, side="left")
    pick.reshape(T * n)[rows] = indices[flat_pos % nnz]
    return pick


def _batched_permuted_pick_numpy(
    indptr: np.ndarray,
    indices: np.ndarray,
    rng: np.random.Generator,
    perm: np.ndarray,
    active: np.ndarray,
    *,
    neighbor_mask: np.ndarray | None = None,
    perm_inv: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    _require_bool("active", active)
    if active.ndim != 2:
        raise ValueError("active must have shape (T, n)")
    T, n = active.shape
    if perm.shape != (T, n):
        raise ValueError("perm must have shape (T, n)")
    if indptr.shape[0] != n + 1:
        raise ValueError("active rows must match the CSR vertex count")
    p_flat = perm.reshape(T * n)

    if neighbor_mask is None:
        if perm_inv is None:
            perm_inv = invert_permutations(perm)
        # Unmasked: gather senders to base vertices, draw one neighbor
        # offset each against the base degrees, map the pick forward.
        sflat = np.flatnonzero(active)
        rows = sflat % n
        base_off = sflat - rows
        u = perm_inv.reshape(T * n)[sflat]
        d = (indptr[u + 1] - indptr[u])
        ok = d > 0
        if not ok.all():
            sflat, base_off, u, d = sflat[ok], base_off[ok], u[ok], d[ok]
        if sflat.size == 0:
            return sflat, sflat
        # floor(u * d) for u ~ U[0, 1): uniform over [0, d) up to an
        # O(d / 2^53) rounding bias — immaterial here, and roughly half
        # the cost of a per-element bounded integer draw.
        offsets = (rng.random(d.size) * d).astype(np.int64)
        w = indices[indptr[u] + offsets]
        return sflat, base_off + p_flat[base_off + w]

    # Masked: transport both masks to base coordinates
    # (mask_base[t, u] = mask[t, perm[t, u]]), pick on the base CSR, then
    # map both endpoints forward.  The inner pick dispatches through the
    # registry, so a compiled backend accelerates this path too.
    active_base = np.take_along_axis(active, perm, axis=1)
    nb_base = np.take_along_axis(neighbor_mask, perm, axis=1)
    picks = batched_random_pick(
        indptr, indices, rng, active_base, neighbor_mask=nb_base
    )
    pf = picks.reshape(T * n)
    sel = np.flatnonzero(pf >= 0)  # flat *base* ids t*n + u
    rows = sel % n
    base_off = sel - rows
    sflat = base_off + p_flat[sel]
    tflat = base_off + p_flat[base_off + pf[sel]]
    return sflat, tflat


# ---------------------------------------------------------------------------
# Backend registry and public dispatchers
# ---------------------------------------------------------------------------

#: name of the active backend; switch with :func:`set_backend`.
backend: str = "numpy"

_DISPATCHED = (
    "segmented_random_pick",
    "segmented_random_pick_subset",
    "segmented_uniform_accept_pairs",
    "batched_random_pick",
    "batched_permuted_pick",
)

_BACKENDS: dict[str, dict[str, Callable]] = {}


def register_backend(name: str, table: dict[str, Callable]) -> None:
    """Register (or replace) a kernel backend.

    ``table`` maps kernel names (a subset of the dispatched kernels) to
    implementations with the public signatures; kernels a backend omits
    fall back to the ``numpy`` implementations.  The segmented picks'
    public wrappers check mask dtypes and shapes before dispatch, so
    their implementations may assume valid masks.
    """
    unknown = set(table) - set(_DISPATCHED)
    if unknown:
        raise ValueError(f"unknown kernel name(s) in backend table: {sorted(unknown)}")
    _BACKENDS[name] = dict(table)


def available_backends() -> list[str]:
    """Names of all registered backends."""
    return sorted(_BACKENDS)


def get_backend() -> str:
    """Name of the active backend."""
    return backend


def set_backend(name: str) -> None:
    """Switch the active kernel backend (``"numpy"`` is always available)."""
    global backend
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown csrops backend {name!r}; available: {available_backends()}"
        )
    backend = name


def _impl(fname: str) -> Callable:
    table = _BACKENDS.get(backend)
    if table is None:
        raise ValueError(
            f"active csrops backend {backend!r} is not registered; "
            f"available: {available_backends()}"
        )
    fn = table.get(fname)
    return fn if fn is not None else _BACKENDS["numpy"][fname]


def segmented_random_pick(
    indptr: np.ndarray,
    indices: np.ndarray,
    rng: np.random.Generator,
    *,
    active: np.ndarray | None = None,
    neighbor_mask: np.ndarray | None = None,
    flat_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Uniform random neighbor choice for every (active) row.

    For each row ``u`` with ``active[u]`` true, picks one entry uniformly at
    random from the row's neighbor list, optionally restricted to neighbors
    ``v`` with ``neighbor_mask[v]`` true and/or to CSR entries ``i`` with
    ``flat_mask[i]`` true (a per-*entry* mask, for eligibility that depends
    on the (row, neighbor) pair rather than the neighbor alone).  Rows that
    are inactive, empty, or whose restriction leaves no eligible neighbor
    get ``-1``.

    Parameters
    ----------
    indptr, indices
        CSR adjacency.
    rng
        Generator used for the per-row uniform draws.
    active
        Boolean array over rows; ``None`` means all rows are active.
    neighbor_mask
        Boolean array over vertices restricting eligible neighbors;
        ``None`` means every neighbor is eligible.
    flat_mask
        Boolean array aligned with ``indices`` restricting eligible CSR
        entries; combined (AND) with ``neighbor_mask`` when both given.

    Returns
    -------
    numpy.ndarray
        ``pick`` of length ``n`` with ``pick[u]`` the chosen neighbor of
        ``u`` or ``-1``.
    """
    _check_masks(
        indptr, indices,
        active=active, neighbor_mask=neighbor_mask, flat_mask=flat_mask,
    )
    return _impl("segmented_random_pick")(
        indptr, indices, rng,
        active=active, neighbor_mask=neighbor_mask, flat_mask=flat_mask,
    )


def segmented_random_pick_subset(
    indptr: np.ndarray,
    indices: np.ndarray,
    rng: np.random.Generator,
    vertices: np.ndarray,
    *,
    neighbor_mask: np.ndarray | None = None,
    flat_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Uniform random neighbor choice for an explicit row subset.

    Sparse-frontier form of :func:`segmented_random_pick`: only the rows
    listed in ``vertices`` are touched, so the cost is
    ``O(sum deg(vertices))`` instead of ``O(nnz)``.  Masks keep their
    global shapes (``neighbor_mask`` over vertices, ``flat_mask`` aligned
    with ``indices``); there is no ``active`` mask — callers pass exactly
    the rows that should pick.

    Returns
    -------
    numpy.ndarray
        ``pick`` aligned with ``vertices``: the chosen neighbor of
        ``vertices[i]`` or ``-1`` when no neighbor is eligible.
    """
    _check_masks(
        indptr, indices, neighbor_mask=neighbor_mask, flat_mask=flat_mask
    )
    return _impl("segmented_random_pick_subset")(
        indptr, indices, rng, vertices,
        neighbor_mask=neighbor_mask, flat_mask=flat_mask,
    )


def segmented_uniform_accept(
    senders: np.ndarray,
    targets: np.ndarray,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Uniform acceptance of one incoming proposal per receiver.

    Given parallel arrays ``senders``/``targets`` (``senders[i]`` proposed to
    ``targets[i]``), selects for each distinct target one proposer uniformly
    at random, matching the model's rule that a receiving node accepts an
    incoming proposal chosen uniformly from the arrivals.

    Returns
    -------
    numpy.ndarray
        ``accepted`` of length ``n`` with ``accepted[v]`` the sender whose
        proposal ``v`` accepted, or ``-1`` if ``v`` received none.
    """
    accepted = np.full(n, -1, dtype=np.int64)
    receivers, winners = segmented_uniform_accept_pairs(senders, targets, rng)
    accepted[receivers] = winners
    return accepted


def segmented_uniform_accept_pairs(
    senders: np.ndarray,
    targets: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Compact form of :func:`segmented_uniform_accept`.

    Same acceptance rule and identical RNG consumption, but instead of a
    dense length-``n`` array it returns the parallel pair
    ``(receivers, winners)``: each distinct target exactly once, with the
    sender whose proposal it accepted.  The engines' hot path uses this
    form to avoid materializing (and re-scanning) a dense per-vertex
    array when only the established connections matter.
    """
    return _impl("segmented_uniform_accept_pairs")(senders, targets, rng)


def batched_random_pick(
    indptr: np.ndarray,
    indices: np.ndarray,
    rng: np.random.Generator,
    active: np.ndarray,
    *,
    neighbor_mask: np.ndarray | None = None,
    flat_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Per-replica uniform neighbor choice over one *shared* CSR topology.

    Semantically equivalent to calling :func:`segmented_random_pick` once
    per replica with that replica's masks, but all ``T`` replicas are
    served by a single cumulative sum and a single binary search — the
    per-round NumPy dispatch overhead is paid once instead of ``T`` times.

    Parameters
    ----------
    indptr, indices
        CSR adjacency shared by every replica (static-topology runs).
    rng
        Generator for the per-(replica, row) uniform draws.
    active
        ``(T, n)`` boolean sender mask (required: it fixes the replica
        count ``T``).
    neighbor_mask
        Optional ``(T, n)`` boolean per-replica vertex eligibility.
    flat_mask
        Optional ``(T, nnz)`` boolean per-replica CSR-entry eligibility,
        combined (AND) with ``neighbor_mask`` when both given.

    Returns
    -------
    numpy.ndarray
        ``(T, n)`` picks; ``pick[t, u]`` is the chosen neighbor of ``u``
        in replica ``t`` or ``-1``.
    """
    return _impl("batched_random_pick")(
        indptr, indices, rng, active,
        neighbor_mask=neighbor_mask, flat_mask=flat_mask,
    )


def batched_permuted_pick(
    indptr: np.ndarray,
    indices: np.ndarray,
    rng: np.random.Generator,
    perm: np.ndarray,
    active: np.ndarray,
    *,
    neighbor_mask: np.ndarray | None = None,
    perm_inv: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-replica uniform neighbor pick through per-replica *relabelings*.

    Replica ``t``'s round topology is the shared base CSR with vertex
    ``u`` renamed ``perm[t, u]`` (``Graph.relabel`` semantics).  This is
    the isomorphic-churn fast path: semantically identical to relabeling
    the base graph per replica and running :func:`segmented_random_pick`
    on each (or on their stacked CSR), but no relabeled graph, re-sorted
    CSR, or block-diagonal stack is ever built — sender and eligibility
    masks are gathered back to base coordinates, the pick runs against
    the one base CSR, and the chosen neighbors are mapped forward.

    Relabeling is a bijection on each vertex's neighbor set, so a uniform
    choice among eligible base neighbors *is* a uniform choice among
    eligible current-label neighbors.

    Parameters
    ----------
    indptr, indices
        Base CSR adjacency shared by every replica.
    rng
        Generator for the per-sender uniform draws.
    perm
        ``(T, n)`` relabel permutations; ``perm[t, u]`` is base vertex
        ``u``'s current label in replica ``t``.
    active
        ``(T, n)`` boolean sender mask in *current* labels.
    neighbor_mask
        Optional ``(T, n)`` per-replica vertex eligibility, in current
        labels.
    perm_inv
        Optional precomputed :func:`invert_permutations` of ``perm``
        (callers that hold ``perm`` fixed across an epoch cache it).

    Returns
    -------
    (senders_flat, targets_flat)
        Compact parallel flat arrays in current labels
        (``flat = t*n + v``): each sender that found an eligible neighbor,
        with its pick.
    """
    return _impl("batched_permuted_pick")(
        indptr, indices, rng, perm, active,
        neighbor_mask=neighbor_mask, perm_inv=perm_inv,
    )


def invert_permutations(perm: np.ndarray) -> np.ndarray:
    """Row-wise inverse of a ``(T, n)`` batch of permutations.

    ``inv[t, perm[t, u]] == u`` — one scatter for the whole batch.
    """
    inv = np.empty_like(perm)
    np.put_along_axis(
        inv, perm, np.arange(perm.shape[1], dtype=perm.dtype)[None, :], axis=1
    )
    return inv


def batched_uniform_accept(
    rep: np.ndarray,
    senders: np.ndarray,
    targets: np.ndarray,
    T: int,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Uniform acceptance of one incoming proposal per (replica, receiver).

    Proposals across all replicas arrive as parallel flat arrays
    (``senders[i]`` proposed to ``targets[i]`` inside replica ``rep[i]``);
    a single stable sort on the combined ``(replica, target)`` key groups
    every replica's arrivals at once — equivalent to ``T`` independent
    :func:`segmented_uniform_accept` calls, at one dispatch cost.

    Returns
    -------
    numpy.ndarray
        ``(T, n)`` with ``accepted[t, v]`` the sender whose proposal ``v``
        accepted in replica ``t``, or ``-1``.
    """
    rep = np.asarray(rep, dtype=np.int64)
    senders = np.asarray(senders, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if not (rep.shape == senders.shape == targets.shape):
        raise ValueError("rep, senders, and targets must have equal shape")
    if rep.size and (targets.min() < 0 or targets.max() >= n):
        raise ValueError("target out of range")
    if rep.size and (rep.min() < 0 or rep.max() >= T):
        raise ValueError("replica id out of range")
    flat = segmented_uniform_accept(senders, rep * n + targets, T * n, rng)
    return flat.reshape(T, n)


def stack_csr(
    csrs: Sequence[tuple[np.ndarray, np.ndarray]], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Block-diagonal CSR of ``T`` replica topologies on ``n`` vertices each.

    Replica ``t``'s vertex ``v`` becomes global vertex ``t*n + v``; no
    edges cross replicas.  The plain segmented kernels applied to the
    stacked CSR then batch a round over all replicas even when their
    topologies differ (dynamic/adversarial graphs).
    """
    T = len(csrs)
    if T == 0:
        raise ValueError("need at least one replica CSR")
    nnz_off = np.zeros(T + 1, dtype=np.int64)
    for t, (ip, _) in enumerate(csrs):
        if ip.shape[0] != n + 1:
            raise ValueError("every replica CSR must cover n vertices")
        nnz_off[t + 1] = nnz_off[t] + ip[-1]
    indptr = np.empty(T * n + 1, dtype=np.int64)
    indptr[0] = 0
    indices = np.empty(nnz_off[-1], dtype=np.int64)
    for t, (ip, ind) in enumerate(csrs):
        indptr[t * n + 1 : (t + 1) * n + 1] = ip[1:] + nnz_off[t]
        indices[nnz_off[t] : nnz_off[t + 1]] = ind + t * n
    return indptr, indices


# ---------------------------------------------------------------------------
# Backend registration and import-time selection
# ---------------------------------------------------------------------------

register_backend(
    "numpy",
    {
        "segmented_random_pick": _segmented_random_pick_numpy,
        "segmented_random_pick_subset": _segmented_random_pick_subset_numpy,
        "segmented_uniform_accept_pairs": _segmented_uniform_accept_pairs_numpy,
        "batched_random_pick": _batched_random_pick_numpy,
        "batched_permuted_pick": _batched_permuted_pick_numpy,
    },
)


def _init_backend_from_env() -> None:
    choice = os.environ.get("REPRO_CSROPS_BACKEND", "auto").strip().lower() or "auto"
    if choice not in ("auto", "numpy", "numba"):
        raise ValueError(
            f"REPRO_CSROPS_BACKEND={choice!r} is not one of auto/numpy/numba"
        )
    if choice in ("auto", "numba"):
        try:
            from repro.util import _csrops_numba
        except ImportError:
            _csrops_numba = None
        if _csrops_numba is not None and _csrops_numba.HAVE_NUMBA:
            register_backend("numba", _csrops_numba.make_table())
            set_backend("numba")
            return
        if choice == "numba":
            raise ImportError(
                "REPRO_CSROPS_BACKEND=numba requires the optional numba "
                "package (pip install 'repro[numba]')"
            )
    set_backend("numpy")


_init_backend_from_env()
