"""Optional numba-compiled backend for the csrops kernel registry.

Bit-identical to the NumPy backend by construction: randomness stays in
the caller-supplied :class:`numpy.random.Generator`, consumed in exactly
the order and count of the NumPy implementations, and the compiled
kernels only perform the deterministic work around those draws.  Each
masked pick is split into two phases:

1. a counting kernel computes the number of eligible CSR entries per
   candidate row (the NumPy path derives the same counts from a running
   sum);
2. the wrapper draws the same ``rng.integers(0, counts[rows])`` array the
   NumPy path draws, then a locate kernel walks each row to its ``j``-th
   eligible entry (the NumPy path finds it by binary search on the
   running sum).

Identical draws over identical counts select identical entries, so
``numpy`` and ``numba`` backends agree bit-for-bit — asserted by the
backend-parametrized oracle suite.  When :mod:`numba` is missing the
kernels below still run as plain Python (so the two-phase algorithms are
exercised by the test suite everywhere), but the backend is only
*registered* as ``"numba"`` when the real JIT is importable.
"""

from __future__ import annotations

import numpy as np

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit as _njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False

    def _njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def deco(fn):
            return fn

        return deco


_EMPTY_BOOL = np.empty(0, dtype=np.bool_)


@_njit(cache=True)
def _count_eligible(indptr, indices, rows, neighbor_mask, flat_mask, use_n, use_f, counts):
    for i in range(rows.size):
        u = rows[i]
        c = 0
        for p in range(indptr[u], indptr[u + 1]):
            ok = True
            if use_n and not neighbor_mask[indices[p]]:
                ok = False
            if ok and use_f and not flat_mask[p]:
                ok = False
            if ok:
                c += 1
        counts[i] = c


@_njit(cache=True)
def _locate_jth(indptr, indices, rows, neighbor_mask, flat_mask, use_n, use_f, j, out):
    for i in range(rows.size):
        u = rows[i]
        need = j[i]
        for p in range(indptr[u], indptr[u + 1]):
            ok = True
            if use_n and not neighbor_mask[indices[p]]:
                ok = False
            if ok and use_f and not flat_mask[p]:
                ok = False
            if ok:
                if need == 0:
                    out[i] = indices[p]
                    break
                need -= 1


@_njit(cache=True)
def _gather_offsets(indptr, indices, rows, offsets, out):
    for i in range(rows.size):
        out[i] = indices[indptr[rows[i]] + offsets[i]]


def _masks(neighbor_mask, flat_mask):
    use_n = neighbor_mask is not None
    use_f = flat_mask is not None
    return (
        neighbor_mask if use_n else _EMPTY_BOOL,
        flat_mask if use_f else _EMPTY_BOOL,
        use_n,
        use_f,
    )


def _require_bool(name, mask):
    if mask.dtype != np.bool_:
        raise TypeError(
            f"{name} must have dtype bool, got {mask.dtype} (a non-boolean "
            "mask would be summed, not tested, by the eligibility count)"
        )


def _segmented_random_pick(
    indptr, indices, rng, *, active=None, neighbor_mask=None, flat_mask=None
):
    n = indptr.shape[0] - 1
    pick = np.full(n, -1, dtype=np.int64)
    if active is None:
        active = np.ones(n, dtype=bool)

    if neighbor_mask is None and flat_mask is None:
        deg = indptr[1:] - indptr[:-1]
        rows = np.flatnonzero(active & (deg > 0))
        if rows.size == 0:
            return pick
        offsets = rng.integers(0, deg[rows])
        out = np.empty(rows.size, dtype=np.int64)
        _gather_offsets(indptr, indices, rows, offsets, out)
        pick[rows] = out
        return pick

    nmask, fmask, use_n, use_f = _masks(neighbor_mask, flat_mask)
    all_rows = np.arange(n, dtype=np.int64)
    counts = np.empty(n, dtype=np.int64)
    _count_eligible(indptr, indices, all_rows, nmask, fmask, use_n, use_f, counts)
    rows = np.flatnonzero(active & (counts > 0))
    if rows.size == 0:
        return pick
    j = rng.integers(0, counts[rows])
    out = np.full(rows.size, -1, dtype=np.int64)
    _locate_jth(indptr, indices, rows, nmask, fmask, use_n, use_f, j, out)
    pick[rows] = out
    return pick


def _segmented_random_pick_subset(
    indptr, indices, rng, vertices, *, neighbor_mask=None, flat_mask=None
):
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
        out = np.empty(rows.size, dtype=np.int64)
        _gather_offsets(indptr, indices, vertices[rows], offsets, out)
        pick[rows] = out
        return pick

    nmask, fmask, use_n, use_f = _masks(neighbor_mask, flat_mask)
    counts = np.empty(k, dtype=np.int64)
    _count_eligible(indptr, indices, vertices, nmask, fmask, use_n, use_f, counts)
    rows = np.flatnonzero(counts > 0)
    if rows.size == 0:
        return pick
    j = rng.integers(0, counts[rows])
    out = np.full(rows.size, -1, dtype=np.int64)
    _locate_jth(indptr, indices, vertices[rows], nmask, fmask, use_n, use_f, j, out)
    pick[rows] = out
    return pick


@_njit(cache=True)
def _group_select(t_sorted, s_sorted, u, receivers, winners):
    g = -1
    start = 0
    m = t_sorted.size
    for i in range(m):
        if i == 0 or t_sorted[i] != t_sorted[i - 1]:
            if g >= 0:
                size = i - start
                winners[g] = s_sorted[start + int(u[g] * size)]
            g += 1
            start = i
            receivers[g] = t_sorted[i]
    size = m - start
    winners[g] = s_sorted[start + int(u[g] * size)]


def _segmented_uniform_accept_pairs(senders, targets, rng):
    senders = np.asarray(senders, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if senders.shape != targets.shape:
        raise ValueError("senders and targets must have equal shape")
    if senders.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    # Same stable-by-target order and the same one-uniform-per-group draws
    # as the NumPy backend (the sort itself stays in NumPy's C quicksort;
    # the compiled part is the group scan + selection).
    m = targets.size
    order = np.argsort(targets * m + np.arange(m, dtype=np.int64))
    s_sorted = senders[order]
    t_sorted = targets[order]
    n_groups = int(np.count_nonzero(t_sorted[1:] != t_sorted[:-1])) + 1
    u = rng.random(n_groups)
    receivers = np.empty(n_groups, dtype=np.int64)
    winners = np.empty(n_groups, dtype=np.int64)
    _group_select(t_sorted, s_sorted, u, receivers, winners)
    return receivers, winners


def _batched_random_pick(
    indptr, indices, rng, active, *, neighbor_mask=None, flat_mask=None
):
    _require_bool("active", active)
    if active.ndim != 2:
        raise ValueError("active must have shape (T, n)")
    T, n = active.shape
    if indptr.shape[0] != n + 1:
        raise ValueError("active rows must match the CSR vertex count")
    nnz = indices.shape[0]
    pick = np.full((T, n), -1, dtype=np.int64)

    if neighbor_mask is None and flat_mask is None:
        deg = indptr[1:] - indptr[:-1]
        rep, rows = np.nonzero(active & (deg > 0)[None, :])
        if rep.size == 0:
            return pick
        offsets = rng.integers(0, deg[rows])
        out = np.empty(rows.size, dtype=np.int64)
        _gather_offsets(indptr, indices, rows, offsets, out)
        pick[rep, rows] = out
        return pick

    if neighbor_mask is not None:
        _require_bool("neighbor_mask", neighbor_mask)
        if neighbor_mask.shape != (T, n):
            raise ValueError("neighbor_mask must have shape (T, n)")
        if flat_mask is not None:
            _require_bool("flat_mask", flat_mask)
    else:
        if flat_mask.shape != (T, nnz):
            raise ValueError("flat_mask must have shape (T, nnz)")
        _require_bool("flat_mask", flat_mask)

    # Per-replica counts/locate over the shared CSR: the flat row id is
    # t*n + u, the masks are per-replica rows of the (T, n)/(T, nnz)
    # arrays.  Row selection and draw order replicate the NumPy backend's
    # flattened (T*n) traversal exactly.
    counts = np.empty((T, n), dtype=np.int64)
    for t in range(T):
        nm = neighbor_mask[t] if neighbor_mask is not None else _EMPTY_BOOL
        fm = flat_mask[t] if flat_mask is not None else _EMPTY_BOOL
        _count_eligible(
            indptr, indices, np.arange(n, dtype=np.int64), nm, fm,
            neighbor_mask is not None, flat_mask is not None, counts[t],
        )
    flat_rows = np.flatnonzero(active.reshape(T * n) & (counts.reshape(T * n) > 0))
    if flat_rows.size == 0:
        return pick
    j = rng.integers(0, counts.reshape(T * n)[flat_rows])
    out = np.full(flat_rows.size, -1, dtype=np.int64)
    rep = flat_rows // n
    rows = flat_rows - rep * n
    for t in range(T):
        sel = np.flatnonzero(rep == t)
        if sel.size == 0:
            continue
        nm = neighbor_mask[t] if neighbor_mask is not None else _EMPTY_BOOL
        fm = flat_mask[t] if flat_mask is not None else _EMPTY_BOOL
        sub = np.full(sel.size, -1, dtype=np.int64)
        _locate_jth(
            indptr, indices, rows[sel], nm, fm,
            neighbor_mask is not None, flat_mask is not None, j[sel], sub,
        )
        out[sel] = sub
    pick.reshape(T * n)[flat_rows] = out
    return pick


def make_table():
    """Kernel table for :func:`repro.util.csrops.register_backend`.

    The same table works without numba installed (kernels degrade to
    plain Python) — useful for exercising the two-phase algorithms in
    environments without the JIT — but ``csrops`` only auto-registers it
    as the ``"numba"`` backend when :data:`HAVE_NUMBA` is true.
    """
    return {
        "segmented_random_pick": _segmented_random_pick,
        "segmented_random_pick_subset": _segmented_random_pick_subset,
        "segmented_uniform_accept_pairs": _segmented_uniform_accept_pairs,
        "batched_random_pick": _batched_random_pick,
    }
