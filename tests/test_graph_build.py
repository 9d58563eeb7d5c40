"""Graph construction: golden digests, the CSR builder's contract, caching.

The golden digests pin the exact ``(indptr, indices, edges)`` arrays every
generator in :mod:`repro.graphs.families` produces, so a rewrite of the
construction path meant to be bit-identical (a different sort, a different
duplicate check) is checked as such.  ``random_regular`` is pinned on both
sides of ``_LARGE_REPAIR_EDGES``, where it switches multigraph repairs.
Re-pin only for an intended change of generated graphs, and say so in the
change log.  Run this file directly to print the current digests.
"""

from __future__ import annotations

import hashlib
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import families
from repro.graphs.static import Graph
from repro.util import shm
from repro.util.csrops import build_csr

#: name -> zero-argument builder of one golden graph.
GOLDEN_CASES = {
    "clique": lambda: families.clique(9),
    "path": lambda: families.path(10),
    "ring": lambda: families.ring(10),
    "star": lambda: families.star(10),
    "double_star": lambda: families.double_star(4),
    "line_of_stars": lambda: families.line_of_stars(4, 5),
    "wheel": lambda: families.wheel(9),
    "torus": lambda: families.torus(3, 5),
    "caterpillar": lambda: families.caterpillar(5, 2),
    "binary_tree": lambda: families.binary_tree(13),
    "grid": lambda: families.grid(4, 5),
    "hypercube": lambda: families.hypercube(4),
    "complete_bipartite": lambda: families.complete_bipartite(3, 5),
    "barbell": lambda: families.barbell(5, 2),
    "lollipop": lambda: families.lollipop(5, 3),
    "random_regular": lambda: families.random_regular(64, 8, seed=1),
    "random_bipartite_regular": lambda: families.random_bipartite_regular(16, 3, seed=2),
    "staircase_bipartite": lambda: families.staircase_bipartite(6),
    "erdos_renyi": lambda: families.erdos_renyi(30, 0.2, seed=3),
    "connected_erdos_renyi": lambda: families.connected_erdos_renyi(20, 0.3, seed=4),
    # 87381 * 6 / 2 = _LARGE_REPAIR_EDGES - 1 edges: the dict-based repair.
    "random_regular_below_large": lambda: families.random_regular(87381, 6, seed=1),
    # 65536 * 8 / 2 = _LARGE_REPAIR_EDGES edges: the vectorized repair.
    "random_regular_at_large": lambda: families.random_regular(65536, 8, seed=1),
    "random_regular_at_large_seed2": lambda: families.random_regular(65536, 8, seed=2),
}

GOLDEN_DIGESTS = {
    "barbell": "e7fdfbf4fdfa507430f923ae09c9b8259d5b21ccf6d508f86005643107c00215",
    "binary_tree": "03a2f6fcacd99509c4c5ab16d6ead7dde159f3ac3ef1629247e3b8ac3a20be38",
    "caterpillar": "150c0a452614c92e2eb1c0855f35b28fd93c9389a968f6b22851372e6e776011",
    "clique": "55bb230b26c9b914ead9fd7ecf126bcc1fdf86c4d503a85132cf69957308441f",
    "complete_bipartite": "158cfc3593522225ef49ad11f0e4b3a5de6e01206eb239cc9180ea3494aa34bc",
    "connected_erdos_renyi": "810f768bee282c401e49dee88955ed98c268a8a0892914d8386af2a3232f61c7",
    "double_star": "a4176547a8b21342b52c7bdd2eca623866214306abf98100a9962f905d991d68",
    "erdos_renyi": "4b182b3c027f34c610067a56cc2f708eb932cb10a6e81666e0a475f8635d320f",
    "grid": "ab93831b1847888c271d82b70c3ba244b1c9e086803ca47598992391c4a666ee",
    "hypercube": "d816b78ece71b33c04f9b55a9705aabde7f445a726fb906d772c93ced570359f",
    "line_of_stars": "799e8db52587a9f86eda2af7d71cba3416b35fc851c1298567809002ce3691e5",
    "lollipop": "d50ad8872b9e2aad360b9b491e704c0ce7c26308888007145ba14fdb4b2d508a",
    "path": "9ce2ac4ab5d9ed1a8d576d84773d3c11ca0e68b9408e54c41a2864139c770e49",
    "random_bipartite_regular": "c5570836ec69c61f0a86f6b42c9fe9ec048938b12938fa6c53093923cadf02b8",
    "random_regular": "2d9aebf3277999ff8e5656eb864234f80b50904d2b94fa01f3cdfe76375ef621",
    "random_regular_at_large": "51485e2dac8add812e243e4444442b0f8a4db604fdb7bb69c62c325514d3b517",
    "random_regular_at_large_seed2": "0f45ca50f26ef1d9179e38ab42a97ddeaf1d1f2d48f8bb9927c84b578948208c",
    "random_regular_below_large": "83e94e2378c992e3a12d19818a1e4beab254ae68e98c97c8fae00ad8937f2982",
    "ring": "0cb81303e88b7413a8ff72b7709c0ad6daef746ee7194ff3cef8847e3c23d6a7",
    "staircase_bipartite": "1dbf72064b06e4091e929df0057b02a3c2c1e28efa3fede704577b99468539ef",
    "star": "396dea59961df12ac1f3eca08757d45c154a17145a133b54257e93d8f0d0c475",
    "torus": "1cdac9b0bd5058d036b0a77582e6c0c98a6544ccde5bea48e5dc342527fcbe77",
    "wheel": "f2b0431c76c0d555a158842a039449b998a7c9c471e59289d49c980c75574764",
}


def graph_digest(g: Graph) -> str:
    """sha256 over ``n`` and the dtype, shape and bytes of the CSR and edges."""
    h = hashlib.sha256(str(g.n).encode())
    for arr in (g.indptr, g.indices, g.edges):
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def test_golden_cases_cover_every_family():
    covered = {name for name in GOLDEN_CASES if name in families.FAMILY_BUILDERS}
    assert covered == set(families.FAMILY_BUILDERS)
    assert 87381 * 6 // 2 == families._LARGE_REPAIR_EDGES - 1
    assert 65536 * 8 // 2 == families._LARGE_REPAIR_EDGES


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_graph_digest(name):
    assert graph_digest(GOLDEN_CASES[name]()) == GOLDEN_DIGESTS[name]


# ---------------------------------------------------------------------------
# build_csr against a reference implementation
# ---------------------------------------------------------------------------


def reference_build_csr(n: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-key ``lexsort`` + ``add.at`` CSR builder with the same checks."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        raise ValueError("edge endpoint out of range")
    if edges.size and np.any(edges[:, 0] == edges[:, 1]):
        raise ValueError("self-loops are not allowed")
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    if src.size and np.any((src[1:] == src[:-1]) & (dst[1:] == dst[:-1])):
        raise ValueError("duplicate edges are not allowed")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, dst


@st.composite
def raw_edge_lists(draw, max_n=12, max_m=30):
    """Arbitrary edge lists: may hold loops, duplicates in either
    orientation and out-of-range endpoints."""
    n = draw(st.integers(1, max_n))
    endpoint = st.integers(-2, n + 1)
    edges = draw(st.lists(st.tuples(endpoint, endpoint), max_size=max_m))
    return n, np.asarray(edges, dtype=np.int64).reshape(-1, 2)


@st.composite
def simple_edge_lists(draw, max_n=16):
    """Valid edge lists in random order and orientation."""
    n = draw(st.integers(1, max_n))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool))) if pool else []
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    oriented = [(v, u) if f else (u, v) for (u, v), f in zip(edges, flips)]
    return n, np.asarray(oriented, dtype=np.int64).reshape(-1, 2)


def _outcome(fn, n, edges):
    try:
        return fn(n, edges)
    except ValueError as exc:
        return str(exc)


class TestBuildCsrMatchesReference:
    @given(raw_edge_lists())
    @settings(max_examples=300)
    def test_arbitrary_edge_lists(self, case):
        n, edges = case
        got, want = _outcome(build_csr, n, edges), _outcome(reference_build_csr, n, edges)
        if isinstance(want, str):
            assert got == want
        else:
            assert not isinstance(got, str), got
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    @given(simple_edge_lists())
    @settings(max_examples=200)
    def test_simple_edge_lists(self, case):
        n, edges = case
        for a, b in zip(build_csr(n, edges), reference_build_csr(n, edges)):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([[0, 3]], "edge endpoint out of range"),
            ([[-1, 2]], "edge endpoint out of range"),
            ([[1, 1]], "self-loops are not allowed"),
            ([[0, 1], [1, 0]], "duplicate edges are not allowed"),
            ([[0, 1], [1, 2], [0, 1]], "duplicate edges are not allowed"),
        ],
    )
    def test_rejections_name_the_defect(self, edges, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_csr(3, np.asarray(edges))
        with pytest.raises(ValueError, match=f"^{message}$"):
            Graph(3, np.asarray(edges))

    def test_composite_key_overflow_guard(self):
        limit = math.isqrt(2**63 - 1)
        with pytest.raises(ValueError, match="composite edge key"):
            build_csr(limit + 1, np.empty((0, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="composite edge key"):
            Graph(limit + 1, np.array([[0, limit]]))


class TestCanonicalEdges:
    @given(simple_edge_lists(), st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_invariant_to_order_and_orientation(self, case, rnd):
        n, edges = case
        g = Graph(n, edges)
        perm = list(range(edges.shape[0]))
        rnd.shuffle(perm)
        shuffled = edges[perm].copy()
        flip = np.array([rnd.random() < 0.5 for _ in perm], dtype=bool)
        shuffled[flip] = shuffled[flip][:, ::-1]
        h = Graph(n, shuffled)
        assert graph_digest(g) == graph_digest(h)
        lo, hi = np.minimum(edges[:, 0], edges[:, 1]), np.maximum(edges[:, 0], edges[:, 1])
        order = np.lexsort((hi, lo))
        assert np.array_equal(g.edges, np.stack([lo[order], hi[order]], axis=1).reshape(-1, 2))
        assert g.edges.dtype == np.int64


# ---------------------------------------------------------------------------
# Connectivity: the cache and the vectorized component labelling
# ---------------------------------------------------------------------------


class TestIsConnectedCache:
    def test_disconnected_stays_false(self):
        g = Graph(6, [(0, 1), (1, 2), (3, 4)])
        assert g._connected is None
        assert g.is_connected() is False
        assert g._connected is False  # cached: the graph is immutable
        assert g.is_connected() is False

    def test_connected_stays_true(self):
        g = families.random_regular(256, 4, seed=3)
        assert g.is_connected() is True
        assert g.is_connected() is True

    @pytest.mark.parametrize("connected", [True, False])
    def test_after_pickle_and_from_csr(self, connected):
        g = families.ring(12) if connected else Graph(12, [(i, i + 1) for i in range(10)])
        g.is_connected()
        for h in (
            pickle.loads(pickle.dumps(g)),
            Graph._from_csr(g.n, g.indptr, g.indices, g.edges),
        ):
            assert h._connected is None
            assert h.is_connected() is connected

    @pytest.mark.skipif(not shm.shared_memory_supported(), reason="no /dev/shm")
    @pytest.mark.parametrize("connected", [True, False])
    def test_after_shm_attach(self, connected):
        g = families.ring(12) if connected else Graph(12, [(0, 1), (2, 3)])
        g.is_connected()
        store = shm.SharedGraphStore.create()
        try:
            name = store.publish_graph(g)
            attach = shm.SharedGraphStore(store.prefix, owner=False)
            assert attach.load_graph(name).is_connected() is connected
        finally:
            store.cleanup()


@st.composite
def disconnected_graphs(draw, max_n=40):
    """Random graphs with several components and isolated vertices."""
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, draw(st.integers(1, 6)), size=n)
    p = draw(st.floats(0.0, 0.6))
    iu, ju = np.triu_indices(n, k=1)
    keep = (labels[iu] == labels[ju]) & (rng.random(iu.size) < p)
    return Graph(n, np.stack([iu[keep], ju[keep]], axis=1))


class TestConnectedComponents:
    @given(disconnected_graphs())
    @settings(max_examples=150)
    def test_matches_networkx(self, g):
        import networkx as nx

        comps = g.connected_components()
        want = sorted(sorted(c) for c in nx.connected_components(g.to_networkx()))
        assert [c.tolist() for c in comps] == want
        for c in comps:
            assert c.dtype == np.int64
        assert g.is_connected() == (len(comps) == 1)

    def test_ordered_by_smallest_vertex(self):
        g = Graph(7, [(5, 6), (1, 4), (0, 3)])
        assert [c.tolist() for c in g.connected_components()] == [
            [0, 3], [1, 4], [2], [5, 6],
        ]


if __name__ == "__main__":
    for _name in sorted(GOLDEN_CASES):
        print(f'    "{_name}": "{graph_digest(GOLDEN_CASES[_name]())}",')
