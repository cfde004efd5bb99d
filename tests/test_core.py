import re
import tracemalloc

import numpy as np
import pytest

import signednet as sn
from signednet.core import _transition_edge_values
from signednet.errors import (
    DisconnectedError,
    DuplicateEdgeError,
    IdOutOfRangeError,
    NonFiniteWeightError,
    SelfLoopError,
    ZeroWeightError,
)

from helpers import (
    doubled_adjacency,
    doubled_transition,
    edge_product_reference,
    nonsymmetric_eigenvalues,
    normalize_edges_reference,
    random_connected_corpus,
    random_walk_laplacian,
    signed_laplacian,
    transition_matrix,
)


class TestBuildGraph:
    def test_triangle_and_dyad_build(self, triangle_positive, dyad_negative):
        assert triangle_positive.n == 3 and triangle_positive.num_edges == 3
        assert dyad_negative.edges == ((0, 1, -1.0),)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError, match="node 2"):
            sn.build_graph(3, [(0, 1, 1.0)])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError, match="node 1"):
            sn.build_graph(2, [(0, 1, 1.0), (1, 1, 1.0)])

    def test_duplicate_pair_rejected_either_orientation(self):
        with pytest.raises(DuplicateEdgeError, match=r"\(0, 1\)"):
            sn.build_graph(2, [(0, 1, 1.0), (1, 0, -1.0)])

    @pytest.mark.parametrize("seed", range(4))
    def test_repeated_pair_before_another_bad_edge_in_shuffled_order(self, seed):
        """Three copies of one pair among 3000 edges in shuffled order and
        orientation, and a self-loop after or before the second copy: the
        first bad edge in input order raises the edge-by-edge reference's
        error, whatever order the sort leaves the copies in."""
        rng = np.random.default_rng(seed)
        n = 1000
        pairs = [(k, (k + step) % n) for step in (1, 7, 31) for k in range(n)]
        shuffled = (pairs[k] for k in rng.permutation(3000))
        edges = [(a, b, 1.0) if rng.random() < 0.5 else (b, a, -1.0) for a, b in shuffled]
        a, b, _ = edges[1234]
        for position in sorted(rng.choice(np.arange(1235, 2500), size=2, replace=False), reverse=True):
            edges.insert(position, (b, a, 0.5))
        edges.insert(2700, (5, 5, 1.0))
        for case, error in ((edges, DuplicateEdgeError), (edges[:1235] + [(5, 5, 1.0)] + edges[1235:], SelfLoopError)):
            with pytest.raises(error) as expected:
                normalize_edges_reference(n, case)
            with pytest.raises(error, match=re.escape(str(expected.value))):
                sn.build_graph(n, case)

    def test_zero_weight_rejected(self):
        with pytest.raises(ZeroWeightError):
            sn.build_graph(2, [(0, 1, 1e-16)])

    def test_id_out_of_range(self):
        with pytest.raises(IdOutOfRangeError):
            sn.build_graph(2, [(0, 2, 1.0)])

    def test_single_node_graph_is_valid(self):
        G = sn.build_graph(1, [])
        assert G.n == 1 and G.num_edges == 0

    def test_weight_matrix_symmetric(self, strictly_unbalanced_4):
        W = strictly_unbalanced_4.weight_matrix
        assert np.array_equal(W, W.T)

    def test_components_splitter(self):
        parts = sn.components(5, [(0, 1, 1.0), (2, 3, -1.0), (3, 4, 1.0)])
        sizes = sorted(g.n for g, _ in parts)
        assert sizes == [2, 3]
        ids = [orig for _, orig in parts]
        assert ids == [[0, 1], [2, 3, 4]]


class TestDegrees:
    def test_triangle_degrees(self, triangle_positive):
        d = triangle_positive.degrees
        assert np.allclose(d, [2, 2, 2]) and d.sum() == 6

    def test_dyad_negative_degree_uses_absolute_value(self, dyad_negative):
        assert np.allclose(dyad_negative.degrees, [1, 1])

    def test_four_cycle_small_weights(self):
        G = sn.build_graph(4, [(0, 1, -0.1), (1, 2, 0.1), (2, 3, -0.1), (0, 3, 0.1)])
        assert np.allclose(G.degrees, [0.2, 0.2, 0.2, 0.2])

    def test_degrees_invariant_under_unsigned_counterpart(self):
        for G in random_connected_corpus(25, seed=5):
            assert np.array_equal(G.degrees, sn.unsigned_counterpart(G).degrees)

    def test_overflowing_degree_is_a_named_error(self):
        G = sn.build_graph(3, [(0, 1, 1e308), (1, 2, -1e308), (0, 2, 1.0)])
        with pytest.raises(NonFiniteWeightError, match="weighted degree of node 1 exceeds the float range"):
            G.degrees

    def test_degrees_need_no_weight_matrix(self):
        G = sn.build_graph(4, [(0, 1, -0.1), (1, 2, 0.1), (2, 3, -0.1), (0, 3, 0.1)])
        G.degrees
        assert "weight_matrix" not in G.__dict__

    def test_operator_gathers_its_values_over_the_cached_csr(self):
        G = sn.ring_lattice(sn.LatticeParams(n=20000, dbar=10, alpha=0.5, sign_plan=sn.BalancedPlan()))
        m = G.num_edges
        G.degrees  # one product: caches the CSR, the graph's only edge layout
        csr = G._csr
        tracemalloc.start()
        try:
            G._operator(G.w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert G._csr is csr and not hasattr(G, "_orientations")
        # the values in CSR order take 16m bytes; a rebuilt CSR or orientation arrays would add 32m more
        assert peak < 24 * m

    def test_operator_sums_each_run_in_the_reference_order(self):
        # node 0 has degree 299, past the blocks of 8 and 128 of numpy's pairwise summation
        rng = np.random.default_rng(4)
        n = 300
        extra = {tuple(sorted(p)) for p in rng.integers(1, n, (400, 2)).tolist() if p[0] != p[1]}
        pairs = [(0, v) for v in range(1, n)] + sorted(extra)
        G = sn.build_graph(n, [(i, j, w) for (i, j), w in zip(pairs, rng.uniform(-1e3, 1e3, len(pairs)))])
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 6, n)
        for values in (G.w, np.abs(G.w)):
            assert np.array_equal(G._operator(values)(x), edge_product_reference(n, G.i, G.j, values, x))

    def test_edge_lookup_builds_nothing_of_size_m(self):
        G = sn.ring_lattice(sn.LatticeParams(n=100000, dbar=10, alpha=0.5, sign_plan=sn.BalancedPlan()))
        G._csr
        tracemalloc.start()
        try:
            ids = G._edge_ids([7], [3])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (G.i[ids[0]], G.j[ids[0]]) == (3, 7)
        assert G._edge_ids([3, 3, -1], [9, 100000, 7]).tolist() == [-1, -1, -1]  # too far apart, out of range
        assert peak < 2**20  # the 2m search keys of a sorted-key lookup take 8 MB


class TestUnsignedAndSignAdjacency:
    def test_all_negative_becomes_all_positive(self, triangle_negative):
        U = sn.unsigned_counterpart(triangle_negative)
        assert all(w == 1.0 for _, _, w in U.edges)

    def test_dyad_half_negative(self):
        G = sn.build_graph(2, [(0, 1, -0.5)])
        assert sn.unsigned_counterpart(G).edges == ((0, 1, 0.5),)

    def test_sign_adjacency_entries(self):
        G = sn.build_graph(3, [(0, 1, 0.1), (1, 2, -0.1), (0, 2, -3.0)])
        A = np.sign(G.weight_matrix)
        assert A[0, 1] == 1 and A[1, 2] == -1 and A[0, 2] == -1 and A[0, 0] == 0
        assert np.array_equal(A, A.T) and np.array_equal(G.sign, [1, -1, -1])
        assert np.array_equal(np.abs(A), np.sign(sn.unsigned_counterpart(G).weight_matrix))


class TestLaplacians:
    def test_positive_triangle_laplacian_row_sums_zero(self, triangle_positive):
        L = signed_laplacian(triangle_positive)
        A = np.sign(triangle_positive.weight_matrix)
        assert np.allclose(L, 2 * np.eye(3) - A)
        assert np.allclose(L.sum(axis=1), 0)

    def test_negative_triangle_laplacian_row_sums(self, triangle_negative):
        # L = D - W = 2I + |A|: every row sums to 4
        L = signed_laplacian(triangle_negative)
        assert np.allclose(L, 2 * np.eye(3) + np.abs(np.sign(triangle_negative.weight_matrix)))
        assert np.allclose(L.sum(axis=1), 4)

    def test_signed_laplacian_positive_semidefinite(self):
        for G in random_connected_corpus(50, seed=9):
            vals = np.linalg.eigvalsh(signed_laplacian(G))
            assert vals.min() >= -1e-10

    def test_rw_laplacian_spectra_of_triangles(self, triangle_positive, triangle_negative):
        pos = nonsymmetric_eigenvalues(random_walk_laplacian(triangle_positive))
        neg = nonsymmetric_eigenvalues(random_walk_laplacian(triangle_negative))
        assert np.allclose(sorted(pos), [0, 1.5, 1.5])
        assert np.allclose(sorted(neg), [0.5, 0.5, 2.0])

    def test_rw_laplacian_spectrum_is_one_minus_transition_spectrum(self):
        for G in random_connected_corpus(20, seed=13):
            lrw = nonsymmetric_eigenvalues(random_walk_laplacian(G))
            p = nonsymmetric_eigenvalues(transition_matrix(G))
            assert np.allclose(np.sort(lrw), np.sort(1 - p), atol=1e-10)


class TestTransitionMatrices:
    def test_triangle_transition_entries(self, triangle_positive):
        P = transition_matrix(triangle_positive)
        assert np.allclose(P, (np.ones((3, 3)) - np.eye(3)) / 2)

    def test_dyad_transition(self, dyad_negative):
        assert np.allclose(transition_matrix(dyad_negative), [[0, -1], [-1, 0]])

    def test_row_absolute_sums_are_one(self):
        for G in random_connected_corpus(25, seed=21):
            P = transition_matrix(G)
            assert np.allclose(np.abs(P).sum(axis=1), 1.0)

    def test_regular_graph_symmetrized_equals_transition(self, triangle_negative):
        P_sym = triangle_negative._matrix(_transition_edge_values(triangle_negative))
        assert np.allclose(P_sym, transition_matrix(triangle_negative))

    def test_symmetrized_shares_spectrum_with_transition(self):
        for G in random_connected_corpus(25, seed=23):
            sym = np.linalg.eigvalsh(G._matrix(_transition_edge_values(G)))
            plain = nonsymmetric_eigenvalues(transition_matrix(G))
            assert np.allclose(np.sort(sym), np.sort(plain), atol=1e-10)

    def test_eigenvector_map_between_p_and_p_sym(self):
        G = sn.build_graph(4, [(0, 1, 1.0), (1, 2, -2.0), (2, 3, 1.0), (0, 3, 1.0), (0, 2, -1.0)])
        vals, vecs = np.linalg.eigh(G._matrix(_transition_edge_values(G)))
        P = transition_matrix(G)
        d_inv_sqrt = 1 / np.sqrt(G.degrees)
        for k in range(G.n):
            x = d_inv_sqrt * vecs[:, k]
            assert np.allclose(P @ x, vals[k] * x, atol=1e-10)


class TestDoubledSystem:
    def test_all_positive_is_block_diagonal(self, triangle_positive):
        W2 = doubled_adjacency(triangle_positive)
        Wbar = sn.unsigned_counterpart(triangle_positive).weight_matrix
        assert np.allclose(W2[:3, :3], Wbar) and np.allclose(W2[3:, 3:], Wbar)
        assert np.allclose(W2[:3, 3:], 0) and np.allclose(W2[3:, :3], 0)

    def test_all_negative_is_block_antidiagonal(self, triangle_negative):
        W2 = doubled_adjacency(triangle_negative)
        Wbar = sn.unsigned_counterpart(triangle_negative).weight_matrix
        assert np.allclose(W2[:3, 3:], Wbar) and np.allclose(W2[3:, :3], Wbar)
        assert np.allclose(W2[:3, :3], 0) and np.allclose(W2[3:, 3:], 0)

    def test_column_absolute_sums_match_degrees(self, strictly_unbalanced_4):
        W2 = doubled_adjacency(strictly_unbalanced_4)
        d = strictly_unbalanced_4.degrees
        n = strictly_unbalanced_4.n
        assert np.allclose(np.abs(W2).sum(axis=0)[:n], d)
        assert np.allclose(np.abs(W2).sum(axis=0)[n:], d)

    def test_doubled_transition_blocks(self, strictly_unbalanced_4):
        G = strictly_unbalanced_4
        P2 = doubled_transition(G)
        n = G.n
        diff = P2[:n, :n] - P2[:n, n:]
        total = P2[:n, :n] + P2[:n, n:]
        assert np.allclose(diff, transition_matrix(G), atol=1e-14)
        assert np.allclose(total, transition_matrix(sn.unsigned_counterpart(G)), atol=1e-14)
        assert np.allclose(P2.sum(axis=1), 1.0)

    def test_positive_negative_split_disjoint(self):
        for G in random_connected_corpus(20, seed=31):
            W2 = doubled_adjacency(G)
            Wp, Wm = W2[:G.n, :G.n], W2[:G.n, G.n:]
            assert np.array_equal(W2[G.n:, G.n:], Wp) and np.array_equal(W2[G.n:, :G.n], Wm)
            assert np.all(Wp >= 0) and np.all(Wm >= 0)
            assert not np.any((Wp > 0) & (Wm > 0))
            assert np.allclose(Wp - Wm, G.weight_matrix)
