import gc
import math
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import signednet as sn
from signednet import Verdict
from signednet.errors import EdgeNotPresentError, LanczosNotConvergedError, NotBalancedError, WrongVerdictError
from signednet import spectral
from signednet.balance import apply_flip_set, sign_pattern
from signednet.cli import main
from signednet.core import _transition_edge_values
from signednet.io import write_edge_list
from signednet.spectral import (
    LANCZOS_MIN_NODES,
    _extremes,
    _ritz_column,
    _ritz_vector,
    _sign_normalised,
    _spectrum,
)

from helpers import (
    doubled_transition,
    random_connected_corpus,
    same_partition,
    signed_path,
    signed_ring,
    symmetrized_transition,
    transition_matrix,
    tree_plus_pairs,
    two_block_graph,
)


def random_weighted_graph(rng, n):
    """A connected graph on n nodes: a random tree plus each other pair with
    probability 1/2, standard normal weights of either sign."""
    pairs = {(int(rng.integers(0, child)), child) for child in range(1, n)}
    upper = np.transpose(np.triu_indices(n, 1))
    pairs |= set(map(tuple, upper[rng.random(len(upper)) < 0.5].tolist()))
    return sn.build_graph(n, [(a, b, rng.standard_normal()) for a, b in sorted(pairs)])


class TestSpectrum:
    def test_two_by_two_exchange(self):
        G = sn.build_graph(2, [(0, 1, 1.0)])
        spec = _spectrum(G, G.w, vectors=True)
        assert np.allclose(spec.eigenvalues, [1, -1])

    def test_triangle_adjacency_spectrum(self, triangle_positive):
        spec = _spectrum(triangle_positive, triangle_positive.w, vectors=True)
        assert np.allclose(spec.eigenvalues, [2, -1, -1])

    def test_identity(self):
        # the identity's columns are already signed; negated ones get their sign back
        assert np.array_equal(_sign_normalised(np.eye(5)), np.eye(5))
        assert np.array_equal(_sign_normalised(-np.eye(5)), np.eye(5))

    def test_reconstruction_and_orthonormality_invariants(self, rng):
        # the contract batch: random weighted signed graphs up to n = 64
        for _ in range(1000):
            n = int(rng.integers(2, 65))
            G = random_weighted_graph(rng, n)
            spec = _spectrum(G, G.w, vectors=True)
            W = G.weight_matrix
            reconstructed = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.T
            assert np.linalg.norm(W - reconstructed) <= 1e-9 * np.linalg.norm(W)
            assert np.max(np.abs(spec.eigenvectors.T @ spec.eigenvectors - np.eye(n))) <= 1e-10
            assert np.all(np.diff(spec.eigenvalues) <= 1e-12)

    def test_sign_convention_is_deterministic(self, rng):
        G = random_weighted_graph(rng, 8)
        a = _spectrum(G, G.w, vectors=True)
        b = _spectrum(G._reweighted(G.w.copy()), G.w.copy(), vectors=True)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)
        for k in range(8):
            col = a.eigenvectors[:, k]
            assert col.sum() > 0 or col[int(np.argmax(np.abs(col)))] > 0

    def test_sign_convention_first_entry_decides_exact_ties(self):
        # columns summing to zero: the first entry of the largest magnitude is made positive
        vecs = _sign_normalised(np.array([[0.5, -0.5], [-0.5, 0.5], [0.0, 0.0]]))
        assert np.array_equal(vecs, [[0.5, 0.5], [-0.5, -0.5], [0.0, 0.0]])

    def test_sign_convention_reads_the_entry_sum_before_the_largest_entry(self):
        vecs = _sign_normalised(np.array([[-0.8, 0.6], [0.5, -0.6], [0.33, 0.0]]))
        assert np.array_equal(vecs, [[-0.8, 0.6], [0.5, -0.6], [0.33, 0.0]])
        vecs = _sign_normalised(np.array([[0.8], [-0.5], [-0.33]]))
        assert np.array_equal(vecs, [[-0.8], [0.5], [0.33]])

    def test_sign_convention_matches_per_column_rule(self, rng):
        for _ in range(50):
            G = random_weighted_graph(rng, int(rng.integers(1, 40)))
            spec = _spectrum(G, G.w, vectors=True)
            _, raw = np.linalg.eigh(G.weight_matrix)
            for k, col in enumerate(raw[:, ::-1].T):
                top = np.max(np.abs(col))
                lead = col[int(np.argmax(np.abs(col) >= top - 2.0**-26 * top))]
                decider = col.sum() if abs(col.sum()) > 2.0**-26 * top else lead
                assert np.array_equal(spec.eigenvectors[:, k], -col if decider < 0 else col)

    @pytest.mark.parametrize("matrix", ["W", "P_sym"])
    def test_path_perron_vector_keeps_its_sign_under_relabelling(self, matrix):
        """On a path of even length the two middle entries of the top
        eigenvector tie in exact arithmetic.  With a negative middle edge they
        have opposite signs, so a rule that reads the larger of them picks the
        sign by rounding and by node order; the entry sum does not."""
        n = 60
        signs = np.ones(n - 1)
        signs[[n // 2 - 1, 7]] = -1.0  # the middle edge, and one more so the entries do not sum to zero
        edges = [(k, k + 1, s) for k, s in enumerate(signs.tolist())]
        order = np.random.default_rng(5).permutation(n - 1)
        for perm in (np.arange(n)[::-1], np.random.default_rng(6).permutation(n)):
            G = sn.build_graph(n, edges)
            H = sn.build_graph(n, [(perm[edges[k][0]], perm[edges[k][1]], edges[k][2]) for k in order])
            a, b = (_spectrum(X, X.w if matrix == "W" else _transition_edge_values(X), vectors=True) for X in (G, H))
            top = a.eigenvectors[:, 0]
            assert abs(top[n // 2 - 1] + top[n // 2]) <= 1e-12 and top[n // 2 - 1] != 0  # the opposite-signed tie
            assert np.allclose(b.eigenvectors[perm, 0], top, rtol=0, atol=1e-11)

    def test_values_only_solve_matches_full_decomposition(self, rng):
        for _ in range(200):
            G = random_weighted_graph(rng, int(rng.integers(1, 65)))
            spec = _spectrum(G, G.w)
            full = _spectrum(G, G.w, vectors=True).eigenvalues
            assert spec.eigenvectors is None
            assert np.all(np.diff(spec.eigenvalues) <= 1e-12)
            assert np.max(np.abs(spec.eigenvalues - full)) <= 1e-12 * max(1.0, np.abs(full).max())


class TestSpectralTheorem:
    def test_balanced_graph_matches_unsigned_spectrum(self, triangle_two_negative):
        report = sn.verify_spectral_theorem(triangle_two_negative, sn.classify(triangle_two_negative))
        assert report.eigenvalue_max_dev < 1e-9
        assert report.subspace_max_dev < 1e-8
        assert report.leading_magnitude_dev < 1e-8

    def test_antibalanced_graph_matches_reversed_negation(self, triangle_negative):
        spec = _spectrum(triangle_negative, triangle_negative.w)
        assert np.allclose(spec.eigenvalues, [1, 1, -2])
        report = sn.verify_spectral_theorem(triangle_negative, sn.classify(triangle_negative))
        assert report.eigenvalue_max_dev < 1e-9
        assert report.subspace_max_dev < 1e-8

    def test_wrong_verdict_rejected(self, strictly_unbalanced_4):
        with pytest.raises(WrongVerdictError):
            sn.verify_spectral_theorem(strictly_unbalanced_4, sn.classify(strictly_unbalanced_4))

    def test_holds_across_random_balanced_and_antibalanced_graphs(self, rng):
        for seed in range(20):
            G = sn.ssbm(sn.SSBMParams(n1=5, n2=7, p_in=0.7, p_out=0.2, eta=0.0, alpha=0.5, seed=seed))
            report = sn.verify_spectral_theorem(G, sn.classify(G))
            assert report.eigenvalue_max_dev < 1e-9 and report.subspace_max_dev < 1e-7
            Gn = sn.negate(G)
            report = sn.verify_spectral_theorem(Gn, sn.classify(Gn))
            assert report.eigenvalue_max_dev < 1e-9 and report.subspace_max_dev < 1e-7


class TestLeadingEigenpairPattern:
    """Heuristic frustration reads the sign pattern of P_sym's top (balanced)
    or bottom (antibalanced) eigenvector; on a balanced or antibalanced
    graph that pattern is the certificate."""

    def test_balanced_ssbm_recovers_planted_partition(self):
        params = sn.SSBMParams(n1=6, n2=10, p_in=0.8, p_out=0.1, eta=0.0, alpha=0.1, seed=4)
        G = sn.ssbm(params)
        report = sn.frustration(G, "balanced", mode="heuristic")
        assert report.flip_count == 0
        assert same_partition(report.partition, sn.classify(G).balanced_partition)
        assert same_partition(report.partition, sn.Bipartition(params.planted_signs()))
        # the report takes the certificate without a solve; the eigenvector has it as its sign pattern
        top = _spectrum(G, _transition_edge_values(G), vectors=True).eigenvectors[:, 0]
        assert same_partition(sign_pattern(top), report.partition)

    def test_all_negative_triangle_pattern_is_constant(self, triangle_negative):
        report = sn.frustration(triangle_negative, "antibalanced", mode="heuristic")
        assert np.array_equal(report.partition.s, [1, 1, 1])
        p = _transition_edge_values(triangle_negative)
        bottom = _spectrum(triangle_negative, p, vectors=True).eigenvectors[:, -1]
        assert np.array_equal(sign_pattern(bottom).s, [1, 1, 1])
        assert report.flip_count == 0
        assert same_partition(report.partition, sn.classify(triangle_negative).antibalanced_partition)


class TestBalanceMeasures:
    def test_positive_triangle(self, triangle_positive):
        m = sn.balance_measures(triangle_positive)
        assert m.d_b == pytest.approx(0.0, abs=1e-12)
        assert m.d_a == pytest.approx(0.5, abs=1e-12)
        assert m.contraction == pytest.approx(0.0, abs=1e-12)

    def test_negative_triangle(self, triangle_negative):
        m = sn.balance_measures(triangle_negative)
        assert m.d_b == pytest.approx(0.5, abs=1e-12)
        assert m.d_a == pytest.approx(0.0, abs=1e-12)
        assert m.spectral_radius_signed == pytest.approx(m.spectral_radius_unsigned, abs=1e-12)

    def test_strictly_unbalanced_contraction(self, strictly_unbalanced_4):
        m = sn.balance_measures(strictly_unbalanced_4)
        assert m.d_b > 1e-8 and m.d_a > 1e-8
        assert m.spectral_radius_signed < m.spectral_radius_unsigned - 1e-9

    def test_contraction_iff_strictly_unbalanced(self):
        for G in random_connected_corpus(150, seed=71):
            m = sn.balance_measures(G)
            strictly = sn.classify(G).verdict is Verdict.STRICTLY_UNBALANCED
            assert (m.contraction > 1e-9) == strictly

    @pytest.mark.parametrize("w", [-1e-15, -1e-14, -1e-13, -1e-12])
    @pytest.mark.parametrize("n", range(8, 40, 2))
    def test_contraction_is_never_negative(self, n, w):
        # an even unit cycle closed by one barely negative edge is strictly unbalanced,
        # with a radius gap below the rounding of the W and |W| solves
        G = sn.build_graph(n, [(k, k + 1, 1.0) for k in range(n - 1)] + [(0, n - 1, w)])
        m = sn.balance_measures(G)
        assert sn.classify(G).verdict is Verdict.STRICTLY_UNBALANCED
        assert m.spectral_radius_signed <= m.spectral_radius_unsigned and m.contraction >= 0.0

    def test_measures_invariant_under_switching(self, rng):
        for G in random_connected_corpus(20, seed=73):
            m = sn.balance_measures(G)
            b = sn.Bipartition(rng.choice([-1, 1], size=G.n))
            ms = sn.balance_measures(sn.switch(G, b))
            assert ms.d_b == pytest.approx(m.d_b, abs=1e-10)
            assert ms.d_a == pytest.approx(m.d_a, abs=1e-10)

    def test_zero_iff_balance_classes(self):
        for G in random_connected_corpus(150, seed=79):
            c = sn.classify(G)
            m = sn.balance_measures(G)
            assert (m.d_b < 1e-8) == c.is_balanced
            assert (m.d_a < 1e-8) == c.is_antibalanced


class TestLanczosPath:
    """From LANCZOS_MIN_NODES nodes on, the balance measures and heuristic
    frustration read the extremes of a Lanczos iteration on the edge arrays."""

    N = LANCZOS_MIN_NODES

    @classmethod
    def ssbm(cls, eta, seed=0):
        return sn.ssbm(sn.SSBMParams(n1=cls.N // 2, n2=cls.N - cls.N // 2, p_in=9.6 / (cls.N / 2),
                                     p_out=2.4 / (cls.N / 2), eta=eta, alpha=0.1, seed=seed))

    @classmethod
    def lattice(cls, plan):
        return sn.ring_lattice(sn.LatticeParams(n=cls.N, dbar=4, alpha=0.7, sign_plan=plan))

    @pytest.mark.parametrize("eta", [0.0, 0.05, 1.0])
    def test_measures_match_dense_eigvalsh(self, eta):
        G = self.ssbm(eta, seed=3)
        m = sn.balance_measures(G)
        p = np.linalg.eigvalsh(symmetrized_transition(G))
        w = np.linalg.eigvalsh(G.weight_matrix)
        assert abs(m.d_b - (1.0 - p[-1])) <= 1e-12
        assert abs(m.d_a - (1.0 + p[0])) <= 1e-12
        assert abs(m.spectral_radius_signed - max(w[-1], -w[0])) <= 1e-12
        assert abs(m.spectral_radius_unsigned - np.linalg.eigvalsh(np.abs(G.weight_matrix))[-1]) <= 1e-12

    def test_no_dense_matrix_is_built(self):
        G = self.ssbm(0.05)
        sn.balance_measures(G)
        sn.frustration(G, "balanced", mode="heuristic")
        assert "weight_matrix" not in G.__dict__

    @pytest.mark.parametrize("make, argv, solves", [
        # strictly unbalanced: every end is open
        (lambda cls: cls.ssbm(0.05), ["classify"], [((1, -1),)]),  # P_sym only: classify prints d_b and d_a
        # heuristic frustration replays the top (bottom) of that same P_sym solve: no solve of its own
        (lambda cls: cls.ssbm(0.05), ["classify", "--frustration", "balanced"], [((1, -1),)]),
        (lambda cls: cls.ssbm(0.05), ["classify", "--frustration", "antibalanced"], [((1, -1),)]),
        (lambda cls: cls.ssbm(0.05), ["measure"], [((1, -1),), ((1, -1),), ((1,),)]),  # P_sym, W, |W|
        # balanced: d_b = 0 and rho(W) = rho(|W|), so the bottom of P_sym (d_a) and the top of |W| are left
        (lambda cls: cls.ssbm(0.0), ["measure"], [((-1,),), ((1,),)]),
        (lambda cls: cls.ssbm(0.0), ["classify", "--frustration", "balanced"], [((-1,),)]),  # no flips
        (lambda cls: cls.ssbm(0.0), ["classify", "--frustration", "antibalanced"], [((-1,),)]),  # reads the d_a end
        # antibalanced: d_a = 0, so the top of P_sym (d_b) and of |W|; the balanced target reads the d_b end
        (lambda cls: cls.ssbm(1.0), ["measure"], [((1,),), ((1,),)]),
        (lambda cls: cls.ssbm(1.0), ["classify", "--frustration", "balanced"], [((1,),)]),
        (lambda cls: cls.ssbm(1.0), ["classify", "--frustration", "antibalanced"], [((1,),)]),  # no flips
        # a tree is both: only rho(|W|) is open
        (lambda cls: sn.random_signed_tree(cls.N, 0.5, seed=2), ["measure"], [((1,),)]),
        (lambda cls: sn.random_signed_tree(cls.N, 0.5, seed=2), ["classify", "--frustration", "balanced"], []),
    ], ids=["classify", "classify-balanced", "classify-antibalanced", "measure", "eta0-measure",
            "eta0-classify-balanced", "eta0-classify-antibalanced", "eta1-measure", "eta1-classify-balanced",
            "eta1-classify-antibalanced", "tree-measure", "tree-classify-balanced"])
    def test_each_command_solves_only_the_ends_it_prints(self, make, argv, solves, monkeypatch, tmp_path, capsys):
        made = []
        lanczos = spectral._lanczos_extremes
        monkeypatch.setattr(spectral, "_lanczos_extremes", lambda *a: made.append(a[2:]) or lanczos(*a))
        write_edge_list(make(type(self)), tmp_path / "g.edges")
        assert main([argv[0], "--input", str(tmp_path / "g.edges"), *argv[1:]]) == 0
        assert made == solves

    @pytest.mark.parametrize("eta, target", [(0.05, "balanced"), (0.05, "antibalanced"), (0.0, "antibalanced"),
                                             (1.0, "balanced")])
    def test_heuristic_replays_one_end_to_its_accepted_step(self, eta, target, monkeypatch):
        """After the classify solve, heuristic frustration solves nothing and
        replays only its end of P_sym, one matvec per step up to the step
        that end was accepted at."""
        G = self.ssbm(eta)
        spectral._distances(G)
        ends = G._spectral_memo["P_sym"]
        end = 1 if target == "balanced" else -1
        products = []
        operator = sn.SignedGraph._operator

        def counted(graph, values):
            product = operator(graph, values)
            return lambda x: products.append(1) or product(x)

        monkeypatch.setattr(sn.SignedGraph, "_operator", counted)
        monkeypatch.setattr(spectral, "_lanczos_extremes", None)  # any further solve fails
        assert sn.frustration(G, target, mode="heuristic").flip_count > 0
        assert len(products) == len(ends[end][1].column)
        for _, ritz in ends.values():  # each end keeps the coefficients of its own accepted step, no more
            assert len(ritz.alpha) == len(ritz.beta) == len(ritz.column)

    @pytest.mark.parametrize("make, target, column", [
        (lambda cls: cls.ssbm(0.05, seed=3), "balanced", 0),
        (lambda cls: cls.ssbm(0.95, seed=3), "antibalanced", -1),
        # uneven degrees: the top of W has another sign pattern, which flips 118 edges here against 99
        (lambda cls: tree_plus_pairs(300, 900, 0.1, seed=5), "balanced", 0),
    ], ids=["ssbm-balanced", "ssbm-antibalanced", "tree-plus-pairs"])
    def test_heuristic_signs_are_the_dense_transition_end_pattern(self, make, target, column):
        """The Lanczos path reads the same signs as the dense top (bottom) of P_sym."""
        G = make(type(self))
        assert G.n >= LANCZOS_MIN_NODES
        report = sn.frustration(G, target, mode="heuristic")
        dense = _spectrum(G, _transition_edge_values(G), vectors=True).eigenvectors[:, column]
        assert 0 < report.flip_count < np.sum(G.w < 0 if target == "balanced" else G.w > 0)  # not the trivial one
        assert same_partition(report.partition, sign_pattern(dense))
        assert report.partition.s[0] == 1

    @pytest.mark.parametrize("eta", [0.0, 0.05, 1.0])
    def test_graph_is_freed_without_the_cycle_collector(self, eta):
        """The solved ends kept on the graph refer to nothing that refers back
        to it, so reference counting frees it after classify and frustration."""
        G = self.ssbm(eta)
        ref = weakref.ref(G)
        gc.disable()
        try:
            sn.classify(G)
            spectral._distances(G)
            for target in ("balanced", "antibalanced"):
                sn.frustration(G, target, mode="heuristic")
            assert G._spectral_memo["P_sym"]
            del G
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("eta", [0.0, 0.05])
    def test_lone_bottom_is_the_negated_top_of_the_negated_matrix(self, eta):
        """The bottom of P_sym solved alone is, bit for bit, minus the top of
        -P_sym: Lanczos on -M from the same start has coefficients -alpha and
        beta, and Lanczos vectors that differ from those of M only in sign."""
        G = self.ssbm(eta)
        (top,) = spectral._lanczos_extremes(G, -_transition_edge_values(G), (1,))
        assert _extremes(G, "P_sym", (-1,)) == (-top.value,)

    @pytest.mark.parametrize("matrix", ["P_sym", "W", "|W|"])
    def test_kept_ends_are_not_solved_again(self, matrix, monkeypatch):
        """Each end is solved once per graph and matrix: a later call solves
        only the ends it names that no earlier call solved."""
        G = self.ssbm(0.05)
        made = []
        lanczos = spectral._lanczos_extremes
        monkeypatch.setattr(spectral, "_lanczos_extremes", lambda *a: made.append(a[2]) or lanczos(*a))
        (top,) = _extremes(G, matrix, (1,))
        top_again, bottom = _extremes(G, matrix)
        assert _extremes(G, matrix, (-1, 1)) == (bottom, top) and top_again == top
        assert made == [(1,), (-1,)]

    def test_threads_solving_one_end_read_one_value(self, monkeypatch):
        """An end solved alone and the same end solved with the other one may
        differ in the last bit (about 1 % of the ends of 250-node SSBMs do,
        but not this one, so the test does not rest on such a draw).  Here a
        lone solve of the bottom of P_sym is made to differ by one ulp, so
        the two solves always disagree.  Threads that solve it at once, some
        alone and some with the top, all read the value kept first."""
        lanczos = spectral._lanczos_extremes

        def lone_bottom_one_ulp_lower(G, values, ends=(1, -1)):
            found = lanczos(G, values, ends)
            if tuple(ends) == (-1,):
                found = (found[0]._replace(value=float(np.nextafter(found[0].value, -np.inf))),)
            return found

        monkeypatch.setattr(spectral, "_lanczos_extremes", lone_bottom_one_ulp_lower)
        base = self.ssbm(0.05)
        p = _transition_edge_values(base)
        assert spectral._lanczos_extremes(base, p)[1].value != spectral._lanczos_extremes(base, p, (-1,))[0].value
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                G = base._reweighted(base.w.copy())
                ends = [(-1,), (1, -1), (-1,), (1, -1)]  # more threads than cores
                bottoms = [None] * len(ends)
                barrier = threading.Barrier(len(ends))

                def solve(k):
                    barrier.wait(timeout=10)
                    bottoms[k] = _extremes(G, "P_sym", ends[k])[-1]

                threads = [threading.Thread(target=solve, args=(k,)) for k in range(len(ends))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert set(bottoms) == {G._spectral_memo["P_sym"][-1][0]}
        finally:
            sys.setswitchinterval(interval)

    def test_top_only_solve_returns_one_converged_value(self):
        G = self.ssbm(0.05)
        (top,) = _extremes(G, "|W|", (1,))
        assert abs(top - np.linalg.eigvalsh(np.abs(G.weight_matrix))[-1]) <= 1e-12

    def test_memory_stays_below_a_stored_basis(self):
        N = 20000
        G = sn.ssbm(sn.SSBMParams(n1=N // 2, n2=N // 2, p_in=9.6 / (N / 2), p_out=2.4 / (N / 2), eta=0.05,
                                  alpha=0.1, seed=3))
        G.degrees
        tracemalloc.start()
        try:
            sn.balance_measures(G)
            sn.frustration(G, "balanced", mode="heuristic")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 8.3 MiB measured; a stored basis at the 336 steps of the P_sym solve is 336 * N * 8 bytes = 51.3 MiB
        assert peak < 20 * 2**20

    def test_step_cap_raises_a_named_error(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(spectral, "_lanczos_step_cap", lambda n: 5)
        G = self.ssbm(0.05)
        with pytest.raises(LanczosNotConvergedError, match=f"{self.N} x {self.N} matrix within 5 steps"):
            sn.balance_measures(G)
        write_edge_list(G, tmp_path / "g.edges")
        assert main(["measure", "--input", str(tmp_path / "g.edges")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("G", [
        sn.build_graph(300, [(0, k, (-1.0) ** k) for k in range(1, 300)]),  # star: three distinct eigenvalues
        sn.build_graph(300, [(a, b, 1.0) for a in range(300) for b in range(a + 1, 300)]),  # complete: two
    ], ids=["star", "complete"])
    def test_early_breakdown_ends_the_solve(self, G, monkeypatch):
        monkeypatch.setattr(spectral, "_lanczos_step_cap", lambda n: 4)  # the breakdown exit comes first
        for values, M in ((_transition_edge_values(G), symmetrized_transition(G)), (G.w, G.weight_matrix),
                          (np.abs(G.w), np.abs(G.weight_matrix))):
            ends = spectral._lanczos_extremes(G, values)
            dense = np.linalg.eigvalsh(M)
            assert np.max(np.abs([end.value for end in ends] - dense[[-1, 0]])) <= 1e-12 * max(1.0, dense[-1])
            for end in ends:
                vec = _ritz_vector(G, values, end)
                assert np.linalg.norm(M @ vec - end.value * vec) <= 1e-9 * max(1.0, abs(end.value))

    @pytest.mark.parametrize("target, make", [
        ("balanced", lambda cls: cls.ssbm(0.0)),
        # equal halves of a regular graph: a start vector of ones is orthogonal to the wanted eigenvector
        ("balanced", lambda cls: cls.lattice(sn.BalancedPlan(f"blocks:{cls.N // 2}"))),
        ("antibalanced", lambda cls: cls.ssbm(1.0)),
        ("antibalanced", lambda cls: cls.lattice(sn.AntibalancedPlan(f"arc:{cls.N // 2}"))),
    ])
    def test_heuristic_is_exact_on_balanced_and_antibalanced_graphs(self, target, make):
        G = make(type(self))
        c = sn.classify(G)
        report = sn.frustration(G, target, mode="heuristic")
        assert report.flip_count == 0
        certificate = c.balanced_partition if target == "balanced" else c.antibalanced_partition
        assert same_partition(report.partition, certificate)
        # the report takes the certificate without a solve; the Lanczos eigenvector of the top of P_sym
        # (balanced) or of its bottom (antibalanced) has it as its sign pattern
        p = _transition_edge_values(G)
        (end,) = spectral._lanczos_extremes(G, p, (1 if target == "balanced" else -1,))
        assert same_partition(sign_pattern(_ritz_vector(G, p, end)), certificate)

    def test_perturbation_realized_shift_matches_dense_eigvalsh(self):
        G = self.ssbm(0.0, seed=3)
        for k in (0, 17, G.num_edges - 1):
            flip = [(G.i[k], G.j[k])]
            dense = np.linalg.eigvalsh(symmetrized_transition(apply_flip_set(G, flip)))[-1] - 1.0
            assert abs(sn.perturbation_estimate(G, flip).realized_shift_max - dense) <= 1e-12

    def test_perturbation_builds_no_dense_matrix(self):
        N = 2000
        G = sn.ssbm(sn.SSBMParams(n1=N // 2, n2=N // 2, p_in=9.6 / (N / 2), p_out=2.4 / (N / 2), eta=0.0,
                                  alpha=0.1, seed=3))
        e = G.edges[5]
        tracemalloc.start()
        try:
            est = sn.perturbation_estimate(G, [(e.i, e.j)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.realized_shift_max < 0
        assert peak < 8 * 2**20  # one dense 2000 x 2000 matrix is 32 MB

    @pytest.mark.parametrize("make", [two_block_graph, lambda: signed_path(300, 1), lambda: signed_ring(400, 1)],
                             ids=["two-block", "path", "ring"])
    def test_clustered_ends_match_dense_eigvalsh(self, make):
        """Ends with near-degenerate neighbours converge slowly and are still
        exact.  The solve accepts an end on its residual alone, never on
        r**2 / gap, the usual value-error estimate: by interlacing the Ritz gap
        overstates the true gap until the near-degenerate partner has appeared.
        On the two-block graph, accepting an end once min(r, r**2 / gap) <=
        1e-15 max(1, |theta|) takes both ends of P_sym at step 2, the top
        3.4e-11 and the bottom 5.0e-9 from eigvalsh; the residual test is
        within 2e-16."""
        G = make()
        assert G.n >= LANCZOS_MIN_NODES
        for matrix, M in (("P_sym", symmetrized_transition(G)), ("W", G.weight_matrix),
                          ("|W|", np.abs(G.weight_matrix))):
            dense = np.linalg.eigvalsh(M)
            assert np.max(np.abs(np.array(_extremes(G, matrix)) - dense[[-1, 0]])) <= 1e-12

    def test_two_block_graph_has_a_near_degenerate_top(self):
        top = np.linalg.eigvalsh(symmetrized_transition(two_block_graph()))[-2:]
        assert 0 < top[1] - top[0] <= 1e-8

    def test_value_only_solves_compute_no_eigenvectors_of_t(self, monkeypatch):
        """No solve on the Lanczos path hands T to a dense LAPACK routine,
        neither for values nor for the columns of a vector solve."""
        def dense(*args, **kwargs):
            raise AssertionError("dense eigensolver called")

        unbalanced, balanced = self.ssbm(0.05, seed=3), self.ssbm(0.0, seed=3)
        monkeypatch.setattr(np.linalg, "eigh", dense)
        monkeypatch.setattr(np.linalg, "eigvalsh", dense)
        for G in (unbalanced, balanced):
            m = sn.balance_measures(G)
            assert (m.d_b, m.d_a) == spectral._distances(G)
        for target in ("balanced", "antibalanced"):  # the top, then the bottom of P_sym, each with its vector
            assert sn.frustration(unbalanced, target, mode="heuristic").flip_count > 0
        assert sn.perturbation_estimate(balanced, [(balanced.i[0], balanced.j[0])]).realized_shift_max < 0

    def test_clustered_path_solves_in_little_memory(self):
        """The top of |W| on a long path is a cluster of Ritz values that
        takes thousands of steps; each convergence test costs O(k) memory, so
        the traced peak stays a few arrays of n (a dense k x k T at the last
        test would be tens of megabytes)."""
        G = signed_path(3000, 1)
        G.degrees
        tracemalloc.start()
        try:
            m = sn.balance_measures(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(m.spectral_radius_unsigned - 2 * math.cos(math.pi / 3001)) <= 1e-12
        assert peak < 5 * 2**20

    def test_last_entry_rescales_instead_of_overflowing(self):
        # T = tridiag(1, [a, 0, ..., 0], 1) has the top eigenvalue theta = t + 1/t, and rows 2..k of
        # (T - theta) y = 0 from y_k = 1 give y_{k-m} = U_m(theta / 2) = (t**(m+1) - t**-(m+1)) / (t - 1/t),
        # so y_1 is about 2**900 and s about 2**-900: neither y nor its square sum may overflow
        k, t = 300, 8.0
        theta = t + 1 / t
        log_u = [(m + 1) * math.log(t) + math.log1p(-t ** (-2 * (m + 1))) - math.log(t - 1 / t) for m in range(k)]
        expected = math.exp(-0.5 * (2 * log_u[-1] + math.log(sum(math.exp(2 * (u - log_u[-1])) for u in log_u))))
        alpha = [theta - 1 / t] + [0.0] * (k - 1)
        column = _ritz_column(alpha, [1.0] * k, theta)
        assert math.isclose(column[-1], expected, rel_tol=1e-12)
        assert 0.0 < expected < 2.0 ** -890
        assert math.isclose(np.linalg.norm(column), 1.0, rel_tol=1e-12)

    def test_power_of_two_rescaling_is_exact(self):
        G = self.ssbm(0.05)
        m, big = sn.balance_measures(G), sn.balance_measures(G.with_weights(G.w * 2.0 ** 1000))
        assert (big.d_b, big.d_a) == (m.d_b, m.d_a)
        assert big.spectral_radius_signed == m.spectral_radius_signed * 2.0 ** 1000
        assert big.spectral_radius_unsigned == m.spectral_radius_unsigned * 2.0 ** 1000


class TestExtremesBelowLanczos:
    """Below LANCZOS_MIN_NODES nodes the ends of a spectrum are those of the dense solve."""

    def test_values_only_solve_computes_no_eigenvectors(self, monkeypatch):
        G = random_connected_corpus(1, max_n=30, seed=103)[0]
        expected = np.linalg.eigvalsh(np.abs(G.weight_matrix))[-1]
        monkeypatch.setattr(np.linalg, "eigh", None)  # any eigenvector solve fails
        assert _extremes(G, "|W|", (1,)) == (expected,)

    def test_kept_ends_are_not_solved_again(self, monkeypatch):
        G = random_connected_corpus(1, max_n=30, seed=103)[0]
        first = _extremes(G, "P_sym")
        monkeypatch.setattr(np.linalg, "eigvalsh", None)  # any further solve fails
        assert _extremes(G, "P_sym", (-1,)) + _extremes(G, "P_sym", (1,)) == first[::-1]

    @pytest.mark.parametrize("target, column", [("balanced", 0), ("antibalanced", -1)])
    def test_heuristic_frustration_computes_no_eigendecomposition(self, target, column, monkeypatch):
        """The end's vector comes from the value ``eigvalsh`` kept, by
        inverse iteration, with the signs of the ``eigh`` column."""
        def dense(*args, **kwargs):
            raise AssertionError("eigh called")

        G = sn.ssbm(sn.SSBMParams(n1=60, n2=60, p_in=0.16, p_out=0.04, eta=0.05, alpha=0.1, seed=3))
        assert G.n < LANCZOS_MIN_NODES and not any(G._structure)
        expected = sign_pattern(_spectrum(G, _transition_edge_values(G), vectors=True).eigenvectors[:, column])
        monkeypatch.setattr(np.linalg, "eigh", dense)
        report = sn.frustration(G, target, mode="heuristic")
        assert 0 < report.flip_count < np.sum(G.w < 0 if target == "balanced" else G.w > 0)  # not the trivial one
        assert same_partition(report.partition, expected)


class TestPerronVectorsBalanced:
    """On a balanced graph the certificate s and s * degrees are right and
    left eigenvectors of P at eigenvalue 1."""

    @staticmethod
    def perron_pair(G):
        s = sn.classify(G).balanced_partition.s.astype(float)
        return s, s * G.degrees

    def test_positive_triangle(self, triangle_positive):
        u, w = self.perron_pair(triangle_positive)
        assert np.allclose(u, [1, 1, 1]) and np.allclose(w, [2, 2, 2])

    def test_two_negative_triangle(self, triangle_two_negative):
        u, w = self.perron_pair(triangle_two_negative)
        assert np.allclose(u, [1, -1, -1]) and np.allclose(w, [2, -2, -2])
        P = transition_matrix(triangle_two_negative)
        assert np.allclose(P @ u, u, atol=1e-12)
        assert np.allclose(w @ P, w, atol=1e-12)

    def test_random_balanced_draws_are_exact_eigenpairs(self):
        for seed in range(10):
            G = sn.ssbm(sn.SSBMParams(n1=6, n2=10, p_in=0.8, p_out=0.1, eta=0.0, alpha=0.1, seed=seed))
            u, w = self.perron_pair(G)
            P = transition_matrix(G)
            assert np.max(np.abs(P @ u - u)) < 1e-12
            assert np.max(np.abs(w @ P - w)) < 1e-12


class TestPerturbationEstimate:
    def test_empty_flip_set(self, triangle_positive):
        est = sn.perturbation_estimate(triangle_positive, [])
        assert est.delta_max == 0.0
        assert est.realized_shift_max == pytest.approx(0.0, abs=1e-12)

    def test_uniform_weight_formula(self):
        # flipping one edge of weight alpha among E_tot uniform edges predicts
        # d_b = 2 / E_tot regardless of alpha
        G = sn.ssbm(sn.SSBMParams(n1=5, n2=5, p_in=1.0, p_out=1.0, eta=0.0, alpha=0.3, seed=0))
        e = G.edges[0]
        est = sn.perturbation_estimate(G, [(e.i, e.j)])
        assert -est.delta_max == pytest.approx(2.0 / G.num_edges)
        assert est.delta_min == -est.delta_max

    def test_first_order_accuracy_on_matched_instance(self):
        G = sn.ssbm(sn.SSBMParams(n1=30, n2=30, p_in=0.8, p_out=0.1, eta=0.0, alpha=0.1, seed=1))
        e = G.edges[37]
        est = sn.perturbation_estimate(G, [(e.i, e.j)])
        assert est.realized_shift_max == pytest.approx(est.delta_max, rel=0.15)

    def test_an_edge_named_twice_counts_its_weight_twice(self):
        G = sn.ssbm(sn.SSBMParams(n1=5, n2=5, p_in=1.0, p_out=1.0, eta=0.0, alpha=0.3, seed=0))
        e = G.edges[0]
        once, twice = sn.perturbation_estimate(G, [(e.i, e.j)]), sn.perturbation_estimate(G, [(e.i, e.j), (e.j, e.i)])
        assert twice.flipped_weight == 2 * once.flipped_weight
        assert twice.realized_shift_max == once.realized_shift_max  # the edge itself is flipped once

    def test_looks_up_the_flip_set_once(self, monkeypatch):
        G = sn.ssbm(sn.SSBMParams(n1=5, n2=5, p_in=1.0, p_out=1.0, eta=0.0, alpha=0.3, seed=0))
        calls = []
        lookup = sn.SignedGraph._edge_ids
        monkeypatch.setattr(sn.SignedGraph, "_edge_ids", lambda self, a, b: calls.append(len(a)) or lookup(self, a, b))
        sn.perturbation_estimate(G, [G.edges[0][:2], G.edges[3][:2], G.edges[7][:2]])
        assert calls == [3]

    def test_errors(self, strictly_unbalanced_4, triangle_positive):
        with pytest.raises(NotBalancedError):
            sn.perturbation_estimate(strictly_unbalanced_4, [(0, 1)])
        with pytest.raises(EdgeNotPresentError):
            sn.perturbation_estimate(triangle_positive, [(0, 1), (1, 3)])


class TestTransitionSpectrumDevice:
    def test_doubled_transition_spectrum_is_union(self):
        # spectrum(P2) = spectrum(unsigned P) union spectrum(signed P)
        for G in random_connected_corpus(20, seed=83):
            P2 = doubled_transition(G)
            got = np.sort(np.linalg.eigvals(P2).real)
            p_sym = _transition_edge_values(G)
            signed, unsigned = _spectrum(G, p_sym).eigenvalues, _spectrum(G, np.abs(p_sym)).eigenvalues
            expected = np.sort(np.concatenate([signed, unsigned]))
            assert np.allclose(got, expected, atol=1e-9)

    def test_transition_radius_at_most_one(self):
        for G in random_connected_corpus(40, seed=89):
            assert np.max(np.abs(_spectrum(G, _transition_edge_values(G)).eigenvalues)) <= 1 + 1e-12

    def test_right_eigenvectors_of_transition_matrix(self):
        # an eigenvector v of P_sym maps to the eigenvector D^-1/2 v of P
        for G in random_connected_corpus(10, seed=97):
            spec = _spectrum(G, _transition_edge_values(G), vectors=True)
            vals, vecs = spec.eigenvalues, spec.eigenvectors / np.sqrt(G.degrees)[:, None]
            P = transition_matrix(G)
            for k in range(G.n):
                assert np.max(np.abs(P @ vecs[:, k] - vals[k] * vecs[:, k])) < 1e-10
