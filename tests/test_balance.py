import time

import numpy as np
import pytest

import signednet as sn
from signednet import Verdict, balance, spectral
from signednet.balance import Bipartition, apply_flip_set, sign_pattern
from signednet.errors import TooLargeError

from helpers import (
    certifies_balance,
    cycle_sign_oracle,
    frustration_by_edge_subsets,
    random_connected_corpus,
    sign_conflicting_walk,
)


class TestClassify:
    def test_positive_triangle_balanced_only(self, triangle_positive):
        c = sn.classify(triangle_positive)
        assert c.verdict is Verdict.BALANCED
        assert np.array_equal(c.balanced_partition.s, [1, 1, 1])
        assert c.antibalanced_partition is None

    def test_one_negative_triangle_antibalanced_only(self, triangle_one_negative):
        c = sn.classify(triangle_one_negative)
        assert c.verdict is Verdict.ANTIBALANCED
        assert certifies_balance(sn.negate(triangle_one_negative), c.antibalanced_partition)
        assert not c.is_balanced

    def test_four_node_example_strictly_unbalanced(self, strictly_unbalanced_4):
        assert sn.classify(strictly_unbalanced_4).verdict is Verdict.STRICTLY_UNBALANCED

    def test_any_tree_is_both(self):
        for seed in range(10):
            T = sn.random_signed_tree(12, 0.5, seed=seed)
            assert sn.classify(T).verdict is Verdict.BOTH

    def test_certificates_satisfy_their_definitions(self):
        for G in random_connected_corpus(150, seed=3):
            c = sn.classify(G)
            if c.is_balanced:
                assert certifies_balance(G, c.balanced_partition)
                assert c.balanced_partition.s[0] == 1
            if c.is_antibalanced:
                assert certifies_balance(sn.negate(G), c.antibalanced_partition)

    def test_certificate_prefers_balance_then_antibalance(self):
        for G in random_connected_corpus(150, seed=5):
            c = sn.classify(G)
            expected = c.balanced_partition if c.is_balanced else c.antibalanced_partition
            assert c.certificate is expected
            assert (c.certificate is None) == (c.verdict is Verdict.STRICTLY_UNBALANCED)

    def test_agrees_with_cycle_enumeration_oracle(self):
        for G in random_connected_corpus(200, seed=17):
            c = sn.classify(G)
            balanced, antibalanced = cycle_sign_oracle(G)
            assert c.is_balanced == balanced
            assert c.is_antibalanced == antibalanced

    def test_both_verdict_implies_tree_or_bipartite(self):
        from signednet.balance import bipartite_partition

        for G in random_connected_corpus(300, seed=29):
            if sn.classify(G).verdict is Verdict.BOTH:
                assert G.num_edges == G.n - 1 or bipartite_partition(G) is not None


class TestNegate:
    def test_negate_swaps_balance_and_antibalance(self):
        for G in random_connected_corpus(100, seed=41):
            c = sn.classify(G)
            cn = sn.classify(sn.negate(G))
            assert c.is_balanced == cn.is_antibalanced
            assert c.is_antibalanced == cn.is_balanced

    def test_negate_is_involution(self, strictly_unbalanced_4):
        G2 = sn.negate(sn.negate(strictly_unbalanced_4))
        assert G2.edges == strictly_unbalanced_4.edges

    def test_all_positive_triangle_flips_verdict(self, triangle_positive):
        assert sn.classify(sn.negate(triangle_positive)).verdict is Verdict.ANTIBALANCED


class TestSwitch:
    def test_switching_balanced_graph_by_certificate_gives_unsigned(self, triangle_two_negative):
        c = sn.classify(triangle_two_negative)
        switched = sn.switch(triangle_two_negative, c.balanced_partition)
        assert np.allclose(switched.weight_matrix, sn.unsigned_counterpart(triangle_two_negative).weight_matrix)

    def test_switching_antibalanced_graph_gives_all_negative(self, triangle_one_negative):
        c = sn.classify(triangle_one_negative)
        switched = sn.switch(triangle_one_negative, c.antibalanced_partition)
        assert all(w < 0 for _, _, w in switched.edges)

    def test_switch_is_involution_and_preserves_magnitudes(self, rng, strictly_unbalanced_4):
        b = Bipartition(rng.choice([-1, 1], size=4))
        G2 = sn.switch(sn.switch(strictly_unbalanced_4, b), b)
        assert G2.edges == strictly_unbalanced_4.edges

    def test_switch_preserves_spectrum(self, rng):
        for G in random_connected_corpus(25, seed=43):
            b = Bipartition(rng.choice([-1, 1], size=G.n))
            before = np.linalg.eigvalsh(G.weight_matrix)
            after = np.linalg.eigvalsh(sn.switch(G, b).weight_matrix)
            assert np.allclose(before, after, atol=1e-10)

    def test_switch_preserves_verdict(self, rng):
        for G in random_connected_corpus(60, seed=47):
            b = Bipartition(rng.choice([-1, 1], size=G.n))
            assert sn.classify(sn.switch(G, b)).verdict is sn.classify(G).verdict


class TestAntibalancedFromBipartite:
    """On a balanced bipartite graph, classify's antibalance certificate is the
    2-coloring times the balance certificate."""

    def test_positive_four_cycle(self, four_cycle_positive):
        c = sn.classify(four_cycle_positive)
        assert np.array_equal(c.balanced_partition.s, [1, 1, 1, 1])
        assert np.array_equal(c.antibalanced_partition.s, [1, -1, 1, -1])  # coloring (+, -, +, -) times (+, +, +, +)
        assert certifies_balance(sn.negate(four_cycle_positive), c.antibalanced_partition)

    def test_negative_dyad(self, dyad_negative):
        c = sn.classify(dyad_negative)
        assert np.array_equal(c.balanced_partition.s, [1, -1])
        assert np.array_equal(c.antibalanced_partition.s, [1, 1])  # coloring (+, -) times (+, -)
        assert certifies_balance(sn.negate(dyad_negative), c.antibalanced_partition)

    def test_bipartite_corpus(self):
        checked = 0
        for G in random_connected_corpus(300, max_n=8, seed=5):
            c, coloring = sn.classify(G), sn.bipartite_partition(G)
            if coloring is not None and c.is_balanced:
                assert np.array_equal(c.antibalanced_partition.s, coloring.s * c.balanced_partition.s)
                checked += 1
        assert checked > 50


class TestSignConflictingWalk:
    def test_strictly_unbalanced_has_short_witness(self, strictly_unbalanced_4):
        witness = sign_conflicting_walk(strictly_unbalanced_4, l_max=6)
        assert witness is not None
        i, j, l = witness
        assert 1 <= l <= 6

    def test_balanced_and_antibalanced_have_none(self, triangle_positive, triangle_one_negative):
        assert sign_conflicting_walk(triangle_positive, l_max=10) is None
        assert sign_conflicting_walk(triangle_one_negative, l_max=10) is None

    def test_witness_iff_strictly_unbalanced(self):
        # both directions of the walk characterization over the full corpus
        for G in random_connected_corpus(500):
            witness = sign_conflicting_walk(G, l_max=2 * G.n)
            strictly = sn.classify(G).verdict is Verdict.STRICTLY_UNBALANCED
            assert (witness is not None) == strictly

    def test_witness_is_reproducible_by_walk_count(self, strictly_unbalanced_4):
        # verify the reported pair really carries two opposite-sign walks
        i, j, l = sign_conflicting_walk(strictly_unbalanced_4, l_max=6)
        A = np.sign(strictly_unbalanced_4.weight_matrix)
        Ap, Am = (A > 0).astype(int), (A < 0).astype(int)
        pos, neg = Ap, Am
        for _ in range(l - 1):
            pos, neg = pos @ Ap + neg @ Am, pos @ Am + neg @ Ap
        assert pos[i, j] > 0 and neg[i, j] > 0


class TestFrustration:
    def test_balanced_graph_needs_no_flips(self, triangle_positive):
        rep = sn.frustration(triangle_positive, "balanced")
        assert rep.flip_count == 0 and rep.flip_set == () and rep.exact

    def test_four_node_example_single_flip(self, strictly_unbalanced_4):
        rep = sn.frustration(strictly_unbalanced_4, "balanced")
        assert rep.flip_count == 1
        assert [(e.i, e.j) for e in rep.flip_set] == [(2, 3)]
        assert rep.flipped_weight == 1.0

    def test_flipping_the_reported_set_restores_target(self):
        for G in random_connected_corpus(60, seed=59):
            for target in ("balanced", "antibalanced"):
                rep = sn.frustration(G, target)
                fixed = apply_flip_set(G, [(e.i, e.j) for e in rep.flip_set])
                c = sn.classify(fixed)
                assert c.is_balanced if target == "balanced" else c.is_antibalanced

    def test_exact_matches_edge_subset_oracle(self):
        corpus = [G for G in random_connected_corpus(40, max_n=5, seed=61) if G.num_edges <= 8]
        assert len(corpus) >= 10
        for G in corpus:
            for target in ("balanced", "antibalanced"):
                assert sn.frustration(G, target).flip_count == frustration_by_edge_subsets(G, target)

    def test_heuristic_is_an_upper_bound(self):
        for G in random_connected_corpus(40, seed=67):
            exact = sn.frustration(G, "balanced").flip_count
            heuristic = sn.frustration(G, "balanced", mode="heuristic")
            assert not heuristic.exact
            assert heuristic.flip_count >= exact

    @pytest.mark.parametrize("edges, lighter", [
        ([(0, 1, 1.1), (0, 3, 0.9), (0, 6, 1.3), (0, 15, 1.3), (1, 2, 0.6), (1, 6, 0.5), (1, 7, 0.6), (1, 8, 0.9),
          (1, 9, 0.7), (1, 17, 1.4), (2, 9, 1.1), (2, 13, 1.0), (2, 18, 1.4), (3, 4, 0.7), (3, 11, 1.4),
          (4, 5, 1.3), (5, 9, -1.4), (5, 10, 1.4), (5, 12, 0.9), (5, 14, 1.1), (6, 17, 0.8), (7, 8, -1.3),
          (8, 18, 0.9), (9, 10, 1.4), (9, 16, 0.7), (10, 15, -1.2), (10, 16, 0.7), (13, 14, 0.6), (13, 18, 0.8),
          (14, 18, 0.6), (17, 18, 1.2), (17, 19, 1.1)], "spectral"),  # 3 edges of weight 3.2 against 3.9
        ([(0, 1, 0.5), (0, 2, 0.8), (0, 5, 1.3), (0, 7, 1.4), (0, 14, 1.4), (1, 4, 0.7), (1, 6, 1.0), (1, 9, 0.9),
          (1, 10, 0.6), (1, 12, 1.0), (1, 18, 1.2), (2, 3, -0.9), (2, 10, 1.0), (2, 18, 0.9), (3, 5, 0.8),
          (3, 6, 0.7), (3, 9, 0.8), (3, 15, 0.9), (3, 16, 1.1), (3, 17, 1.3), (4, 8, -0.6), (5, 10, 1.2),
          (5, 13, 0.7), (6, 13, 0.8), (6, 14, 0.8), (7, 11, -1.0), (7, 12, 1.2), (8, 13, 0.9), (9, 15, 1.5),
          (11, 13, 1.2), (13, 19, 1.2), (17, 18, -1.5)], "trivial"),  # 4 edges of weight 4.3 against 4.0
    ], ids=["spectral-lighter", "trivial-lighter"])
    def test_heuristic_breaks_a_count_tie_by_weight(self, edges, lighter):
        """Here the P_sym signing violates as many edges as the all +1 one,
        which violates the negative edges; the lighter set is reported."""
        G = sn.build_graph(20, edges)
        rep = sn.frustration(G, "balanced", mode="heuristic")
        negative = tuple(e for e in G.edges if e.w < 0)
        assert rep.flip_count == len(negative)
        if lighter == "trivial":
            assert rep.flip_set == negative and np.all(rep.partition.s == 1)
        else:
            assert rep.flipped_weight < sum(abs(e.w) for e in negative) and np.any(rep.partition.s == -1)

    def test_worst_case_tree_and_cycle_are_fast(self):
        tree = sn.random_signed_tree(26, 0.5, seed=4)
        cycle = sn.build_graph(25, [(i, (i + 1) % 25, -1.0 if i % 4 == 0 else 1.5) for i in range(25)])
        assert tree.num_edges == cycle.num_edges == 25
        negatives = sum(e.w < 0 for e in cycle.edges)
        expected = {(tree, "balanced"): 0, (tree, "antibalanced"): 0,
                    (cycle, "balanced"): negatives % 2, (cycle, "antibalanced"): (25 - negatives) % 2}
        for (G, target), flips in expected.items():
            start = time.perf_counter()
            rep = sn.frustration(G, target)
            assert time.perf_counter() - start < 1.0
            assert rep.exact and rep.flip_count == flips

    def test_violated_chain_flips_its_lightest_edge(self):
        # kernel nodes 0 and 1 joined by an edge, a 2-edge chain and a 4-edge
        # chain whose sign product is negative; only the long chain is violated
        G = sn.build_graph(6, [(0, 1, 3.0), (0, 2, 2.5), (2, 1, 2.0),
                               (0, 3, 1.5), (3, 4, 0.7), (4, 5, -1.2), (5, 1, 0.9)])
        rep = sn.frustration(G, "balanced")
        assert [(e.i, e.j) for e in rep.flip_set] == [(3, 4)]
        assert rep.flipped_weight == 0.7

    def test_exact_mode_cap(self):
        G = sn.ring_lattice(sn.LatticeParams(n=14, dbar=4, alpha=1.0, sign_plan=sn.BalancedPlan()))
        assert G.num_edges == 28
        with pytest.raises(TooLargeError):
            sn.frustration(G, "balanced")

    @pytest.mark.parametrize("G, target", [
        (sn.build_graph(3, [(0, 1, -1.0), (0, 2, -1.0), (1, 2, 1.0)]), "balanced"),
        (sn.build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, -1.0)]), "antibalanced"),
        (sn.random_signed_tree(26, 0.5, seed=4), "balanced"),
        (sn.random_signed_tree(26, 0.5, seed=4), "antibalanced"),
        (sn.ring_lattice(sn.LatticeParams(n=300, dbar=4, alpha=0.7, sign_plan=sn.BalancedPlan("arc:150"))),
         "balanced"),
    ], ids=["balanced-triangle", "antibalanced-triangle", "tree-balanced", "tree-antibalanced", "balanced-lattice"])
    def test_target_structure_is_answered_without_a_search(self, G, target, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a graph with the target structure was searched")

        for module, name in ((spectral, "_extremes"), (balance, "_extremes"),
                             (balance, "_exact_min_violation_signs")):
            monkeypatch.setattr(module, name, refuse)
        c = sn.classify(G)
        certificate = c.balanced_partition if target == "balanced" else c.antibalanced_partition
        modes = ["heuristic"] + (["exact"] if G.num_edges <= balance.EXACT_FRUSTRATION_EDGE_CAP else [])
        for mode in modes:
            rep = sn.frustration(G, target, mode=mode)
            assert (rep.flip_set, rep.flip_count, rep.flipped_weight, rep.exact) == ((), 0, 0.0, mode == "exact")
            assert np.array_equal(rep.partition.s, certificate.s)
        if "exact" not in modes:  # past the cap, exact mode still refuses whatever the structure
            with pytest.raises(TooLargeError):
                sn.frustration(G, target)

    def test_sign_pattern_readoff_near_zero_goes_positive(self):
        b = sign_pattern(np.array([1e-12, -1.0, 0.5]))
        assert np.array_equal(b.s, [1, -1, 1])
