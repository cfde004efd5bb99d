import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import signednet as sn
from signednet import Verdict, generate
from signednet.balance import apply_flip_set
from signednet.errors import GaveUpConnectivityError, ParamOutOfRangeError
from signednet.generate import (
    _kept_positions,
    _ssbm_once,
    _triangle_pairs,
    config_field,
    resolve_partition_rule,
    seeded_rng,
    sign_plan_from_json,
)
from signednet.io import format_edge_list

from helpers import same_partition


class TestSSBM:
    def test_eta_zero_is_balanced_with_planted_partition(self):
        params = sn.SSBMParams(n1=6, n2=10, p_in=0.8, p_out=0.1, eta=0.0, alpha=0.1, seed=11)
        G = sn.ssbm(params)
        c = sn.classify(G)
        assert c.verdict is Verdict.BALANCED
        assert same_partition(c.balanced_partition, sn.Bipartition(params.planted_signs()))

    def test_eta_one_is_antibalanced(self):
        G = sn.ssbm(sn.SSBMParams(n1=6, n2=10, p_in=0.8, p_out=0.1, eta=1.0, alpha=0.1, seed=11))
        assert sn.classify(G).verdict is Verdict.ANTIBALANCED

    def test_reference_configuration_shape(self):
        G = sn.ssbm(sn.SSBMParams(n1=6, n2=10, p_in=0.8, p_out=0.1, eta=0.05, alpha=0.1, seed=1))
        assert G.n == 16
        assert all(abs(w) == pytest.approx(0.1) for _, _, w in G.edges)

    def test_determinism_byte_for_byte(self):
        params = sn.SSBMParams(n1=8, n2=8, p_in=0.6, p_out=0.2, eta=0.3, alpha=0.5, seed=99)
        a = format_edge_list(sn.ssbm(params))
        b = format_edge_list(sn.ssbm(params))
        assert a == b

    def test_different_seeds_differ(self):
        base = dict(n1=8, n2=8, p_in=0.6, p_out=0.2, eta=0.3, alpha=0.5)
        a = sn.ssbm(sn.SSBMParams(seed=1, **base))
        b = sn.ssbm(sn.SSBMParams(seed=2, **base))
        assert a.edges != b.edges

    def test_empirical_densities_within_three_standard_errors(self):
        draws = 200
        p_in, p_out, eta = 0.3, 0.1, 0.3
        n1 = n2 = 50
        in_pairs = 2 * (n1 * (n1 - 1) // 2)
        out_pairs = n1 * n2
        got_in = got_out = edges = flipped = 0
        for seed in range(draws):
            params = sn.SSBMParams(n1=n1, n2=n2, p_in=p_in, p_out=p_out, eta=eta, alpha=1.0, seed=seed)
            G = sn.ssbm(params)
            s = params.planted_signs()
            inside = int(np.sum(s[G.i] == s[G.j]))
            got_in += inside
            got_out += G.num_edges - inside
            edges += G.num_edges
            flipped += int(np.sum(np.sign(G.w) != s[G.i] * s[G.j]))
        for got, p, total in ((got_in, p_in, draws * in_pairs), (got_out, p_out, draws * out_pairs),
                              (flipped, eta, edges)):
            se = np.sqrt(total * p * (1 - p))
            assert abs(got - total * p) < 3 * se

    def test_peak_memory_grows_with_the_edges_not_the_pairs(self):
        # 3000 nodes have 4.5e6 pairs, 36 MB as one float array; the draw visits only the pairs it keeps
        params = sn.SSBMParams(n1=1500, n2=1500, p_in=8 / 1500, p_out=2 / 1500, eta=0.05, alpha=1.0, seed=0)
        tracemalloc.start()
        try:
            G = sn.ssbm(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 9 < 2 * G.num_edges / G.n < 11
        assert peak < 20 * 2**20

    def test_eta_duality_with_negation(self):
        # negating an eta draw should look like a (1 - eta) draw: check the
        # exactly classifiable endpoints
        for seed in range(10):
            G0 = sn.ssbm(sn.SSBMParams(n1=5, n2=7, p_in=0.8, p_out=0.2, eta=0.0, alpha=1.0, seed=seed))
            G1 = sn.ssbm(sn.SSBMParams(n1=5, n2=7, p_in=0.8, p_out=0.2, eta=1.0, alpha=1.0, seed=seed))
            assert sn.classify(sn.negate(G0)).is_antibalanced
            assert sn.classify(sn.negate(G1)).is_balanced

    def test_near_balanced_draw_has_few_disturbing_edges(self):
        # at eta = 0.05 only a handful of edges disagree with the planted
        # bipartition, and flipping them restores exactly that bipartition;
        # the eigenvector heuristic's flip set is an upper bound that also
        # restores balance, but its size is not bounded by the planted count
        params = sn.SSBMParams(n1=6, n2=10, p_in=0.8, p_out=0.1, eta=0.05, alpha=0.1, seed=14)
        G = sn.ssbm(params)
        s = params.planted_signs()
        disturbing = [(i, j) for i, j, w in G.edges if np.sign(w) != s[i] * s[j]]
        assert 1 <= len(disturbing) <= 8
        restored = sn.classify(apply_flip_set(G, disturbing))
        assert restored.is_balanced
        assert same_partition(restored.balanced_partition, sn.Bipartition(s))
        heur = sn.frustration(G, "balanced", mode="heuristic")
        assert sn.classify(apply_flip_set(G, heur.flip_set)).is_balanced

    def test_connectivity_retries_exhausted(self):
        with pytest.raises(GaveUpConnectivityError):
            sn.ssbm(sn.SSBMParams(n1=3, n2=3, p_in=0.01, p_out=0.0, eta=0.0, alpha=1.0, seed=0))

    def test_a_config_that_can_connect_exhausts_the_retries(self, monkeypatch):
        # six nodes need five of the fifteen pairs at 1 %: each draw is connected with probability below 1e-6
        draw = mock.Mock(wraps=generate._ssbm_once)
        monkeypatch.setattr(generate, "_ssbm_once", draw)
        with pytest.raises(GaveUpConnectivityError, match="no connected draw within 100 attempts"):
            sn.ssbm(sn.SSBMParams(n1=3, n2=3, p_in=0.01, p_out=0.01, eta=0.0, alpha=1.0, seed=0))
        assert draw.call_count == generate.CONNECTIVITY_RETRIES

    @pytest.mark.parametrize("n1, n2, p_in, p_out, reason", [
        (2000, 2000, 0.01, 0.0, "p_out = 0 leaves the two blocks without a cross edge"),
        (1, 1, 1.0, 0.0, "p_out = 0 leaves the two blocks without a cross edge"),
        (3000, 0, 0.0, 0.5, "p_in = 0 leaves the single block without an edge"),
        (0, 2, 0.0, 0.0, "p_in = 0 leaves the single block without an edge"),
    ])
    def test_a_config_no_draw_can_connect_is_refused_before_drawing(self, monkeypatch, n1, n2, p_in, p_out, reason):
        monkeypatch.setattr(generate, "_ssbm_once", mock.Mock(side_effect=AssertionError("drew")))
        with pytest.raises(GaveUpConnectivityError, match=f"{reason}: no draw is connected"):
            sn.ssbm(sn.SSBMParams(n1=n1, n2=n2, p_in=p_in, p_out=p_out, eta=0.0, alpha=1.0, seed=0))

    def test_param_validation(self):
        with pytest.raises(ParamOutOfRangeError):
            sn.SSBMParams(n1=6, n2=10, p_in=1.2, p_out=0.1, eta=0.0)
        with pytest.raises(ParamOutOfRangeError):
            sn.SSBMParams(n1=1, n2=0, p_in=0.5, p_out=0.5, eta=0.0)

    def test_expected_edge_count_is_capped(self):
        # only the parameter record is built: the check runs before any draw; the
        # complete SSBM with n1 = n2 = 4000 would need about 7 GB to build and write
        for n1, edges in [(10**4, 199990000), (4000, 31996000), (1449, 4197753)]:
            with pytest.raises(ParamOutOfRangeError, match=f"{edges} expected edges, above the cap of 4194304"):
                sn.SSBMParams(n1=n1, n2=n1, p_in=1.0, p_out=1.0, eta=0.0)
        sn.SSBMParams(n1=1448, n2=1448, p_in=1.0, p_out=1.0, eta=0.0)  # 4191960 expected edges pass
        sn.SSBMParams(n1=10**4, n2=10**4, p_in=0.02, p_out=0.02, eta=0.0)  # 3999800 pass


class TestSSBMSampler:
    """The O(n + m) draw: kept positions by geometric skips, mapped back to pairs in closed form."""

    def test_triangle_pairs_match_triu_indices(self):
        for b in range(61):
            i, j = _triangle_pairs(np.arange(b * (b - 1) // 2), b)
            expected = np.triu_indices(b, 1)
            assert np.array_equal(i, expected[0]) and np.array_equal(j, expected[1]), b

    # from about 2**28 nodes the float square root lands in a neighbouring row at some row starts: the integer
    # correction mends it
    @pytest.mark.parametrize("b", [2, 3, 61, 1000, 2**20 + 7, 2**22 - 1, 2**22, 2**28 + 3])
    def test_triangle_pairs_match_an_integer_reference(self, b):
        def reference(k):  # row i starts at position i (2b - i - 1) / 2; isqrt finds the row counted from the end
            back = b * (b - 1) // 2 - 1 - k
            r = (math.isqrt(8 * back + 1) - 1) // 2
            return b - 2 - r, b - 1 - (back - r * (r + 1) // 2)

        rng, pairs = np.random.default_rng(b), b * (b - 1) // 2
        rows = rng.integers(0, b - 1, 1000)
        starts = rows * (2 * b - rows - 1) // 2
        k = np.concatenate([rng.integers(0, pairs, 3000), starts, np.maximum(starts - 1, 0), [pairs - 1]])
        i, j = _triangle_pairs(k, b)
        assert list(zip(i.tolist(), j.tolist())) == [reference(x) for x in k.tolist()]

    @pytest.mark.parametrize("p", [0.05, 0.5, 0.95])
    def test_each_position_and_pair_of_positions_is_kept_independently(self, p):
        draws, count, rng = 4000, 6, np.random.default_rng(1)
        kept, adjacent = np.zeros(count), 0
        for _ in range(draws):
            k = _kept_positions(count, p, rng)
            kept[k] += 1
            adjacent += k[:2].tolist() == [0, 1]
        assert np.all(np.abs(kept - draws * p) < 4 * np.sqrt(draws * p * (1 - p)))
        assert abs(adjacent - draws * p * p) < 4 * np.sqrt(draws * p * p * (1 - p * p))

    def test_kept_positions_are_increasing_and_in_range(self):
        rng = np.random.default_rng(0)
        for count, p in [(1, 0.5), (10, 0.999), (10**6, 1e-6), (10**12, 1e-9), (5000, 0.3)]:
            k = _kept_positions(count, p, rng)
            assert np.all(np.diff(k) > 0) and (len(k) == 0 or 0 <= k[0] and k[-1] < count)
        assert np.array_equal(_kept_positions(7, 1.0, rng), np.arange(7))
        assert len(_kept_positions(7, 0.0, rng)) == len(_kept_positions(0, 0.5, rng)) == 0

    @pytest.mark.parametrize("n1, n2, p_in, p_out", [
        (0, 12, 0.5, 0.3), (12, 0, 0.5, 0.0),  # a single block, p_out = 0 included
        (7, 5, 1.0, 1.0),  # complete
        (6, 9, 0.0, 0.6),  # bipartite
        (9, 11, 1.0, 0.2), (40, 25, 0.2, 0.05),
    ])
    def test_edges_are_sorted_pairs_signed_by_their_blocks(self, n1, n2, p_in, p_out):
        params = sn.SSBMParams(n1=n1, n2=n2, p_in=p_in, p_out=p_out, eta=0.0, alpha=0.5, seed=3)
        G = sn.ssbm(params)
        keys = G.i * G.n + G.j
        assert np.all(G.i < G.j) and np.all(np.diff(keys) > 0)  # the (i, j) row order, no pair twice
        s = params.planted_signs()
        assert np.array_equal(G.w, 0.5 * s[G.i] * s[G.j])
        inside = s[G.i] == s[G.j]
        if p_in == 1.0:
            assert np.sum(inside) == (n1 * (n1 - 1) + n2 * (n2 - 1)) // 2
        if p_out == 1.0:
            assert np.sum(~inside) == n1 * n2
        if p_in == 0.0:
            assert not inside.any()
        if 0 in (n1, n2):
            assert inside.all()

    def test_sparse_draw_memory_grows_with_the_edges(self):
        # 10^5 nodes have 5e9 pairs; mean degree 12 keeps about 6e5 of them
        params = sn.SSBMParams(n1=50000, n2=50000, p_in=10 / 50000, p_out=2 / 50000, eta=0.05, alpha=1.0, seed=0)
        tracemalloc.start()
        try:
            i, j, w = _ssbm_once(params, seeded_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 5.9e5 < len(w) < 6.1e5
        assert peak < 120 * len(w)


class TestRingLattice:
    def test_balanced_plans_classify_balanced(self):
        for rule in ("all", "arc:7", "blocks:4"):
            G = sn.ring_lattice(sn.LatticeParams(n=20, dbar=4, alpha=0.1, sign_plan=sn.BalancedPlan(rule)))
            assert sn.classify(G).is_balanced

    def test_antibalanced_plans_classify_antibalanced(self):
        for rule in ("all", "arc:7"):
            G = sn.ring_lattice(sn.LatticeParams(n=20, dbar=4, alpha=0.1, sign_plan=sn.AntibalancedPlan(rule)))
            assert sn.classify(G).is_antibalanced

    def test_flip_one_edge_on_triangle_lattice_is_strictly_unbalanced(self):
        G = sn.ring_lattice(sn.LatticeParams(n=20, dbar=4, alpha=0.1, sign_plan=sn.FlipKPlan(k=1, seed=2)))
        assert sn.classify(G).verdict is Verdict.STRICTLY_UNBALANCED

    def test_flip_k_determinism(self):
        params = sn.LatticeParams(n=16, dbar=4, alpha=0.1, sign_plan=sn.FlipKPlan(k=3, seed=5))
        assert format_edge_list(sn.ring_lattice(params)) == format_edge_list(sn.ring_lattice(params))

    def test_degree_and_magnitude(self):
        G = sn.ring_lattice(sn.LatticeParams(n=11, dbar=6, alpha=0.7, sign_plan=sn.BalancedPlan()))
        assert np.allclose(G.degrees, 6 * 0.7)

    def test_invalid_params(self):
        with pytest.raises(ParamOutOfRangeError):
            sn.LatticeParams(n=10, dbar=3, alpha=0.1, sign_plan=sn.BalancedPlan())
        with pytest.raises(ParamOutOfRangeError):
            sn.LatticeParams(n=4, dbar=4, alpha=0.1, sign_plan=sn.BalancedPlan())
        with pytest.raises(ParamOutOfRangeError):
            resolve_partition_rule("spiral:3", 10)

    @pytest.mark.parametrize("rule", ["arc:x", "blocks:", "arc", 5, None])
    def test_unparseable_rules_are_named_errors(self, rule):
        with pytest.raises(ParamOutOfRangeError, match="unknown bipartition rule"):
            resolve_partition_rule(rule, 10)

    @pytest.mark.parametrize("doc, message", [
        ("all", "sign_plan must be a JSON object"),
        ({"kind": "flip_k", "k": "x"}, "flip_k sign_plan needs integer k and seed"),
        ({"kind": "flip_k", "k": 2, "seed": float("inf")}, "flip_k sign_plan needs integer k and seed"),
        ({"kind": "spiral"}, "unknown sign plan kind 'spiral'"),
        ({"kind": "flip_k", "k": 2, "seed": 1.5}, "flip_k sign_plan needs integer k and seed"),
    ])
    def test_bad_json_sign_plans_are_named_errors(self, doc, message):
        with pytest.raises(ParamOutOfRangeError, match=message):
            sign_plan_from_json(doc)

    def test_integer_fields_keep_every_digit(self):
        assert config_field({"seed": 2**64 + 1}, "seed", 0, int) == 2**64 + 1
        assert sign_plan_from_json({"kind": "flip_k", "k": 2.0, "seed": 2**64 + 1}) == sn.FlipKPlan(k=2, seed=2**64 + 1)

    def test_negative_seeds_are_named_errors(self):
        with pytest.raises(ParamOutOfRangeError, match="seed must be a nonnegative integer, got -1"):
            seeded_rng(-1)
        with pytest.raises(ParamOutOfRangeError, match="got -3"):
            sn.ring_lattice(sn.LatticeParams(n=10, dbar=4, alpha=0.1, sign_plan=sn.FlipKPlan(k=1, seed=-3)))
        with pytest.raises(ParamOutOfRangeError, match="got -2"):
            sn.random_signed_tree(5, 0.5, seed=-2)


class TestRandomSignedTree:
    def test_every_tree_is_both(self):
        for seed in range(100):
            n = 2 + seed % 49
            T = sn.random_signed_tree(n, sign_prob=0.5, seed=seed)
            assert T.num_edges == n - 1
            assert sn.classify(T).verdict is Verdict.BOTH

    def test_single_node(self):
        T = sn.random_signed_tree(1, sign_prob=0.3, seed=0)
        assert T.n == 1 and T.edges == ()

    def test_all_positive_tree_measures_vanish(self):
        T = sn.random_signed_tree(12, sign_prob=0.0, seed=4)
        m = sn.balance_measures(T)
        assert m.d_b == pytest.approx(0.0, abs=1e-10)
        assert m.d_a == pytest.approx(0.0, abs=1e-10)

    def test_determinism(self):
        assert format_edge_list(sn.random_signed_tree(30, 0.4, seed=8)) == \
            format_edge_list(sn.random_signed_tree(30, 0.4, seed=8))

    def test_parents_uniform_and_signs_within_three_standard_errors(self):
        draws, n, sign_prob = 400, 40, 0.3
        children = np.arange(1, n)
        parents = np.empty((draws, n - 1), dtype=np.int64)
        negative = 0
        for seed in range(draws):
            T = sn.random_signed_tree(n, sign_prob, seed=seed)
            assert np.array_equal(T.j, children)  # edge c - 1 joins child c to its parent
            parents[seed] = T.i
            negative += int(np.sum(T.w < 0))
        # the parent of child c is uniform on [0, c): every value of child 4's parent, then the mean of all
        for value in range(4):
            got, p = int(np.sum(parents[:, 3] == value)), 1 / 4
            assert abs(got - draws * p) < 3 * np.sqrt(draws * p * (1 - p))
        assert np.all(parents < children)
        offset = float(np.sum(parents - (children - 1) / 2))
        assert abs(offset) < 3 * np.sqrt(draws * np.sum((children.astype(float) ** 2 - 1) / 12))
        total = draws * (n - 1)
        assert abs(negative - total * sign_prob) < 3 * np.sqrt(total * sign_prob * (1 - sign_prob))
