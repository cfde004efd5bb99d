import json
import tracemalloc

import numpy as np
import pytest

import signednet as sn
from signednet import ELTConfig, StationaryKind, Verdict, dynamics
from signednet.dynamics import MAX_STORED_VALUES, ActivationSets, ring_lattice_parameters
from signednet.io import activation_sets_to_json
from signednet.spectral import _spectrum
from signednet.errors import (
    BipartiteUnsupportedError,
    DimensionMismatchError,
    InconsistentModeError,
    NegativeDensityError,
    NonpositiveThresholdError,
    NotLatticeError,
    ParamOutOfRangeError,
)

from helpers import (
    activation_sets_json_reference,
    random_connected_corpus,
    rank1_approximation,
    transition_matrix,
    transition_power_sign_pattern,
)


def reference_ssbm(eta, seed, alpha=0.1):
    return sn.ssbm(sn.SSBMParams(n1=6, n2=10, p_in=0.8, p_out=0.1, eta=eta, alpha=alpha, seed=seed))


class TestLinearAdjacency:
    def test_zero_initial_state_stays_zero(self, triangle_positive):
        traj = sn.linear_adjacency_simulate(triangle_positive, np.zeros(3), 10)
        assert np.allclose(traj.states, 0) and traj.states.shape == (11, 3)

    def test_matches_matrix_power(self, strictly_unbalanced_4, rng):
        x0 = rng.standard_normal(4)
        traj = sn.linear_adjacency_simulate(strictly_unbalanced_4, x0, 7)
        W = strictly_unbalanced_4.weight_matrix
        assert np.allclose(traj.final, x0 @ np.linalg.matrix_power(W, 7), atol=1e-9)

    def test_balanced_signs_follow_certificate(self):
        G = reference_ssbm(0.0, seed=2)
        s = sn.classify(G).balanced_partition.s.astype(float)
        traj = sn.linear_adjacency_simulate(G, s.copy(), 15)
        for t in range(1, 16):
            row = traj.states[t]
            assert np.all(row != 0) and np.array_equal(np.sign(row), s)

    def test_balanced_magnitudes_match_unsigned_run(self):
        # switching-consistent start: |x(t)| equals the unsigned trajectory
        G = reference_ssbm(0.0, seed=5)
        s = sn.classify(G).balanced_partition.s.astype(float)
        mags = np.abs(np.random.default_rng(0).random(G.n)) + 0.5
        traj = sn.linear_adjacency_simulate(G, s * mags, 12)
        unsigned = sn.linear_adjacency_simulate(sn.unsigned_counterpart(G), mags, 12)
        assert np.allclose(np.abs(traj.states), unsigned.states, atol=1e-9)

    def test_antibalanced_signs_alternate(self):
        G = reference_ssbm(1.0, seed=2)
        s = sn.classify(G).antibalanced_partition.s.astype(float)
        traj = sn.linear_adjacency_simulate(G, s.copy(), 9)
        for t in range(1, 10):
            assert np.array_equal(np.sign(traj.states[t]), ((-1) ** t) * s)

    def test_dimension_mismatch(self, triangle_positive):
        with pytest.raises(DimensionMismatchError):
            sn.linear_adjacency_simulate(triangle_positive, np.zeros(4), 3)

    def test_strictly_unbalanced_magnitudes_fall_below_unsigned_run(self):
        # spectral-radius contraction shows up as strictly smaller magnitudes
        # on the signed run than on the matched unsigned run started from |x0|
        G = reference_ssbm(0.1, seed=9)
        assert sn.classify(G).verdict is Verdict.STRICTLY_UNBALANCED
        x0 = np.ones(G.n)
        signed = sn.linear_adjacency_simulate(G, x0, 20)
        unsigned = sn.linear_adjacency_simulate(sn.unsigned_counterpart(G), np.abs(x0), 20)
        assert np.any(np.abs(signed.final) < np.abs(unsigned.final) - 1e-12)
        assert np.max(np.abs(signed.final)) < np.max(np.abs(unsigned.final))


class TestRank1Approximation:
    def test_power_zero_error_is_sqrt_n_minus_one(self):
        G = reference_ssbm(0.0, seed=2)
        approx = rank1_approximation(G, 0)
        err = np.linalg.norm(np.eye(G.n) - approx)
        assert err == pytest.approx(np.sqrt(G.n - 1), abs=1e-8)

    @pytest.mark.parametrize("eta", [0.0, 1.0])
    def test_frobenius_error_identity(self, eta):
        G = reference_ssbm(eta, seed=3)
        unsigned_vals = _spectrum(G, np.abs(G.w)).eigenvalues
        W = G.weight_matrix
        for t in (1, 3, 8, 20):
            approx = rank1_approximation(G, t)
            err = np.linalg.norm(np.linalg.matrix_power(W, t) - approx)
            expected = np.sqrt(np.sum(unsigned_vals[1:] ** (2 * t)))
            assert err == pytest.approx(expected, abs=1e-8)

    def test_relative_error_bounded_by_eigenvalue_ratio(self):
        G = reference_ssbm(0.0, seed=3)
        vals = _spectrum(G, np.abs(G.w)).eigenvalues
        t = 20
        Wt = np.linalg.matrix_power(G.weight_matrix, t)
        rel = np.linalg.norm(Wt - rank1_approximation(G, t)) / np.linalg.norm(Wt)
        ratio = max(abs(vals[1]), abs(vals[-1])) / vals[0]
        assert rel < ratio ** t * np.sqrt(G.n - 1)


class TestRandomWalk:
    def test_positive_triangle_converges_to_uniform(self, triangle_positive):
        traj = sn.random_walk_simulate(triangle_positive, np.array([1.0, 0.0, 0.0]), 200)
        assert np.allclose(traj.final, [1 / 3, 1 / 3, 1 / 3], atol=1e-9)

    def test_balanced_triangle_with_two_negatives(self, triangle_two_negative):
        traj = sn.random_walk_simulate(triangle_two_negative, np.array([1.0, 0.0, 0.0]), 300)
        assert np.allclose(traj.final, [1 / 3, -1 / 3, -1 / 3], atol=1e-10)

    def test_strictly_unbalanced_decays_to_zero(self, strictly_unbalanced_4):
        traj = sn.random_walk_simulate(strictly_unbalanced_4, np.array([1.0, 0.0, 0.0, 0.0]), 400)
        assert np.max(np.abs(traj.final)) < 1e-8

    def test_until_stationary_stops_early_and_detects_alternation(self):
        G = reference_ssbm(1.0, seed=6)
        x0 = np.ones(G.n) / G.n
        traj = sn.simulate_walk_until_stationary(G, x0, max_steps=5000, tol=1e-12)
        assert traj.horizon < 5000
        assert np.max(np.abs(traj.states[-1] - traj.states[-3])) < 1e-12


class TestPredictStationary:
    def test_balanced_fixed_point_structure(self):
        G = reference_ssbm(0.0, seed=7)
        c = sn.classify(G)
        s = c.balanced_partition.s.astype(float)
        x0 = np.abs(np.random.default_rng(1).random(G.n))
        x0 /= np.abs(x0).sum()
        pred = sn.predict_stationary(G, x0)
        assert pred.kind is StationaryKind.FIXED
        expected = (x0 @ s) * s * G.degrees / G.degrees.sum()
        assert np.allclose(pred.fixed, expected)
        traj = sn.random_walk_simulate(G, x0, 2000)
        assert np.allclose(traj.final, pred.fixed, atol=1e-8)

    def test_antibalanced_pair_is_negation(self):
        G = reference_ssbm(1.0, seed=7)
        x0 = np.ones(G.n) / G.n
        pred = sn.predict_stationary(G, x0)
        assert pred.kind is StationaryKind.ALTERNATING_PAIR
        assert np.allclose(pred.even, -pred.odd)
        traj = sn.random_walk_simulate(G, x0, 2000)
        assert np.allclose(traj.states[-1], pred.even, atol=1e-8)
        assert np.allclose(traj.states[-2], pred.odd, atol=1e-8)

    def test_orthogonal_start_gives_zero_fixed_point(self, triangle_two_negative):
        s = sn.classify(triangle_two_negative).balanced_partition.s.astype(float)
        x0 = np.array([0.5, 0.25, 0.25]) * s  # x0 . s = 0 after sign weighting
        x0 = np.array([0.0, 0.5, -0.5])
        assert x0 @ s == 0
        pred = sn.predict_stationary(triangle_two_negative, x0)
        assert np.allclose(pred.fixed, 0)

    def test_strictly_unbalanced_is_zero(self, strictly_unbalanced_4):
        pred = sn.predict_stationary(strictly_unbalanced_4, np.ones(4) / 4)
        assert pred.kind is StationaryKind.ZERO and np.allclose(pred.vectors[0], 0)

    def test_bipartite_refused(self, four_cycle_positive):
        with pytest.raises(BipartiteUnsupportedError):
            sn.predict_stationary(four_cycle_positive, np.ones(4) / 4)


class TestTransitionPowerSignPattern:
    def test_balanced_pattern_constant_in_time(self):
        G = reference_ssbm(0.0, seed=8)
        s = sn.classify(G).balanced_partition.s
        P = transition_matrix(G)
        Pbar = transition_matrix(sn.unsigned_counterpart(G))
        Pt, Pbart = np.eye(G.n), np.eye(G.n)
        for t in (1, 2, 3, 7):
            predicted = transition_power_sign_pattern(G, t)
            assert np.array_equal(predicted, np.outer(s, s))
            Pt = np.linalg.matrix_power(P, t)
            Pbart = np.linalg.matrix_power(Pbar, t)
            mask = np.abs(Pbart) > 1e-12
            assert np.array_equal(np.sign(Pt)[mask], predicted[mask])
            assert np.allclose(np.abs(Pt).sum(axis=1), 1.0)

    def test_antibalanced_pattern_alternates(self):
        G = reference_ssbm(1.0, seed=8)
        s = sn.classify(G).antibalanced_partition.s
        P = transition_matrix(G)
        Pbar = transition_matrix(sn.unsigned_counterpart(G))
        for t in (1, 2, 5):
            predicted = transition_power_sign_pattern(G, t)
            assert np.array_equal(predicted, ((-1) ** t) * np.outer(s, s))
            Pt = np.linalg.matrix_power(P, t)
            mask = np.abs(np.linalg.matrix_power(Pbar, t)) > 1e-12
            assert np.array_equal(np.sign(Pt)[mask], predicted[mask])


class TestDoubledWalk:
    def test_no_negative_walkers_on_all_positive_graph(self, triangle_positive):
        plus, minus = sn.doubled_walk_simulate(triangle_positive, np.array([1.0, 0, 0]), np.zeros(3), 20)
        assert np.allclose(minus.states, 0)

    def test_difference_matches_signed_walk(self, rng):
        for G in random_connected_corpus(20, seed=91):
            xp, xm = rng.random(G.n), rng.random(G.n)
            plus, minus = sn.doubled_walk_simulate(G, xp, xm, 50)
            signed = sn.random_walk_simulate(G, xp - xm, 50)
            assert np.max(np.abs((plus.states - minus.states) - signed.states)) < 1e-12

    def test_sum_matches_unsigned_walk(self, rng):
        for G in random_connected_corpus(10, seed=93):
            xp, xm = rng.random(G.n), rng.random(G.n)
            plus, minus = sn.doubled_walk_simulate(G, xp, xm, 50)
            unsigned = sn.random_walk_simulate(sn.unsigned_counterpart(G), xp + xm, 50)
            assert np.max(np.abs((plus.states + minus.states) - unsigned.states)) < 1e-12

    def test_negative_density_rejected(self, triangle_positive):
        with pytest.raises(NegativeDensityError):
            sn.doubled_walk_simulate(triangle_positive, np.array([-0.1, 0, 0]), np.zeros(3), 5)


def lattice(n=40, dbar=4, alpha=0.1, plan=None):
    return sn.ring_lattice(sn.LatticeParams(n=n, dbar=dbar, alpha=alpha, sign_plan=plan or sn.BalancedPlan()))


class TestELTGeneral:
    def test_zero_start_stays_zero(self, triangle_positive):
        cfg = ELTConfig(theta_l=1.0, alpha=1.0, l0=1.0, horizon=5)
        traj, acts = sn.elt_simulate(triangle_positive, np.zeros(3), cfg)
        assert np.allclose(traj.states, 0)
        assert all(not acts.active(t) for t in range(6))

    def test_single_seed_below_trigger_dies(self):
        # threshold above the largest possible neighbourhood sum
        G = lattice(n=12, dbar=4, alpha=1.0)
        cfg = ELTConfig(theta_l=5.0, alpha=1.0, l0=1.0, horizon=4)
        x0 = np.zeros(12)
        x0[0] = 1.0
        traj, _ = sn.elt_simulate(G, x0, cfg)
        assert np.allclose(traj.states[1:], 0)

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(NonpositiveThresholdError):
            ELTConfig(theta_l=0.0, alpha=1.0, l0=1.0, horizon=3)
        with pytest.raises(NonpositiveThresholdError):
            ELTConfig(theta_l=1.0, alpha=1.0, l0=1.0, horizon=3,
                      general_thresholds=np.zeros((3, 2)))

    def test_threshold_table_shape_checked(self, triangle_positive):
        cfg = ELTConfig(theta_l=1.0, alpha=1.0, l0=1.0, horizon=3,
                        general_thresholds=np.ones((2, 3)))
        with pytest.raises(DimensionMismatchError):
            sn.elt_simulate(triangle_positive, np.zeros(3), cfg)

    def test_general_and_lattice_paths_agree_step_by_step(self):
        # dyadic weights make both code paths exact, including boundary ties
        for plan in (sn.BalancedPlan("all"), sn.BalancedPlan("arc:9"), sn.AntibalancedPlan("all"),
                     sn.FlipKPlan(k=2, seed=3)):
            G = lattice(n=18, dbar=4, alpha=0.5, plan=plan)
            mode = "antibalanced" if isinstance(plan, sn.AntibalancedPlan) else "balanced"
            cfg = ELTConfig(theta_l=2.0, alpha=0.5, l0=1.0, horizon=12)
            lat_traj, _ = sn.elt_lattice_simulate(G, 4, cfg, mode=mode)
            gen_traj, _ = sn.elt_simulate(G, lat_traj.states[0], cfg)
            assert np.array_equal(lat_traj.states, gen_traj.states)

    def test_homogeneity_in_l0_for_dyadic_scale(self):
        G = lattice(n=16, dbar=4, alpha=0.1)
        x0 = np.zeros(16)
        x0[0] = 1.0
        for j in np.flatnonzero(G.weight_matrix[0]):
            x0[j] = np.sign(G.weight_matrix[0, j])
        base, _ = sn.elt_simulate(G, x0, ELTConfig(theta_l=2.0, alpha=0.1, l0=1.0, horizon=8))
        scaled, _ = sn.elt_simulate(G, 4.0 * x0, ELTConfig(theta_l=2.0, alpha=0.1, l0=4.0, horizon=8))
        assert np.array_equal(scaled.states, 4.0 * base.states)


class TestRingLatticeDetection:
    def test_parameters_recovered(self):
        G = lattice(n=20, dbar=6, alpha=0.25)
        assert ring_lattice_parameters(G) == (6, 0.25)

    def test_non_lattice_rejected(self, strictly_unbalanced_4):
        with pytest.raises(NotLatticeError):
            ring_lattice_parameters(strictly_unbalanced_4)

    def test_nonuniform_magnitudes_rejected(self):
        G = sn.build_graph(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (0, 4, 2.0)])
        with pytest.raises(NotLatticeError):
            ring_lattice_parameters(G)

    @pytest.mark.parametrize("n, dbar", [(8, 2), (12, 4)])
    def test_relabelled_lattice_rejected(self, n, dbar):
        # uniform weights and n * dbar / 2 edges pass every count check; only the edge keys differ
        ring = lattice(n=n, dbar=dbar, alpha=0.5)
        label = np.random.default_rng(3).permutation(n)
        G = sn.build_graph(n, zip(label[ring.i].tolist(), label[ring.j].tolist(), ring.w.tolist()))
        with pytest.raises(NotLatticeError, match="not a circulant"):
            ring_lattice_parameters(G)

    @pytest.mark.parametrize("dbar,theta_l,expected", [(4, 2.0, True), (4, 2.01, False), (8, 4.0, True)])
    def test_certain_propagation_threshold(self, dbar, theta_l, expected):
        G = lattice(n=40, dbar=dbar)
        assert sn.certain_propagation_check(G, theta_l) is expected


class TestELTLattice:
    def test_two_new_activations_per_step_at_threshold(self):
        G = lattice()
        cfg = ELTConfig(theta_l=2.0, alpha=0.1, l0=1.0, horizon=25)
        _, acts = sn.elt_lattice_simulate(G, 0, cfg)
        for t in range(1, 15):
            assert len(acts.new_active(t)) == 2

    def test_above_threshold_no_spread(self):
        G = lattice()
        cfg = ELTConfig(theta_l=2.5, alpha=0.1, l0=1.0, horizon=25)
        _, acts = sn.elt_lattice_simulate(G, 0, cfg)
        assert acts.ever_active() == acts.active(0)

    def test_balanced_mode_preserves_signs(self):
        G = lattice(plan=sn.BalancedPlan("arc:13"))
        cfg = ELTConfig(theta_l=2.0, alpha=0.1, l0=1.0, horizon=30)
        _, acts = sn.elt_lattice_simulate(G, 5, cfg, mode="balanced")
        for t in range(1, 31):
            assert acts.plus(t - 1) <= acts.plus(t)
            assert acts.minus(t - 1) <= acts.minus(t)

    def test_antibalanced_mode_inverts_signs(self):
        G = lattice(plan=sn.AntibalancedPlan("blocks:5"))
        cfg = ELTConfig(theta_l=2.0, alpha=0.1, l0=1.0, horizon=30)
        traj, acts = sn.elt_lattice_simulate(G, 5, cfg, mode="antibalanced")
        for t in range(1, 31):
            assert acts.plus(t - 1) <= acts.minus(t)
            assert acts.minus(t - 1) <= acts.plus(t)
            nonzero = np.abs(traj.states[t][traj.states[t] != 0])
            assert nonzero.size == 0 or np.allclose(nonzero, nonzero[0])

    def test_magnitudes_follow_geometric_schedule(self):
        G = lattice(plan=sn.BalancedPlan("arc:20"))
        cfg = ELTConfig(theta_l=2.0, alpha=0.1, l0=1.0, horizon=12)
        traj, _ = sn.elt_lattice_simulate(G, 0, cfg)
        level = 1.0
        for t in range(1, 13):
            level *= 2.0 * 0.1
            nonzero = np.abs(traj.states[t][traj.states[t] != 0])
            assert nonzero.size == 0 or np.allclose(nonzero, level, rtol=0, atol=0)

    def test_mode_must_not_contradict_pure_verdict(self):
        G = lattice(plan=sn.AntibalancedPlan("all"))
        cfg = ELTConfig(theta_l=2.0, alpha=0.1, l0=1.0, horizon=5)
        with pytest.raises(InconsistentModeError):
            sn.elt_lattice_simulate(G, 0, cfg, mode="balanced")
        Gb = lattice(plan=sn.BalancedPlan("all"))
        with pytest.raises(InconsistentModeError):
            sn.elt_lattice_simulate(Gb, 0, cfg, mode="antibalanced")

    def test_config_alpha_must_match_lattice(self):
        G = lattice(alpha=0.1)
        cfg = ELTConfig(theta_l=2.0, alpha=0.2, l0=1.0, horizon=5)
        with pytest.raises(ParamOutOfRangeError):
            sn.elt_lattice_simulate(G, 0, cfg)

    def test_flipped_lattices_never_outgrow_balanced(self):
        cfg = ELTConfig(theta_l=2.0, alpha=0.1, l0=1.0, horizon=30)
        _, acts_b = sn.elt_lattice_simulate(lattice(), 0, cfg)
        for seed in range(8):
            G = lattice(plan=sn.FlipKPlan(k=3, seed=seed))
            _, acts = sn.elt_lattice_simulate(G, 0, cfg, mode="balanced")
            for t in range(31):
                assert len(acts.active(t)) <= len(acts_b.active(t))

    def test_unsigned_footnote_three_consecutive_seeds_spread(self):
        # d/2 + 1 consecutive positive seeds are enough on the unsigned lattice
        G = lattice(n=30, dbar=4, alpha=0.1)
        cfg = ELTConfig(theta_l=2.0, alpha=0.1, l0=1.0, horizon=40)
        x0 = np.zeros(30)
        x0[[0, 1, 2]] = 1.0
        traj, acts = sn.elt_simulate(G, x0, cfg)
        assert acts.ever_active() == frozenset(range(30))


class TestStoredStateCap:
    HUGE = 10**12

    @pytest.mark.parametrize("simulate", [
        lambda G: sn.linear_adjacency_simulate(G, np.ones(G.n), TestStoredStateCap.HUGE),
        lambda G: sn.random_walk_simulate(G, np.ones(G.n), TestStoredStateCap.HUGE),
        lambda G: sn.doubled_walk_simulate(G, np.ones(G.n), np.ones(G.n), TestStoredStateCap.HUGE),
        lambda G: sn.elt_simulate(G, np.ones(G.n), ELTConfig(1.0, 0.1, 1.0, TestStoredStateCap.HUGE)),
        lambda G: sn.elt_lattice_simulate(G, 0, ELTConfig(2.0, 0.1, 1.0, TestStoredStateCap.HUGE)),
    ], ids=["linear", "rw", "doubled", "elt", "elt_lattice"])
    def test_oversized_runs_are_refused_before_allocating(self, simulate):
        G = lattice(n=12)
        tracemalloc.start()
        try:
            with pytest.raises(ParamOutOfRangeError, match=f"above the cap of {MAX_STORED_VALUES}"):
                simulate(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_cap_counts_every_stored_value(self, triangle_positive, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_STORED_VALUES", 30)
        assert sn.linear_adjacency_simulate(triangle_positive, np.ones(3), 9).horizon == 9  # 30 values
        with pytest.raises(ParamOutOfRangeError, match="10 steps of 3 values would store 33 values"):
            sn.linear_adjacency_simulate(triangle_positive, np.ones(3), 10)
        with pytest.raises(ParamOutOfRangeError, match="would store 66 values"):  # two species
            sn.doubled_walk_simulate(triangle_positive, np.ones(3), np.ones(3), 10)

    def test_until_stationary_counts_only_the_steps_it_runs(self, triangle_positive, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_STORED_VALUES", 30)
        traj = sn.simulate_walk_until_stationary(triangle_positive, np.ones(3) / 3, max_steps=self.HUGE)
        assert traj.horizon == 2  # uniform start is already stationary
        point = np.array([1.0, 0.0, 0.0])
        assert sn.simulate_walk_until_stationary(triangle_positive, point, max_steps=9, tol=0.0).horizon == 9
        with pytest.raises(ParamOutOfRangeError, match="10 steps of 3 values would store 33 values"):
            sn.simulate_walk_until_stationary(triangle_positive, point, max_steps=self.HUGE, tol=0.0)

    def test_default_walk_on_700_nodes_settles(self):
        G = lattice(n=700)
        traj = sn.simulate_walk_until_stationary(G, np.full(G.n, 1.0 / G.n))
        assert traj.horizon == 2
        with pytest.raises(ParamOutOfRangeError, match="above the cap"):  # the fixed-horizon walk still counts all
            sn.random_walk_simulate(G, np.full(G.n, 1.0 / G.n), 100_000)

    def test_negative_horizon_is_refused(self, triangle_positive):
        with pytest.raises(ParamOutOfRangeError, match="horizon must be nonnegative, got -1"):
            sn.random_walk_simulate(triangle_positive, np.ones(3), -1)


class TestTrajectoryStorage:
    def test_linear_trajectory_is_stored_once(self):
        G = lattice(n=500, alpha=0.25)  # W has row sums 1: the states stay at 1
        tracemalloc.start()
        try:
            traj = sn.linear_adjacency_simulate(G, np.ones(G.n), 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * traj.states.nbytes

    def test_only_a_writeable_input_is_copied(self):
        states = np.zeros((2, 3))
        traj = sn.Trajectory(states)
        states[0, 0] = 1.0
        assert traj.states[0, 0] == 0.0 and not traj.states.flags.writeable
        states.flags.writeable = False
        assert sn.Trajectory(states).states is states
        assert sn.Trajectory([[1, 2]]).states.dtype == float


class TestActivationSets:
    def test_partition_of_nonzero_states(self):
        states = np.array([[0.0, 1.0, -2.0], [3.0, 0.0, 0.0]])
        acts = ActivationSets(states)
        assert acts.plus(0) == {1} and acts.minus(0) == {2}
        assert acts.active(1) == {0}
        assert acts.new_active(1) == {0}

    def test_sets_match_set_algebra_on_the_state_signs(self):
        states = np.random.default_rng(4).choice([-1.5, -0.0, 0.0, 2.0], size=(30, 12))
        plus = [frozenset(np.flatnonzero(row > 0).tolist()) for row in states]
        minus = [frozenset(np.flatnonzero(row < 0).tolist()) for row in states]
        acts = ActivationSets(states)
        assert [(acts.plus(t), acts.minus(t)) for t in range(30)] == list(zip(plus, minus))
        for t in range(30):
            assert acts.active(t) == plus[t] | minus[t]
            assert acts.new_active(t) == (plus[t] | minus[t]) - (plus[t - 1] | minus[t - 1] if t else frozenset())
        assert acts.ever_active() == frozenset().union(*plus, *minus)

    def test_json_matches_the_set_based_construction(self):
        G = lattice(n=12, dbar=4, alpha=1.0, plan=sn.FlipKPlan(k=3, seed=1))
        x0 = np.zeros(12)
        x0[[0, 1, 2]], x0[[6, 7]] = 1.0, -1.0
        table = np.ones((5, 12))
        table[3] = 100.0  # step 4 deactivates every node, and nothing restarts after
        _, acts = sn.elt_simulate(G, x0, ELTConfig(theta_l=1.0, alpha=1.0, l0=1.0, horizon=5, general_thresholds=table))
        doc = activation_sets_to_json(acts)
        assert doc == activation_sets_json_reference(acts, 6)
        assert json.dumps(doc) == json.dumps(activation_sets_json_reference(acts, 6))
        assert doc[1]["plus"] and doc[1]["minus"] and doc[4] == {"t": 4, "plus": [], "minus": []}

    def test_lattice_sets_store_less_than_the_states(self):
        G = lattice(n=500, alpha=0.5)  # theta_l * alpha = 1: the states keep magnitude 1
        sn.classify(G)  # the cached traversal is not part of the run
        tracemalloc.start()
        try:
            traj, acts = sn.elt_lattice_simulate(G, 0, ELTConfig(theta_l=2.0, alpha=0.5, l0=1.0, horizon=2000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert acts.ever_active() == frozenset(range(500)) and len(acts.active(2000)) == 500
        assert peak <= 1.5 * traj.states.nbytes  # the states, plus int8 signs an eighth their size


class TestNoDenseMatrix:
    """Every simulator steps over the edge arrays: on 3000 nodes one dense
    n x n float array would take 72 MB."""

    @pytest.mark.parametrize("simulate", [
        lambda G: sn.linear_adjacency_simulate(G, np.ones(G.n), 5),
        lambda G: sn.random_walk_simulate(G, np.ones(G.n), 5),
        lambda G: sn.simulate_walk_until_stationary(G, np.ones(G.n), max_steps=5),
        lambda G: sn.doubled_walk_simulate(G, np.ones(G.n), np.ones(G.n), 5),
        lambda G: sn.elt_simulate(G, np.ones(G.n), ELTConfig(1.0, 0.1, 1.0, 5)),
        lambda G: sn.elt_lattice_simulate(G, 0, ELTConfig(2.0, 0.1, 1.0, 5)),
    ], ids=["linear", "rw", "rw_until_stationary", "doubled", "elt", "elt_lattice"])
    def test_peak_memory_is_far_below_one_dense_matrix(self, simulate):
        G = lattice(n=3000, plan=sn.FlipKPlan(k=50, seed=1))
        sn.classify(G)
        tracemalloc.start()
        try:
            simulate(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**22  # 4 MiB, against 72 MB for one 3000 x 3000 array
