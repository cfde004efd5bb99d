"""Property tests for the structural invariants."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import signednet as sn
from signednet.balance import DEGENERACY_GAP, Bipartition, _exact_min_violation_signs, _violations, apply_flip_set
from signednet.core import _checked_graph, _columns
from signednet.errors import DisconnectedError, GraphConstructionError

from signednet.io import format_edge_list
from signednet.spectral import (
    LANCZOS_MIN_NODES,
    LANCZOS_TOLERANCE,
    _distances,
    _extremes,
    _lanczos_extremes,
    _lanczos_vectors,
    _ritz_column,
    _ritz_vector,
    _solved_distances,
    _spectrum,
    _top_ritz_value,
    _transition_edge_values,
    _transition_end_vector,
)

from helpers import (
    components_by_union_find,
    csr_reference,
    doubled_edges_reference,
    doubled_transition,
    elt_lattice_reference,
    elt_reference,
    enumerate_simple_cycles,
    frustration_by_edge_subsets,
    frustration_by_node_signings,
    geometric_thresholds_reference,
    iterate_edges_reference,
    iterate_reference,
    nonsymmetric_eigenvalues,
    normalize_edges_reference,
    propagate_signs,
    ring_lattice_reference,
    signed_laplacian,
    signed_path,
    symmetrized_transition,
    transition_matrix,
    two_block_graph,
    walk_until_stationary_reference,
)


@st.composite
def connected_signed_graphs(draw, max_n=8):
    n = draw(st.integers(min_value=2, max_value=max_n))
    edges = {}
    for child in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=child - 1))
        edges[(parent, child)] = None
    extras = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    for i, j in extras:
        if i != j:
            edges[(min(i, j), max(i, j))] = None
    weights = draw(st.lists(
        st.floats(min_value=0.1, max_value=4.0, allow_nan=False), min_size=len(edges), max_size=len(edges)))
    signs = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    triples = [(i, j, w if pos else -w) for (i, j), w, pos in zip(sorted(edges), weights, signs)]
    return sn.build_graph(n, triples)


@given(connected_signed_graphs())
def test_csr_runs_list_each_nodes_edges_by_ascending_neighbour(G):
    nbr, edge, start = G._csr
    assert start[0] == 0 and start[-1] == len(nbr) == len(edge) == 2 * G.num_edges
    for v in range(G.n):
        ks, nbrs = edge[start[v]:start[v + 1]], nbr[start[v]:start[v + 1]]
        assert sorted(ks.tolist()) == np.flatnonzero((G.i == v) | (G.j == v)).tolist()
        assert (np.diff(nbrs) > 0).all()
        assert np.array_equal(G.i[ks] + G.j[ks] - v, nbrs)  # the other end of each edge


@st.composite
def hub_edge_sets(draw, max_n=30):
    """Node count plus edges in any order in which node 0 has degree above 8
    whenever n allows, where pairwise summation engages in a CSR run; other
    nodes are often isolated or apart from node 0."""
    n = draw(st.integers(1, max_n))
    spokes = draw(st.sets(st.integers(1, n - 1), min_size=min(9, n - 1), max_size=n - 1)) if n > 1 else set()
    pairs = {(0, v) for v in spokes}
    pairs |= {(min(a, b), max(a, b)) for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                                                 max_size=n)) if a != b}
    weights = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(pairs), max_size=len(pairs)))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(pairs), max_size=len(pairs)))
    return n, draw(st.permutations([(i, j, s * w) for (i, j), w, s in zip(sorted(pairs), weights, signs)]))


@given(hub_edge_sets(), st.integers(0, 2**32 - 1))
@example((1, []), 0)
@example((200, [(0, v, (-1.0) ** v * (1.0 + v / 7)) for v in range(1, 200)]), 1)
def test_operator_matches_the_dense_matrix(case, seed):
    """Each product is ``x @ _matrix(values)`` to 1e-12 of the sum of the
    absolute terms, on the whole input built without the connectivity check
    (isolated nodes have empty CSR runs, anywhere in the id range) and on each
    of its ``components()`` pieces (a lone node has no edge at all)."""
    n, edges = case
    whole = _checked_graph(n, *_columns(edges))
    x = np.random.default_rng(seed).standard_normal(n)
    for G, ids in [(whole, list(range(n)))] + sn.components(n, edges):
        y = x[ids]
        for values in (G.w, np.abs(G.w)):
            M = G._matrix(values)
            assert np.all(np.abs(G._operator(values)(y) - y @ M) <= 1e-12 * (np.abs(y) @ np.abs(M)))


@st.composite
def graph_with_bipartition(draw):
    G = draw(connected_signed_graphs())
    s = draw(st.lists(st.sampled_from([-1, 1]), min_size=G.n, max_size=G.n))
    return G, Bipartition(np.array(s))


@given(connected_signed_graphs())
def test_degrees_match_unsigned_counterpart(G):
    assert np.array_equal(G.degrees, sn.unsigned_counterpart(G).degrees)


@given(connected_signed_graphs())
def test_transition_rows_have_unit_absolute_sum(G):
    P = transition_matrix(G)
    assert np.allclose(np.abs(P).sum(axis=1), 1.0)


@given(connected_signed_graphs())
def test_signed_laplacian_positive_semidefinite(G):
    assert np.linalg.eigvalsh(signed_laplacian(G)).min() >= -1e-10


@given(graph_with_bipartition())
def test_switching_is_spectrum_preserving_involution(gb):
    G, b = gb
    switched = sn.switch(G, b)
    assert sn.switch(switched, b).edges == G.edges
    assert np.allclose(
        np.linalg.eigvalsh(G.weight_matrix),
        np.linalg.eigvalsh(switched.weight_matrix),
        atol=1e-10,
    )


@given(graph_with_bipartition())
def test_switching_preserves_verdict_and_measures(gb):
    G, b = gb
    switched = sn.switch(G, b)
    assert sn.classify(switched).verdict is sn.classify(G).verdict
    m, ms = sn.balance_measures(G), sn.balance_measures(switched)
    assert abs(m.d_b - ms.d_b) < 1e-10 and abs(m.d_a - ms.d_a) < 1e-10


@given(connected_signed_graphs())
def test_negation_swaps_the_two_measures(G):
    m, mn = sn.balance_measures(G), sn.balance_measures(sn.negate(G))
    assert abs(m.d_b - mn.d_a) < 1e-10 and abs(m.d_a - mn.d_b) < 1e-10


@given(connected_signed_graphs())
def test_balance_measures_match_nonsymmetric_oracle(G):
    # trees are bipartite, so the +/- rho pair of W is exercised too
    m = sn.balance_measures(G)
    p = nonsymmetric_eigenvalues(transition_matrix(G))
    w = nonsymmetric_eigenvalues(G.weight_matrix)
    a = nonsymmetric_eigenvalues(np.abs(G.weight_matrix))
    assert abs(m.d_b - (1.0 - p[0])) < 1e-10
    assert abs(m.d_a - (1.0 + p[-1])) < 1e-10
    assert abs(m.spectral_radius_signed - np.max(np.abs(w))) < 1e-10
    assert abs(m.spectral_radius_unsigned - np.max(np.abs(a))) < 1e-10


def test_measures_and_perturbation_compute_no_eigenvectors(monkeypatch):
    G = sn.ssbm(sn.SSBMParams(n1=6, n2=6, p_in=0.8, p_out=0.3, eta=0.0, alpha=0.5, seed=1))
    e = G.edges[0]

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigh called: eigenvectors were computed")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    m = sn.balance_measures(G)
    est = sn.perturbation_estimate(G, [(e.i, e.j)])
    assert abs(m.d_b) < 1e-10 and est.realized_shift_max < 0


@given(connected_signed_graphs(), st.integers(min_value=0, max_value=6))
@settings(max_examples=40)
def test_doubled_walk_difference_reproduces_signed_walk(G, extra):
    rng = np.random.default_rng(extra)
    xp, xm = rng.random(G.n), rng.random(G.n)
    plus, minus = sn.doubled_walk_simulate(G, xp, xm, 20)
    signed = sn.random_walk_simulate(G, xp - xm, 20)
    assert np.max(np.abs((plus.states - minus.states) - signed.states)) < 1e-12


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([0.5, 2.0, 8.0]))
@settings(max_examples=30)
def test_elt_is_homogeneous_under_dyadic_scaling(seed, scale):
    G = sn.ring_lattice(sn.LatticeParams(n=14, dbar=4, alpha=0.5,
                                         sign_plan=sn.FlipKPlan(k=2, seed=seed)))
    rng = np.random.default_rng(seed)
    x0 = rng.choice([-1.0, 0.0, 1.0], size=14)
    base, _ = sn.elt_simulate(G, x0, sn.ELTConfig(theta_l=2.0, alpha=0.5, l0=1.0, horizon=6))
    scaled, _ = sn.elt_simulate(G, scale * x0, sn.ELTConfig(theta_l=2.0, alpha=0.5, l0=scale, horizon=6))
    assert np.array_equal(scaled.states, scale * base.states)


@st.composite
def simulation_runs(draw):
    """A graph, a seeded generator, a start state and a horizon."""
    G = draw(connected_signed_graphs())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return G, rng, rng.standard_normal(G.n), draw(st.integers(0, 60))


#: largest deviation of an edge-array trajectory from the dense matrix loop,
#: relative to the row's largest magnitude: each step sums the same terms in
#: another order, a few ulps apart (at most 4.4e-16 per step was seen)
DENSE_ROW_TOLERANCE = 1e-12


def assert_near_dense(states: np.ndarray, dense: np.ndarray) -> None:
    scale = np.max(np.abs(dense), axis=1, keepdims=True)
    assert states.shape == dense.shape and np.all(np.abs(states - dense) <= DENSE_ROW_TOLERANCE * scale)


@given(simulation_runs())
@settings(max_examples=60, deadline=None)
def test_walk_simulators_match_their_reference_loops(run):
    G, rng, x0, horizon = run
    linear = sn.linear_adjacency_simulate(G, x0, horizon).states
    walk = sn.random_walk_simulate(G, x0, horizon).states
    assert np.array_equal(linear, iterate_edges_reference(G.n, G.i, G.j, G.w, x0, horizon))
    assert np.array_equal(walk, iterate_edges_reference(G.n, G.i, G.j, G.w, x0, horizon, G.degrees))
    assert_near_dense(linear, iterate_reference(G.weight_matrix, x0, horizon))
    assert_near_dense(walk, iterate_reference(transition_matrix(G), x0, horizon))
    xp, xm = rng.random(G.n), rng.random(G.n)
    plus, minus = sn.doubled_walk_simulate(G, xp, xm, horizon)
    both = np.concatenate([plus.states, minus.states], axis=1)
    start, d2 = np.concatenate([xp, xm]), np.concatenate([G.degrees, G.degrees])
    assert np.array_equal(both, iterate_edges_reference(2 * G.n, *doubled_edges_reference(G), start, horizon, d2))
    assert_near_dense(both, iterate_reference(doubled_transition(G), start, horizon))


@given(simulation_runs(), st.sampled_from([1e-1, 1e-3, 1e-8, 0.0]))
@settings(max_examples=80, deadline=None)
def test_walk_until_stationary_stops_where_the_list_loop_stops(run, tol):
    G, _, x0, max_steps = run
    traj = sn.simulate_walk_until_stationary(G, x0, max_steps=max_steps, tol=tol)
    expected = walk_until_stationary_reference(G, x0, max_steps, tol)
    assert traj.states.shape == expected.shape and np.array_equal(traj.states, expected)
    assert_near_dense(traj.states, iterate_reference(transition_matrix(G), x0, traj.horizon))


@given(simulation_runs(), st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([0.1, 0.5, 1.0]), st.booleans())
@settings(max_examples=60, deadline=None)
def test_elt_matches_the_reference_loop(run, theta_l, alpha, table):
    G, rng, x0, horizon = run
    thresholds = rng.uniform(0.05, 2.0, (horizon, G.n)) if table else None
    cfg = sn.ELTConfig(theta_l=theta_l, alpha=alpha, l0=1.0, horizon=horizon, general_thresholds=thresholds)
    traj, _ = sn.elt_simulate(G, x0, cfg)
    expected = elt_reference(G.weight_matrix, x0, thresholds if table else geometric_thresholds_reference(cfg, G.n))
    assert np.array_equal(traj.states, expected)


@st.composite
def lattice_params(draw):
    n = draw(st.integers(5, 30))
    plan = draw(st.sampled_from([
        sn.BalancedPlan("all"), sn.BalancedPlan(f"arc:{n // 2}"), sn.BalancedPlan("blocks:3"),
        sn.AntibalancedPlan("all"), sn.AntibalancedPlan("blocks:4"),
        sn.FlipKPlan(k=draw(st.integers(0, 4)), seed=draw(st.integers(0, 10**6)), base_rule="arc:2"),
    ]))
    dbar = draw(st.sampled_from([d for d in (2, 4, 6, 8) if d < n]))
    return sn.LatticeParams(n=n, dbar=dbar, alpha=draw(st.sampled_from([0.1, 0.25, 0.5, 1.0])), sign_plan=plan)


@given(lattice_params())
@settings(max_examples=60, deadline=None)
def test_ring_lattice_matches_the_loop_reference(params):
    G, expected = sn.ring_lattice(params), ring_lattice_reference(params)
    assert G.edges == expected.edges and format_edge_list(G) == format_edge_list(expected)


@given(lattice_params(), st.sampled_from(["balanced", "antibalanced"]), st.integers(0, 4),
       st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 3.0]), st.sampled_from([1.0, 0.3]), st.integers(0, 30))
@settings(max_examples=80, deadline=None)
def test_elt_lattice_matches_the_reference_loop(params, mode, center, theta_l, l0, horizon):
    G = sn.ring_lattice(params)
    verdict = sn.classify(G).verdict
    if verdict in (sn.Verdict.BALANCED, sn.Verdict.ANTIBALANCED):
        mode = verdict.value  # the other mode is refused
    cfg = sn.ELTConfig(theta_l=theta_l, alpha=params.alpha, l0=l0, horizon=horizon)
    traj, _ = sn.elt_lattice_simulate(G, center, cfg, mode=mode)
    expected = elt_lattice_reference(G.weight_matrix, center, 1 if mode == "balanced" else -1, cfg)
    assert np.array_equal(traj.states, expected)


@st.composite
def chained_signed_graphs(draw):
    """A path of up to three skeleton nodes plus one to three extra skeleton
    edges, parallel ones and loops included; every skeleton edge becomes a
    chain of up to three edges, pendant trees hang off anywhere, and node ids
    are shuffled.  These are the shapes the kernel reduction of exact
    frustration distinguishes."""
    k = draw(st.integers(1, 3))
    skeleton = [(a, a + 1) for a in range(k - 1)]
    skeleton += draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), min_size=1, max_size=3))
    n, pairs, seen = k, [], set()
    for a, b in skeleton:
        # a loop needs two inner nodes and a repeated pair one, to stay simple
        fewest = 2 if a == b else int((min(a, b), max(a, b)) in seen)
        seen.add((min(a, b), max(a, b)))
        inner = list(range(n, n + draw(st.integers(fewest, 2))))
        n += len(inner)
        path = [a, *inner, b]
        pairs += zip(path, path[1:])
    for _ in range(draw(st.integers(0, 3))):
        pairs.append((draw(st.integers(0, n - 1)), n))
        n += 1
    perm = draw(st.permutations(range(n)))
    weights = draw(st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]),
                            min_size=len(pairs), max_size=len(pairs)))
    return sn.build_graph(n, [(perm[a], perm[b], w) for (a, b), w in zip(pairs, weights)])


@given(chained_signed_graphs())
@example(sn.build_graph(5, [(3, 1, 1.0), (1, 4, -1.0), (4, 0, 2.0), (0, 2, 1.0), (2, 3, 0.5)]))  # pure cycle
@example(sn.build_graph(5, [(0, 1, -1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 1, -1.0), (3, 4, 1.0)]))  # node 0 a leaf
@example(sn.build_graph(5, [(1, 2, 1.0), (1, 3, 1.0), (2, 3, -1.0), (2, 0, 1.0), (0, 4, -1.0),
                            (4, 3, 1.0)]))  # node 0 inside a chain
@example(sn.build_graph(6, [(1, 2, 1.0), (1, 3, -1.0), (3, 2, 1.0), (1, 4, 1.0), (4, 5, 1.0), (5, 2, 1.0),
                            (1, 0, -1.0), (0, 2, -1.0)]))  # parallel chains between two kernel nodes
@example(sn.build_graph(7, [(0, 1, 1.0), (1, 2, -1.0), (2, 0, 1.0), (0, 3, -1.0), (3, 4, -1.0), (4, 0, -1.0),
                            (0, 5, 1.0), (5, 6, 1.0), (6, 0, -1.0)]))  # self-loop chains at node 0
@settings(max_examples=100, deadline=None)
def test_kernel_reduced_frustration_matches_both_references(G):
    for target in ("balanced", "antibalanced"):
        rep = sn.frustration(G, target)
        assert rep.flip_count == frustration_by_node_signings(G, target) == frustration_by_edge_subsets(G, target)
        # the kernel search itself, also where the graph has the target structure and frustration skips it
        assert len(_violations(G, _exact_min_violation_signs(G, target), target)) == rep.flip_count
        assert rep.partition.s[0] == 1
        fixed = sn.classify(apply_flip_set(G, [(e.i, e.j) for e in rep.flip_set]))
        assert fixed.is_balanced if target == "balanced" else fixed.is_antibalanced


# ---------------------------------------------------------------------------
# the cached traversal against slow references
# ---------------------------------------------------------------------------

@given(connected_signed_graphs(max_n=20), st.sampled_from(["balanced", "antibalanced"]))
@example(sn.build_graph(20, [(0, 1, 1.2), (0, 2, 0.8), (0, 6, 1.5), (0, 15, 0.6), (1, 3, 1.3), (1, 5, -1.4),
                             (1, 7, 1.0), (2, 6, 0.6), (2, 9, 1.4), (2, 10, 0.8), (2, 19, 1.0), (3, 4, -1.3),
                             (3, 11, 1.3), (3, 14, 1.3), (4, 5, 1.3), (4, 16, 0.6), (4, 18, 1.4), (5, 10, 1.0),
                             (5, 13, 0.5), (6, 8, 1.2), (6, 16, 0.8), (6, 17, 1.1), (7, 8, 1.5), (8, 9, 1.0),
                             (9, 15, 0.9), (10, 12, 0.5), (10, 16, 1.4), (10, 19, 1.4), (11, 18, 0.7), (12, 15, 0.7),
                             (14, 19, 0.6), (15, 17, 0.7)]), "balanced")  # the P_sym signs flip 3, all +1 flips 2
@example(sn.ssbm(sn.SSBMParams(n1=150, n2=150, p_in=0.064, p_out=0.016, eta=0.05, alpha=0.1, seed=1)), "balanced")
@example(sn.ssbm(sn.SSBMParams(n1=150, n2=150, p_in=0.064, p_out=0.016, eta=0.05, alpha=0.1, seed=1)),
         "antibalanced")
@settings(max_examples=150, deadline=None)
def test_heuristic_flips_restore_the_target_and_never_exceed_the_trivial_signing(G, target):
    """The trivial all +1 signing violates the negative edges (balanced) or
    the positive ones (antibalanced); the heuristic reports at most that many."""
    rep = sn.frustration(G, target, mode="heuristic")
    trivial = int(np.sum(G.w < 0 if target == "balanced" else G.w > 0))
    assert rep.flip_count == len(rep.flip_set) <= trivial
    assert rep.partition.s[0] == 1
    assert [(e.i, e.j) for e in rep.flip_set] == [(G.i[k], G.j[k]) for k in _violations(G, rep.partition.s, target)]
    fixed = sn.classify(apply_flip_set(G, [(e.i, e.j) for e in rep.flip_set]))
    assert fixed.is_balanced if target == "balanced" else fixed.is_antibalanced


@st.composite
def planted_signed_graphs(draw):
    """A connected graph whose signs are kept, or re-planted from a node
    signing so that it is balanced or antibalanced."""
    G = draw(connected_signed_graphs())
    plant = draw(st.sampled_from(["none", "balanced", "antibalanced"]))
    if plant == "none":
        return G
    s = draw(st.lists(st.sampled_from([-1, 1]), min_size=G.n, max_size=G.n))
    flip = 1 if plant == "balanced" else -1
    return sn.build_graph(G.n, [(i, j, flip * s[i] * s[j] * abs(w)) for i, j, w in G.edges])


@given(planted_signed_graphs())
@example(sn.build_graph(1, []))
@example(sn.build_graph(4, [(0, 1, 1.0), (1, 2, -1.0), (2, 3, 1.0), (0, 3, -1.0)]))  # balanced and bipartite
def test_classify_matches_the_reference_traversal(G):
    c = sn.classify(G)
    ref_b, ref_a = propagate_signs(G), propagate_signs(sn.negate(G))
    for got, ref in ((c.balanced_partition, ref_b), (c.antibalanced_partition, ref_a)):
        assert (got is None) == (ref is None)
        assert got is None or np.array_equal(got.s, ref.s)
    verdicts = {(True, True): "both", (True, False): "balanced",
                (False, True): "antibalanced", (False, False): "strictly_unbalanced"}
    assert c.verdict.value == verdicts[ref_b is not None, ref_a is not None]


@given(planted_signed_graphs())
@example(sn.ssbm(sn.SSBMParams(n1=150, n2=150, p_in=0.064, p_out=0.016, eta=0.0, alpha=0.1, seed=5)))
@example(sn.build_graph(2, [(0, 1, -1.0)]))  # both
def test_balance_measures_are_fixed_by_the_verdict_and_never_negative(G):
    m, c = sn.balance_measures(G), sn.classify(G)
    fresh = G._reweighted(G.w.copy())  # solves of every end, none read from what balance_measures kept on G
    p_top, p_bottom = _extremes(fresh, "P_sym")
    w_top, w_bottom = _extremes(fresh, "W")
    (solved_unsigned,) = _extremes(fresh, "|W|", (1,))
    assert min(m.d_b, m.d_a, m.contraction) >= 0.0
    for value, fixed, solved in ((m.d_b, c.is_balanced, 1.0 - p_top), (m.d_a, c.is_antibalanced, 1.0 + p_bottom)):
        assert value == 0.0 if fixed else abs(value - solved) <= 1e-12
    assert abs(m.spectral_radius_unsigned - solved_unsigned) <= 1e-12
    if c.verdict is sn.Verdict.STRICTLY_UNBALANCED:
        assert abs(m.spectral_radius_signed - max(w_top, -w_bottom)) <= 1e-12
    else:
        assert m.spectral_radius_signed == m.spectral_radius_unsigned and m.contraction == 0.0


@given(planted_signed_graphs())
@example(sn.ssbm(sn.SSBMParams(n1=150, n2=150, p_in=0.064, p_out=0.016, eta=0.0, alpha=0.1, seed=5)))
@example(sn.ssbm(sn.SSBMParams(n1=150, n2=150, p_in=0.064, p_out=0.016, eta=1.0, alpha=0.1, seed=5)))
def test_open_distances_are_the_raw_solves_bit_for_bit(G):
    """A distance that the verdict leaves open is, bit for bit, the one that
    the raw solve of both ends of P_sym gives on a fresh copy.  Below
    LANCZOS_MIN_NODES both are read off one eigvalsh of P_sym.  On the
    Lanczos path a lone end is solved on P_sym itself; on the two 300-node
    examples it keeps the bits of the joint solve, as on most graphs (not
    all: the last bit can depend on the steps at which the other end was
    tested)."""
    d, solved = _distances(G), _solved_distances(G._reweighted(G.w.copy()))
    assert d.d_b == (0.0 if G._structure.balanced else solved.d_b)
    assert d.d_a == (0.0 if G._structure.antibalanced else solved.d_a)


@given(connected_signed_graphs())
@example(sn.build_graph(6, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, -1.0), (3, 4, 1.0), (4, 5, 1.0), (0, 5, 1.0),
                            (0, 3, -1.0)]))  # even cycle with a chord across it
@example(sn.build_graph(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (0, 4, 1.0)]))  # odd cycle
def test_bipartite_partition_exists_exactly_without_odd_cycles(G):
    b = sn.bipartite_partition(G)
    assert (b is None) == any(len(cycle) % 2 for cycle in enumerate_simple_cycles(G))
    if b is not None:
        assert b.s[0] == 1 and all(b.s[i] != b.s[j] for i, j, _ in G.edges)


@st.composite
def signed_edge_sets(draw, max_n=9):
    """Node count plus edges in any order and orientation, often disconnected."""
    n = draw(st.integers(1, max_n))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n + 1))
    unique = {(min(i, j), max(i, j)): (i, j) for i, j in pairs if i != j}
    weights = draw(st.lists(st.sampled_from([-2.0, -1.0, 0.5, 1.0]), min_size=len(unique), max_size=len(unique)))
    edges = [(i, j, w) for (i, j), w in zip(unique.values(), weights)]
    return n, draw(st.permutations(edges))


@given(signed_edge_sets())
def test_components_match_union_find(case):
    n, edges = case
    parts = sn.components(n, edges)
    assert [ids for _, ids in parts] == components_by_union_find(n, [(i, j) for i, j, _ in edges])
    back = sorted((ids[i], ids[j], w) for G, ids in parts for i, j, w in G.edges)
    assert back == sorted((min(i, j), max(i, j), w) for i, j, w in edges)


@given(signed_edge_sets())
@example((3, [(0, 1, 1.0)]))
@example((4, [(2, 3, -1.0), (0, 2, 1.0)]))
def test_disconnected_error_names_the_smallest_unreached_node(case):
    n, edges = case
    reached = components_by_union_find(n, [(i, j) for i, j, _ in edges])[0]
    missing = sorted(set(range(n)) - set(reached))
    if not missing:
        assert sn.build_graph(n, edges).n == n
    else:
        with pytest.raises(DisconnectedError, match=rf"node {missing[0]} is not reachable from node 0$"):
            sn.build_graph(n, edges)


# ---------------------------------------------------------------------------
# array validation and edge lookup against the edge-by-edge reference
# ---------------------------------------------------------------------------

_FAR_IDS = [2**63 - 1, 2**63, -2**63 - 1, 10**20, -10**20]
_SPECIAL_WEIGHTS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-16, -1e-16, 1e-15, 5e-324]


@st.composite
def raw_edge_lists(draw, max_n=6, max_edges=8, max_bad=2):
    """Node count plus valid triples with up to ``max_bad`` bad ones inserted:
    ids below 0, at or above n and beyond int64, self-loops, non-finite and
    near-zero weights, and repeated pairs in either orientation."""
    n = draw(st.integers(2, max_n))
    node = st.integers(0, n - 1)
    pair = st.tuples(node, node).filter(lambda p: p[0] != p[1])
    weight = st.floats(-4.0, 4.0).filter(lambda w: abs(w) >= 1e-15)
    edges = draw(st.lists(st.tuples(pair, weight).map(lambda e: (*e[0], e[1])), max_size=max_edges,
                          unique_by=lambda e: (min(e[:2]), max(e[:2]))))
    for _ in range(draw(st.integers(0, max_bad))):
        far = st.sampled_from([-1, n, *_FAR_IDS])
        bad = draw(st.one_of(
            st.tuples(far, node, weight),
            st.tuples(node, far, weight),
            st.tuples(node, weight).map(lambda e: (e[0], e[0], e[1])),
            st.tuples(pair, st.sampled_from(_SPECIAL_WEIGHTS)).map(lambda e: (*e[0], e[1])),
            st.sampled_from(edges).map(lambda e: (e[1], e[0], e[2])) if edges else st.nothing(),
            st.sampled_from(edges).map(lambda e: (e[0], e[1], -e[2])) if edges else st.nothing(),
        ))
        edges.insert(draw(st.integers(0, len(edges))), bad)
    return n, edges


@given(raw_edge_lists())
@example((3, [(0, 1, 1.0), (2, 1, 0.5), (1, 0, -1.0)]))  # reversed-pair duplicate
@example((3, [(0, 1, -0.0), (1, 2, math.nan)]))
@example((2, [(0, 1, 1.0), (1, 10**20, 1.0), (1, 1, 1.0)]))  # id beyond int64 before a self-loop
@example((4, [(0, 1, 1.0), (3, 2, -2.0), (1, 3, 0.5)]))
@example((1, []))
@example((1, [(0, 0, 1.0)]))
@settings(max_examples=200)
def test_validation_and_lookup_match_the_edge_by_edge_reference(case):
    n, edges = case
    try:
        expected = normalize_edges_reference(n, edges)
    except GraphConstructionError as exc:
        with pytest.raises(GraphConstructionError) as got:
            _checked_graph(n, *_columns(edges))
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return
    G = _checked_graph(n, *_columns(edges))
    assert list(G.edges) == expected
    lookup = {(e.i, e.j): k for k, e in enumerate(G.edges)}
    # ids past n would alias real keys without the range check
    pairs = [(a, b) for a in range(-1, 2 * n + 1) for b in range(a, 2 * n + 1)]
    a, b = [p[0] for p in pairs], [p[1] for p in pairs]
    assert G._edge_ids(a, b).tolist() == G._edge_ids(b, a).tolist() == [lookup.get(p, -1) for p in pairs]


def assert_csr_matches_the_reference(G):
    assert all(np.array_equal(got, want) and got.dtype == want.dtype
               for got, want in zip(G._csr, csr_reference(G.n, G.i, G.j)))


@given(raw_edge_lists(max_n=30, max_edges=45, max_bad=3))
@example((3, [(0, 1, 1.0), (0, 1, -1.0), (2, 2, 1.0)]))  # same-orientation repeat before a self-loop
@example((4, [(0, 1, 1.0), (2, 3, 1.0), (3, 2, 1.0), (1, 0, 1.0)]))  # the later pair repeats first
@example((30, [(0, 29, 1.0), (29, 0, 1.0)]))  # n > m + 1: the repeat is found on the ids in use
@example((30, [(3, 7, 1.0), (7, 31, 1.0), (7, 3, 1.0)]))  # n > m + 1: an id past n before a repeat
@settings(max_examples=300)
def test_build_graph_and_components_raise_the_reference_error_and_sort_the_reference_csr(case):
    """``build_graph`` and ``components`` raise the edge-by-edge reference's
    error, type and message, on planted bad edges at any position.  On valid
    input every graph ``components`` returns, and the connected graph
    ``build_graph`` returns, holds the CSR of the sorted pairs."""
    n, edges = case
    try:
        normalize_edges_reference(n, edges)
    except GraphConstructionError as exc:
        for build in (sn.build_graph, sn.components):
            with pytest.raises(GraphConstructionError) as got:
                build(n, edges)
            assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return
    parts = sn.components(n, edges)
    for G, _ in parts:
        assert_csr_matches_the_reference(G)
    if len(parts) == 1:
        assert_csr_matches_the_reference(sn.build_graph(n, edges))


@given(connected_signed_graphs(max_n=30), st.data())
def test_reweighted_graphs_share_the_reference_csr(G, data):
    """``negate``, ``switch``, ``unsigned_counterpart``, ``apply_flip_set``
    and ``with_weights`` replace the weights only: each new graph holds the
    very CSR of its parent, which is that of the sorted pairs."""
    assert_csr_matches_the_reference(G)
    s = Bipartition(np.array(data.draw(st.lists(st.sampled_from([-1, 1]), min_size=G.n, max_size=G.n))))
    k = data.draw(st.integers(0, G.num_edges - 1))
    for H in (sn.negate(G), sn.switch(G, s), sn.unsigned_counterpart(G), apply_flip_set(G, [(G.i[k], G.j[k])]),
              G.with_weights(2.0 * G.w)):
        assert H._csr is G._csr


@given(connected_signed_graphs(max_n=30), st.data())
def test_with_weights_raises_the_reference_error_on_planted_bad_weights(G, data):
    weights = G.w.tolist()
    for _ in range(data.draw(st.integers(1, 3))):
        weights[data.draw(st.integers(0, G.num_edges - 1))] = data.draw(st.sampled_from(_SPECIAL_WEIGHTS))
    try:
        normalize_edges_reference(G.n, zip(G.i.tolist(), G.j.tolist(), weights))
    except GraphConstructionError as exc:
        with pytest.raises(GraphConstructionError) as got:
            G.with_weights(weights)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return
    assert G.with_weights(weights).w.tolist() == weights


# ---------------------------------------------------------------------------
# Lanczos extremes against dense eigvalsh
# ---------------------------------------------------------------------------

@st.composite
def lanczos_graphs(draw):
    """A connected signed graph of one of four kinds: any signs, a tree, a
    balanced graph, or a balanced bipartite graph (whose W and P_sym spectra
    are symmetric, so the extremes form a +/-rho pair)."""
    kind = draw(st.sampled_from(["any", "tree", "balanced", "balanced_bipartite"]))
    n = draw(st.integers(min_value=2, max_value=30))
    parent = [0] + [draw(st.integers(min_value=0, max_value=child - 1)) for child in range(1, n)]
    colour = [0] * n
    for child in range(1, n):
        colour[child] = 1 - colour[parent[child]]
    pairs = {(parent[child], child) for child in range(1, n)}
    if kind != "tree":
        for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)):
            if i != j and (kind != "balanced_bipartite" or colour[i] != colour[j]):
                pairs.add((min(i, j), max(i, j)))
    pairs = sorted(pairs)
    weights = draw(st.lists(st.floats(min_value=0.1, max_value=4.0), min_size=len(pairs), max_size=len(pairs)))
    if kind.startswith("balanced"):
        s = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
        signs = [s[i] * s[j] for i, j in pairs]
    else:
        signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=len(pairs), max_size=len(pairs)))
    return kind, sn.build_graph(n, [(i, j, sg * w) for (i, j), w, sg in zip(pairs, weights, signs)])


@given(lanczos_graphs())
@settings(max_examples=150, deadline=None)
def test_lanczos_extremes_match_dense_eigvalsh(case):
    kind, G = case
    W = G.weight_matrix
    ends = {}
    for name, values, M in (("P_sym", _transition_edge_values(G), symmetrized_transition(G)),
                            ("W", G.w, W), ("|W|", np.abs(G.w), np.abs(W))):
        solved = _lanczos_extremes(G, values)
        ends[name] = [end.value for end in solved]
        dense = np.linalg.eigvalsh(M)
        assert np.max(np.abs(ends[name] - dense[[-1, 0]])) <= 1e-10, name
        # no vectors are built; each end's Ritz vector, replayed from its plain data, is a unit eigenvector
        for end in solved:
            assert len(end.alpha) == len(end.beta) == len(end.column)
            vec = _ritz_vector(G, values, end)
            assert abs(np.linalg.norm(vec) - 1.0) <= 1e-10
            assert np.linalg.norm(M @ vec - end.value * vec) <= 1e-9 * max(1.0, abs(end.value)), name
        for e, column in ((1, -1), (-1, 0)):  # each end alone
            (alone,) = _lanczos_extremes(G, values, (e,))
            assert abs(alone.value - dense[column]) <= 1e-10, name
    if kind.startswith("balanced"):  # d_b = 0
        assert abs(1.0 - ends["P_sym"][0]) <= 1e-12
    if kind in ("tree", "balanced_bipartite"):  # also antibalanced, so d_a = 0
        assert abs(1.0 + ends["P_sym"][1]) <= 1e-12


@st.composite
def dense_path_graphs(draw):
    """A connected signed graph below LANCZOS_MIN_NODES nodes: one of
    :func:`lanczos_graphs`, or a seeded random tree plus random pairs with up
    to LANCZOS_MIN_NODES - 1 nodes and unit, 0.1-rounded or uniform weights."""
    if draw(st.booleans()):
        return draw(lanczos_graphs())[1]
    n = draw(st.integers(2, LANCZOS_MIN_NODES - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = {(int(rng.integers(child)), child) for child in range(1, n)}
    extra = rng.integers(n, size=(draw(st.integers(0, 3 * n)), 2)).tolist()
    pairs |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    magnitude = {"unit": np.ones(len(pairs)), "tenths": rng.integers(1, 11, len(pairs)) / 10,
                 "uniform": rng.uniform(0.1, 1.0, len(pairs))}[draw(st.sampled_from(["unit", "tenths", "uniform"]))]
    w = magnitude * np.where(rng.random(len(pairs)) < draw(st.floats(0.0, 1.0)), -1.0, 1.0)
    return sn.build_graph(n, [(i, j, float(x)) for (i, j), x in zip(sorted(pairs), w)])


@given(dense_path_graphs())
@settings(max_examples=100, deadline=None)
def test_dense_end_vectors_are_the_eigh_columns(G):
    """Below LANCZOS_MIN_NODES each end's vector of P_sym, taken by inverse
    iteration from the kept end, is a unit eigenvector, and wherever that end
    is separated from its neighbour it is the ``eigh`` column up to sign."""
    M = symmetrized_transition(G)
    spectrum = _spectrum(G, _transition_edge_values(G), vectors=True)
    for end, column, neighbour in ((1, 0, 1), (-1, -1, -2)):
        x = _transition_end_vector(G, end)
        (value,) = _extremes(G, "P_sym", (end,))
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
        assert np.linalg.norm(M @ x - value * x) <= 1e-10
        if abs(spectrum.eigenvalues[column] - spectrum.eigenvalues[neighbour]) > DEGENERACY_GAP:
            v = spectrum.eigenvectors[:, column]
            assert min(np.abs(x - v).max(), np.abs(x + v).max()) <= 1e-8


def test_ritz_values_and_columns_match_eigh_on_real_lanczos_tridiagonals():
    """At every step of real Lanczos runs, each end's Ritz value from
    :func:`_top_ritz_value`, searched from that end's value and residual one
    step earlier as a convergence test searches, agrees with ``eigh(T)``'s
    to within 32 eps ||T|| (the dense solver's own error reaches about 14 eps
    ||T|| on these runs) and is bracketed to within 8 eps ||T|| by the
    inertia of T - lam (about 3 eps ||T|| is seen in clusters of ghost
    copies).  Its column from :func:`_ritz_column` agrees with eigh's up to
    sign, and so does its last entry |s|, to within 16 eps (1 + ||T|| /
    gap), the conditioning of eigh's column when the nearest other Ritz
    value is gap away.  The runs go on past convergence, so the
    comparison covers converged ends (|s| < 1e-12) and ends with ghost
    copies: a neighbouring Ritz value beyond the matrix's second eigenvalue
    from that end, which interlacing forbids while the basis is orthogonal."""
    def count_below(diagonal, beta, x):  # eigenvalues of T below x: the negative LDL^T pivots of T - x
        d, count = 1.0, 0
        for a, b in zip(diagonal, [0.0] + beta):
            d = a - x - b * b / d
            count += d < 0
        return count

    eps = float(np.finfo(float).eps)
    ssbm = sn.ssbm(sn.SSBMParams(n1=250, n2=250, p_in=10 / 250, p_out=2 / 250, eta=0.05, alpha=0.1, seed=0))
    star = sn.build_graph(300, [(0, k, (-1.0) ** k) for k in range(1, 300)])
    complete = sn.build_graph(300, [(a, b, 1.0) for a in range(300) for b in range(a + 1, 300)])
    seen = {"converged": 0, "ghost": 0}
    for G, steps in ((ssbm, 250), (two_block_graph(), 120), (signed_path(300, 1), 300), (star, 10), (complete, 10)):
        for values, M in ((_transition_edge_values(G), symmetrized_transition(G)), (G.w, G.weight_matrix)):
            dense = np.linalg.eigvalsh(M)
            alpha, beta = [], []
            previous = {}  # end -> (its Ritz value in the frame of end * T, its residual) one step earlier
            for k, _ in enumerate(_lanczos_vectors(G._operator(values), G.n, alpha, beta), start=1):
                T = np.diag(alpha)
                T.flat[1::k + 1] = T.flat[k::k + 1] = beta[:-1]
                theta, S = np.linalg.eigh(T)
                norm = float(max(-theta[0], theta[-1]))
                for end, e, neighbour, second in ((1.0, -1, -2, dense[-2]), (-1.0, 0, 1, dense[1])):
                    diagonal = [end * a for a in alpha]
                    value = end * _top_ritz_value(diagonal, beta, *previous.get(end, (diagonal[0], beta[0])))
                    column = _ritz_column(alpha, beta, value)
                    gap = abs(float(theta[e] - theta[neighbour])) if k > 1 else math.inf
                    bound = 16 * eps * (1 + norm / gap) if gap else math.inf  # exact duplicates: any column
                    if k > 1:  # the 1 x 1 T's norm leaves out beta_1, the scale of the search's first step
                        assert abs(value - theta[e]) <= 32 * eps * norm
                        assert count_below(diagonal, beta, end * value - 8 * eps * norm) < k
                        assert count_below(diagonal, beta, end * value + 8 * eps * norm) == k
                    assert min(np.max(np.abs(column - S[:, e])), np.max(np.abs(column + S[:, e]))) <= bound
                    assert abs(column[-1] - abs(S[-1, e])) <= bound
                    if gap > 1e4 * eps * norm:  # eigh's column is determined to 1e-3 or better
                        seen["converged"] += column[-1] < 1e-12
                        seen["ghost"] += k > 1 and (theta[neighbour] - second) * end > 1e-9 * norm
                    previous[end] = (end * value, beta[-1] * float(column[-1]))
                if beta[-1] <= LANCZOS_TOLERANCE / 2 or k == steps:
                    break
    assert seen["converged"] and seen["ghost"], seen


@given(lanczos_graphs(), st.sampled_from([(1, -1), (1,), (-1,), (-1, 1)]))
@settings(max_examples=150, deadline=None)
def test_dense_extremes_are_the_end_columns_of_the_full_spectrum(case, ends):
    _, G = case
    assert G.n < LANCZOS_MIN_NODES
    columns = [0 if e > 0 else -1 for e in ends]
    for matrix, values, M in (("W", G.w, G.weight_matrix), ("|W|", np.abs(G.w), np.abs(G.weight_matrix)),
                              ("P_sym", _transition_edge_values(G), transition_matrix(G))):  # P_sym is similar to P
        full, got = _spectrum(G, values), _extremes(G, matrix, ends)
        assert np.array_equal(got, full.eigenvalues[columns])
        assert all(G._spectral_memo[matrix][e][1] is None for e in ends)  # a dense solve keeps no Ritz data
        assert np.max(np.abs(full.eigenvalues - nonsymmetric_eigenvalues(M))) <= 1e-10


@given(connected_signed_graphs())
def test_degrees_match_the_dense_row_sums(G):
    expected = np.abs(G.weight_matrix).sum(axis=1)
    assert np.all(np.abs(G.degrees - expected) <= 1e-12 * expected)
