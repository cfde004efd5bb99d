"""Property tests for the structural invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

import signednet as sn
from signednet.balance import Bipartition

from helpers import nonsymmetric_eigenvalues


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
    P = sn.transition_matrix(G)
    assert np.allclose(np.abs(P).sum(axis=1), 1.0)


@given(connected_signed_graphs())
def test_signed_laplacian_positive_semidefinite(G):
    assert np.linalg.eigvalsh(sn.signed_laplacian(G)).min() >= -1e-10


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
    p = nonsymmetric_eigenvalues(sn.transition_matrix(G))
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
