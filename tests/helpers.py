"""Independent oracles and corpus builders shared across test modules.

These deliberately avoid the code paths they are used to check: balance is
decided by enumerating simple cycles, frustration by exhausting edge subsets
or all node signings, and spectra come from numpy's nonsymmetric solver.
"""

import itertools

import numpy as np

from signednet import SignedGraph, build_graph
from signednet.balance import apply_flip_set, classify
from signednet.verify import cycle_sign_oracle, enumerate_simple_cycles, random_connected_corpus

__all__ = [
    "cycle_sign_oracle",
    "enumerate_simple_cycles",
    "random_connected_corpus",
    "frustration_by_edge_subsets",
    "frustration_by_node_signings",
    "nonsymmetric_eigenvalues",
    "random_symmetric_matrix",
]


def frustration_by_edge_subsets(G: SignedGraph, target: str) -> int:
    """Minimum number of edge-sign flips reaching the target structure,
    exhaustively over all edge subsets.  Exponential: keep |E| small."""
    for size in range(G.num_edges + 1):
        for subset in itertools.combinations(G.edges, size):
            flipped = apply_flip_set(G, [(e.i, e.j) for e in subset])
            c = classify(flipped)
            if target == "balanced" and c.is_balanced:
                return size
            if target == "antibalanced" and c.is_antibalanced:
                return size
    raise AssertionError("unreachable: flipping everything reaches some structure")


def frustration_by_node_signings(G: SignedGraph, target: str) -> int:
    """Fewest edges violating the target over all 2^(n-1) node signings with
    s_0 = +1, scanned in one vectorised pass.  Exponential: keep n small.

    Signing k sets s_i = -1 iff bit i - 1 of k is set (node 0 has no bit).
    """
    n = G.n
    ks = np.arange(1 << max(n - 1, 0), dtype=np.uint32)
    counts = np.zeros(ks.shape[0], dtype=np.uint16)
    for i, j, w in G.edges:
        if i == 0:
            differs = (ks >> np.uint32(j - 1)) & 1
        else:
            differs = ((ks >> np.uint32(i - 1)) ^ (ks >> np.uint32(j - 1))) & 1
        bad_when_same = (w > 0) == (target == "antibalanced")
        counts += (differs == 0).astype(np.uint16) if bad_when_same else (differs == 1).astype(np.uint16)
    return int(counts.min())


def nonsymmetric_eigenvalues(M: np.ndarray) -> np.ndarray:
    """Descending real parts from the general (nonsymmetric) solver."""
    vals = np.linalg.eigvals(M)
    assert np.max(np.abs(vals.imag)) < 1e-9
    return np.sort(vals.real)[::-1]


def random_symmetric_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    M = rng.standard_normal((n, n))
    return (M + M.T) / 2.0
