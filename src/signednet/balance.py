"""Exact combinatorial balance classification and switching machinery.

A connected signed graph is *balanced* when a bipartition exists with every
positive edge inside a part and every negative edge across parts, and
*antibalanced* when the sign-negated graph is balanced.  Graphs satisfying
both are exactly the trees and the balanced bipartite graphs; everything else
is *strictly unbalanced*.  The classifier reads one cached breadth-first
spanning tree from node 0 (:class:`~signednet.core.SignedGraph`): the
tree-path sign products are the balance candidate, those times the tree
parity ``(-1)^depth`` the antibalance candidate and the parity alone the
bipartite colouring.  A candidate certifies its structure exactly when
every edge agrees with it (Harary 1953).  The graph caches which of the two
candidates do (``SignedGraph._structure``, one array pass over the edge
endpoints and signs), and :func:`classify` maps that verdict through one
table, so it is exact and no negated copy of the graph is built.

Two spectral consequences of balance are checked here, on the solves of
:mod:`signednet.spectral`: the spectrum correspondence of W and |W|, and the
shift of the top of P_sym when edges of a balanced graph flip sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Literal, Optional

import numpy as np

from .core import Edge, SignedGraph
from .errors import EdgeNotPresentError, NotBalancedError, TooLargeError, WrongVerdictError
from .spectral import _extremes, _spectrum, _transition_end_vector

#: eigenvector entries below this magnitude are assigned to the +1 side when a
#: sign pattern is read off a vector (deterministic tie rule)
SIGN_READOFF_TOLERANCE = 1e-9

EXACT_FRUSTRATION_EDGE_CAP = 25

#: adjacent eigenvalues closer than this are treated as one degenerate group
DEGENERACY_GAP = 1e-8


@dataclass(frozen=True)
class Bipartition:
    """Node bipartition encoded as a sign vector s in {+1, -1}^n.

    ``s[i] == +1`` places node i in the first part.  The diagonal matrix
    ``diag(s)`` is the switching matrix associated with the bipartition.
    """

    s: np.ndarray

    def __post_init__(self):
        s = np.array(self.s, dtype=np.int8, copy=True)
        if s.ndim != 1 or s.size == 0 or not np.all(np.abs(s) == 1):
            raise ValueError("bipartition sign vector must be 1-D with entries +/-1")
        s.flags.writeable = False
        object.__setattr__(self, "s", s)

    @property
    def n(self) -> int:
        return self.s.shape[0]


def sign_pattern(vector: np.ndarray) -> Bipartition:
    """Bipartition from the signs of a vector; near-zero entries go to +1."""
    v = np.asarray(vector, dtype=float)
    s = np.where(v < -SIGN_READOFF_TOLERANCE, -1, 1).astype(np.int8)
    return Bipartition(s)


class Verdict(Enum):
    BALANCED = "balanced"
    ANTIBALANCED = "antibalanced"
    BOTH = "both"
    STRICTLY_UNBALANCED = "strictly_unbalanced"


@dataclass(frozen=True)
class BalanceClassification:
    verdict: Verdict
    balanced_partition: Optional[Bipartition]
    antibalanced_partition: Optional[Bipartition]

    @property
    def is_balanced(self) -> bool:
        return self.balanced_partition is not None

    @property
    def is_antibalanced(self) -> bool:
        return self.antibalanced_partition is not None

    @property
    def certificate(self) -> Optional[Bipartition]:
        """The balance certificate, else the antibalance one (None if neither)."""
        return self.antibalanced_partition if self.balanced_partition is None else self.balanced_partition


def negate(G: SignedGraph) -> SignedGraph:
    """Same topology with every edge sign flipped."""
    return G._reweighted(-G.w)


def _target_signs(G: SignedGraph, target: FrustrationTarget) -> Optional[np.ndarray]:
    """The certificate signs of the target structure, read off the cached
    traversal with node 0 at +1, or None when the graph lacks the structure."""
    tree = G._traversal
    if target == "balanced":
        return tree.sign if G._structure.balanced else None
    return tree.sign * tree.parity if G._structure.antibalanced else None


#: the verdict of each ``SignedGraph._structure`` (balanced, antibalanced)
_VERDICTS = {(True, True): Verdict.BOTH, (True, False): Verdict.BALANCED,
             (False, True): Verdict.ANTIBALANCED, (False, False): Verdict.STRICTLY_UNBALANCED}


def classify(G: SignedGraph) -> BalanceClassification:
    """Exact balance/antibalance verdict with certificate bipartitions.

    Certificates are normalized so node 0 is in the first part (bipartitions
    are only defined up to global negation).
    """
    signs = _target_signs(G, "balanced"), _target_signs(G, "antibalanced")
    balanced, antibalanced = (None if s is None else Bipartition(s) for s in signs)
    return BalanceClassification(_VERDICTS[G._structure], balanced, antibalanced)


def switch(G: SignedGraph, b: Bipartition) -> SignedGraph:
    """Switching: conjugate W by diag(s), i.e. W'_ij = s_i s_j W_ij.

    An involution that preserves entrywise magnitudes, degrees and spectra.
    Switching a balanced graph by its certificate yields its unsigned
    counterpart; an antibalanced graph maps to the all-negative one.
    """
    if b.n != G.n:
        raise ValueError(f"bipartition covers {b.n} nodes, graph has {G.n}")
    return G._reweighted(b.s[G.i] * b.s[G.j] * G.w)


def bipartite_partition(G: SignedGraph) -> Optional[Bipartition]:
    """Proper 2-coloring of the underlying topology, or None if non-bipartite."""
    parity = G._traversal.parity
    return Bipartition(parity) if (parity[G.i] != parity[G.j]).all() else None


# ---------------------------------------------------------------------------
# frustration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrustrationReport:
    """Smallest (or heuristically small) edge set whose sign flip restores
    the target structure, plus the bipartition realizing it."""

    target: str
    flip_set: tuple[Edge, ...]
    flip_count: int
    flipped_weight: float
    exact: bool
    partition: Bipartition


FrustrationTarget = Literal["balanced", "antibalanced"]


def _violations(G: SignedGraph, s: np.ndarray, target: FrustrationTarget) -> np.ndarray:
    """Ids of the edges that the node signs ``s`` violate under the target, ascending."""
    return np.flatnonzero(s[G.i] * s[G.j] != (G.sign if target == "balanced" else -G.sign))


def _cost(G: SignedGraph, ks: np.ndarray) -> tuple[int, float]:
    """Count and total absolute weight of the edges ``ks``, summed in their order."""
    return len(ks), float(sum(np.abs(G.w[ks]).tolist()))


def _spectral_signs(G: SignedGraph, target: FrustrationTarget) -> np.ndarray:
    """The sign pattern, node 0 at +1, of P_sym's top eigenvector (balanced)
    or its bottom one (antibalanced)."""
    s = sign_pattern(_transition_end_vector(G, 1 if target == "balanced" else -1)).s
    return s if s[0] > 0 else -s


def frustration(G: SignedGraph, target: FrustrationTarget = "balanced",
                mode: Literal["exact", "heuristic"] = "exact") -> FrustrationReport:
    """Edges disturbing the balanced (or antibalanced) structure.

    Exact mode finds a bipartition (node-sign assignment with node 0 at +1)
    violating the fewest edges under the target condition; that minimum
    equals the least number of edge-sign flips reaching the target.  It peels
    leaves and contracts degree-2 chains first, then scans every signing of
    the remaining kernel, whose nodes all have degree >= 3 (at most 16 nodes
    under the 25-edge cap).  A violated chain is flipped at its lightest edge.
    Capped at 25 edges.

    Heuristic mode reads a bipartition off the top eigenvector of P_sym =
    D^-1/2 W D^-1/2 (balanced) or its bottom one (antibalanced), the end
    that ``spectral._distances`` already solves for ``d_b`` (``d_a``) and
    keeps per graph, so after it only that end's vector is computed, from
    the kept end (``spectral._transition_end_vector``).  Unlike
    the top of W, which localises on high-degree nodes, it is normalised by
    degree (Kunegis et al., SDM 2010).  It reports the better of that
    bipartition and the trivial all +1 one, count first and then weight,
    with node 0 at +1, so the violation count is an upper bound never above
    the number of negative (positive) edges.

    A graph that already has the target structure needs neither: in either
    mode it gets its :func:`classify` certificate (node 0 at +1) with no
    flips, and ``exact`` still reports the mode.  That is also the answer
    the eigenvector gives there (up to global sign), since it is the
    certificate times the Perron vector of |P_sym|.  The mode and the
    25-edge cap of exact mode are checked first, whatever the graph.

    Both the edge count and the total flipped absolute weight are reported.
    """
    if target not in ("balanced", "antibalanced"):
        raise ValueError(f"unknown target {target!r}")
    if mode not in ("exact", "heuristic"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact" and G.num_edges > EXACT_FRUSTRATION_EDGE_CAP:
        raise TooLargeError(
            f"exact frustration is capped at {EXACT_FRUSTRATION_EDGE_CAP} edges; "
            f"graph has {G.num_edges} (use mode='heuristic')"
        )
    s = _target_signs(G, target)  # a certificate violates no edge
    if s is None and mode == "exact":
        s = _exact_min_violation_signs(G, target)
    # heuristic mode weighs the spectral signing against the trivial all +1 one, keeping the first on a tie
    candidates = [s] if s is not None else [_spectral_signs(G, target), np.ones(G.n, dtype=np.int8)]
    flips = [_violations(G, c, target) for c in candidates]
    costs = [_cost(G, ks) for ks in flips]
    best = costs.index(min(costs))
    s, ks, (flip_count, flipped_weight) = candidates[best], flips[best], costs[best]
    return FrustrationReport(
        target=target,
        flip_set=tuple(map(Edge, G.i[ks].tolist(), G.j[ks].tolist(), G.w[ks].tolist())),
        flip_count=flip_count,
        flipped_weight=flipped_weight,
        exact=mode == "exact",
        partition=Bipartition(s),
    )


def _exact_min_violation_signs(G: SignedGraph, target: FrustrationTarget) -> np.ndarray:
    """Node signs with s[0] = +1 that violate the fewest edges, by kernel reduction.

    Edge k is satisfied when s_i s_j = sigma_k, with sigma_k = sign(w_k) for
    the balanced target and -sign(w_k) for the antibalanced one.

    1. Leaves are peeled repeatedly; a leaf can always satisfy its one edge.
    2. The remaining 2-core is cut at its nodes of degree >= 3 (the kernel
       nodes) into chains of degree-2 nodes.  A chain costs one violation
       exactly when the product of its sigmas disagrees with its end signs,
       so it becomes one kernel edge carrying that product.  Kernel edges may
       be parallel; a cycle through a single kernel node is a self-loop, and
       a core that is one plain cycle keeps its smallest node as anchor.
    3. Every kernel signing with the first kernel node at +1 is scanned at
       once; np.argmin's first-minimum rule picks the lexicographically
       smallest one (+1 < -1, last kernel node most significant) on ties.
       Each kernel node has degree >= 3, so 25 edges leave at most 16 kernel
       nodes and 2^15 rows.
    4. Signs are propagated back along the chains, and then out to the leaves
       in reverse peeling order.  A violated chain breaks at its lightest
       edge, ties going to the largest (i, j).
    """
    n = G.n
    want = 1 if target == "balanced" else -1
    sigma = (want * G.sign).tolist()
    nbr, eid, start = (a.tolist() for a in G._csr)
    nbrs, eids = [nbr[a:b] for a, b in zip(start, start[1:])], [eid[a:b] for a, b in zip(start, start[1:])]
    deg = [len(a) for a in nbrs]
    peeled: list[tuple[int, int, int]] = []  # (leaf, neighbour, edge)
    stack = [v for v in range(n) if deg[v] == 1]
    while stack:
        v = stack.pop()
        if deg[v] != 1:  # peeled already, or its last neighbour was peeled first
            continue
        u, k = next((u, k) for u, k in zip(nbrs[v], eids[v]) if deg[u] >= 0)
        peeled.append((v, u, k))
        deg[v] = -1
        deg[u] -= 1
        if deg[u] == 1:
            stack.append(u)
    core = [v for v in range(n) if deg[v] >= 0]
    kernel = [v for v in core if deg[v] != 2] or core[:1]
    index = {v: t for t, v in enumerate(kernel)}

    chains: list[tuple[list[int], list[int], int]] = []  # (nodes, edges, sigma product)
    used = [False] * G.num_edges
    for a in kernel:
        for u, k in zip(nbrs[a], eids[a]):
            if used[k] or deg[u] < 0:
                continue
            nodes, ks, product = [a], [], 1
            while True:
                used[k] = True
                nodes.append(u)
                ks.append(k)
                product *= sigma[k]
                if u in index:
                    break
                u, k = next((x, kk) for x, kk in zip(nbrs[u], eids[u]) if deg[x] >= 0 and not used[kk])
            chains.append((nodes, ks, product))

    rows = np.arange(1 << (len(kernel) - 1), dtype=np.uint32)
    bits = [np.zeros_like(rows)] + [(rows >> np.uint32(t)) & 1 for t in range(len(kernel) - 1)]
    counts = np.zeros(rows.shape[0], dtype=np.uint16)
    for nodes, _, product in chains:
        differs = bits[index[nodes[0]]] ^ bits[index[nodes[-1]]]
        counts += (differs == (product > 0)).astype(np.uint16)
    best = int(np.argmin(counts))

    s = np.zeros(n, dtype=np.int8)
    s[kernel] = [1] + [-1 if (best >> t) & 1 else 1 for t in range(len(kernel) - 1)]
    for nodes, ks, product in chains:
        last = len(ks) - 1
        if s[nodes[0]] * s[nodes[-1]] == product:
            cut = last + 1
        else:
            cut = max(range(len(ks)), key=lambda t: (-abs(G.w[ks[t]]), G.i[ks[t]], G.j[ks[t]]))
        for t in range(min(cut, last)):
            s[nodes[t + 1]] = sigma[ks[t]] * s[nodes[t]]
        for t in range(last, cut, -1):
            s[nodes[t]] = sigma[ks[t]] * s[nodes[t + 1]]
    for v, u, k in reversed(peeled):
        s[v] = sigma[k] * s[u]
    return s if s[0] > 0 else -s


def _flipped(G: SignedGraph, flip_set) -> tuple[SignedGraph, np.ndarray]:
    """``G`` with each edge ``(i, j, ...)`` of ``flip_set`` sign-flipped once, and the edge
    indices in flip-set order; a pair that is no edge is an :class:`EdgeNotPresentError`."""
    pairs = [(e[0], e[1]) for e in flip_set]
    ks = G._edge_ids([a for a, _ in pairs], [b for _, b in pairs])
    if (ks < 0).any():
        a, b = pairs[int(np.argmax(ks < 0))]
        raise EdgeNotPresentError(f"edge ({min(a, b)}, {max(a, b)}) is not present in the graph")
    w = G.w.copy()
    w[ks] = -G.w[ks]
    return G._reweighted(w), ks


def apply_flip_set(G: SignedGraph, flip_set) -> SignedGraph:
    """Flip the sign of the given edges (present edges only)."""
    return _flipped(G, flip_set)[0]


# ---------------------------------------------------------------------------
# spectral consequences of balance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralTheoremReport:
    """Deviations between the signed spectrum and its unsigned counterpart.

    For a balanced graph the spectra must agree and eigenspaces must match
    after switching; for an antibalanced graph the spectrum is the reversed
    negation.  ``subspace_max_dev`` compares spectral projectors groupwise so
    degenerate eigenspaces are handled; ``leading_magnitude_dev`` compares the
    entrywise magnitudes of the spectral-radius eigenvectors.
    """

    verdict: Verdict
    eigenvalue_max_dev: float
    subspace_max_dev: float
    leading_magnitude_dev: float


def verify_spectral_theorem(G: SignedGraph, c: BalanceClassification) -> SpectralTheoremReport:
    """Check the balanced/antibalanced eigenstructure correspondence between
    the full spectra of W and |W|.

    Requires a Balanced, Antibalanced or Both verdict; for Both the balanced
    correspondence is checked (the antibalanced one follows by negation).
    """
    if c.verdict == Verdict.STRICTLY_UNBALANCED:
        raise WrongVerdictError("spectrum correspondence only holds for balanced or antibalanced graphs")
    signed = _spectrum(G, G.w, vectors=True)
    unsigned = _spectrum(G, np.abs(G.w), vectors=True)

    s = c.certificate.s.astype(float)
    # signed eigenpair order[k] matches unsigned eigenpair k, with its eigenvalue negated if antibalanced
    order = np.arange(G.n) if c.is_balanced else np.arange(G.n)[::-1]
    negation = 1.0 if c.is_balanced else -1.0
    values_dev = float(np.max(np.abs(signed.eigenvalues[order] - negation * unsigned.eigenvalues)))

    groups = np.split(np.arange(G.n), np.flatnonzero(np.abs(np.diff(unsigned.eigenvalues)) >= DEGENERACY_GAP) + 1)
    subspace_dev = 0.0
    for group in groups:
        V, U = signed.eigenvectors[:, order[group]], unsigned.eigenvectors[:, group]
        subspace_dev = max(subspace_dev, float(np.max(np.abs(V @ V.T - (U @ U.T) * np.outer(s, s)))))

    lead_signed, lead_unsigned = signed.eigenvectors[:, order[0]], unsigned.eigenvectors[:, 0]
    leading_dev = float(np.max(np.abs(np.abs(lead_signed) - np.abs(lead_unsigned))))
    return SpectralTheoremReport(
        verdict=c.verdict,
        eigenvalue_max_dev=values_dev,
        subspace_max_dev=subspace_dev,
        leading_magnitude_dev=leading_dev,
    )


@dataclass(frozen=True)
class PerturbationEstimate:
    """First-order eigenvalue shifts caused by flipping a set of edge signs.

    ``delta_max`` is the predicted shift of the largest transition eigenvalue
    away from 1 (so the induced d_b is ``-delta_max``); ``delta_min`` is the
    antibalanced dual obtained on the negated graph.  ``realized_shift_max``
    is the exact shift measured on the flipped graph.
    """

    delta_max: float
    delta_min: float
    flipped_weight: float
    m: float
    realized_shift_max: float


def perturbation_estimate(G_b: SignedGraph, flip_set) -> PerturbationEstimate:
    """First-order estimate -2 * sum |W_ij| / m for flipping ``flip_set``.

    ``G_b`` must be balanced; every flip edge must exist.  ``m`` is half the
    total degree, i.e. the total absolute edge weight.  The realized shift
    reads the top end of the flipped graph's P_sym from
    ``spectral._extremes``, so from ``spectral.LANCZOS_MIN_NODES`` nodes on
    no n x n matrix is built.
    """
    if not G_b._structure.balanced:
        raise NotBalancedError("perturbation baseline must be a balanced graph")
    flipped, ks = _flipped(G_b, flip_set)
    flipped_weight = _cost(G_b, ks)[1]  # in flip-set order, repeats included
    m = float(G_b.degrees.sum()) / 2.0
    delta = -2.0 * flipped_weight / m
    realized = _extremes(flipped, "P_sym", (1,))[0] - 1.0
    return PerturbationEstimate(
        delta_max=delta,
        delta_min=-delta,
        flipped_weight=flipped_weight,
        m=m,
        realized_shift_max=realized,
    )
