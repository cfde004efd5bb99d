"""Signed graph representation and the matrices derived from it.

A :class:`SignedGraph` is an undirected, connected, weighted graph whose edge
weights carry a sign.  All matrix constructions used elsewhere in the package
(adjacency, Laplacians, transition matrices and their doubled two-species
variants) are built here as dense numpy arrays; the intended scale is a few
thousand nodes at most.  :mod:`signednet.spectral` solves them: the balance
measures and spectral radii take eigenvalues only, and eigenvectors are
computed only where a caller reads them (heuristic frustration, the spectral
theorem check, eigenvector bipartitions, right eigenvectors of P and the
rank-1 approximation).  Edge weights must be finite and nonzero.

Each graph caches its edge arrays, its adjacency and one breadth-first
spanning forest from node 0, which decides connectivity and components here
and balance, antibalance and bipartiteness in :mod:`signednet.balance`.

State convention: dynamics elsewhere use row vectors and left multiplication,
``x(t+1) = x(t) @ M``.  The matrices returned here are oriented for that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    DisconnectedError,
    DuplicateEdgeError,
    IdOutOfRangeError,
    NonFiniteWeightError,
    SelfLoopError,
    ZeroWeightError,
)

#: weights smaller than this in magnitude are rejected so sign(w) stays defined
WEIGHT_TOLERANCE = 1e-15


class Edge(NamedTuple):
    i: int
    j: int
    w: float


class _EdgeArrays(NamedTuple):
    """Edge endpoints and signs (+1/-1, int8), in edge order."""

    i: np.ndarray
    j: np.ndarray
    sign: np.ndarray


class _Traversal(NamedTuple):
    """Breadth-first forest rooted at node 0, then at each smallest unreached
    node: per node its component (numbered by smallest node), tree depth and
    tree-path sign product (int8)."""

    component: np.ndarray
    depth: np.ndarray
    sign: np.ndarray


@dataclass(frozen=True)
class SignedGraph:
    """Undirected connected signed graph with 0-based contiguous node ids.

    Instances are immutable; every derived matrix is cached on first access
    and safe to share across threads.  Use :func:`build_graph` to construct a
    validated instance -- the constructor itself does not validate.
    """

    n: int
    edges: tuple[Edge, ...]
    labels: Optional[tuple[str, ...]] = None

    @cached_property
    def weight_matrix(self) -> np.ndarray:
        """Symmetric signed weighted adjacency matrix W."""
        W = np.zeros((self.n, self.n))
        for i, j, w in self.edges:
            W[i, j] = w
            W[j, i] = w
        W.flags.writeable = False
        return W

    @cached_property
    def degrees(self) -> np.ndarray:
        """Absolute-weight degree of every node, d_i = sum_j |W_ij|."""
        d = np.abs(self.weight_matrix).sum(axis=1)
        d.flags.writeable = False
        return d

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {(e.i, e.j): k for k, e in enumerate(self.edges)}

    @cached_property
    def _edge_arrays(self) -> _EdgeArrays:
        i, j, w = zip(*self.edges) if self.edges else ((), (), ())
        sign = np.where(np.array(w) > 0, 1, -1).astype(np.int8)
        return _EdgeArrays(np.array(i, dtype=np.intp), np.array(j, dtype=np.intp), sign)

    @cached_property
    def _adjacency(self) -> tuple[list[list[int]], list[list[int]]]:
        """Neighbours of every node and the indices of the edges to them, in edge order."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        eids: list[list[int]] = [[] for _ in range(self.n)]
        for k, (i, j, _) in enumerate(self.edges):
            nbrs[i].append(j)
            eids[i].append(k)
            nbrs[j].append(i)
            eids[j].append(k)
        return nbrs, eids

    @cached_property
    def _traversal(self) -> _Traversal:
        (nbrs, eids), edges = self._adjacency, self.edges
        comp, depth, sign = [-1] * self.n, [0] * self.n, [1] * self.n
        c = -1
        for root in range(self.n):
            if comp[root] >= 0:
                continue
            c += 1
            comp[root] = c
            queue = [root]
            for u in queue:  # the loop also visits the nodes appended below
                for v, k in zip(nbrs[u], eids[u]):
                    if comp[v] < 0:
                        comp[v] = c
                        depth[v] = depth[u] + 1
                        sign[v] = sign[u] if edges[k].w > 0 else -sign[u]
                        queue.append(v)
        return _Traversal(np.array(comp, dtype=np.intp), np.array(depth, dtype=np.intp),
                          np.array(sign, dtype=np.int8))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edge_index

    def weight(self, i: int, j: int) -> float:
        return self.edges[self.edge_index[(min(i, j), max(i, j))]].w

    def with_weights(self, new_weights: Sequence[float]) -> "SignedGraph":
        """Same topology with replaced weights (still validated for zeros)."""
        if len(new_weights) != len(self.edges):
            raise ValueError("expected one weight per edge")
        edges = [Edge(e.i, e.j, float(w)) for e, w in zip(self.edges, new_weights)]
        return build_graph(self.n, edges, labels=self.labels)


def _normalize_edges(n: int, edges: Iterable[tuple]) -> list[Edge]:
    out: list[Edge] = []
    seen: set[tuple[int, int]] = set()
    for raw in edges:
        i, j, w = int(raw[0]), int(raw[1]), float(raw[2])
        if not (0 <= i < n and 0 <= j < n):
            raise IdOutOfRangeError(f"edge ({i}, {j}) uses a node id outside [0, {n})")
        if i == j:
            raise SelfLoopError(f"self-loop at node {i} is not allowed")
        if not math.isfinite(w):
            raise NonFiniteWeightError(f"edge ({i}, {j}) has non-finite weight {w!r}")
        if abs(w) < WEIGHT_TOLERANCE:
            raise ZeroWeightError(f"edge ({i}, {j}) has weight {w!r}; |w| must exceed {WEIGHT_TOLERANCE}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise DuplicateEdgeError(f"unordered pair ({key[0]}, {key[1]}) appears more than once")
        seen.add(key)
        out.append(Edge(key[0], key[1], w))
    return out


def build_graph(n: int, edges: Iterable[tuple], labels: Optional[Sequence[str]] = None) -> SignedGraph:
    """Validate and build a connected signed graph.

    ``edges`` is any iterable of ``(i, j, w)`` triples with 0-based node ids.
    Raises a :class:`~signednet.errors.GraphConstructionError` subclass naming
    the offending edge or node on invalid input, including when the graph is
    disconnected (use :func:`components` to split such input first).
    """
    if n < 1:
        raise IdOutOfRangeError(f"node count must be positive, got {n}")
    G = SignedGraph(n=n, edges=tuple(_normalize_edges(n, edges)),
                    labels=None if labels is None else tuple(str(x) for x in labels))
    unreached = np.flatnonzero(G._traversal.component)
    if unreached.size:
        raise DisconnectedError(f"graph is disconnected: node {unreached[0]} is not reachable from node 0")
    if G.labels is not None and len(G.labels) != n:
        raise IdOutOfRangeError(f"expected {n} labels, got {len(G.labels)}")
    return G


def components(n: int, edges: Iterable[tuple]) -> list[tuple[SignedGraph, list[int]]]:
    """Split possibly-disconnected input into connected signed graphs.

    Returns one ``(graph, original_ids)`` pair per connected component, where
    ``original_ids[k]`` is the input id of the component's node ``k``.
    Components are ordered by their smallest original node id.
    """
    whole = SignedGraph(n=n, edges=tuple(_normalize_edges(n, edges)))
    comp = whole._traversal.component.tolist()
    members: list[list[int]] = [[] for _ in range(max(comp, default=-1) + 1)]
    remap = [0] * n
    for v, c in enumerate(comp):
        remap[v] = len(members[c])
        members[c].append(v)
    sub: list[list[tuple[int, int, float]]] = [[] for _ in members]
    for i, j, w in whole.edges:
        sub[comp[i]].append((remap[i], remap[j], w))
    return [(build_graph(len(ids), part), ids) for ids, part in zip(members, sub)]


# ---------------------------------------------------------------------------
# degree and matrix constructions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegreeVector:
    """Absolute-weight degrees plus their total (twice the total edge weight)."""

    d: np.ndarray
    total: float


def degree_vector(G: SignedGraph) -> DegreeVector:
    d = G.degrees
    return DegreeVector(d=d, total=float(d.sum()))


def unsigned_counterpart(G: SignedGraph) -> SignedGraph:
    """Same topology with all weights replaced by their absolute values."""
    return SignedGraph(
        n=G.n,
        edges=tuple(Edge(i, j, abs(w)) for i, j, w in G.edges),
        labels=G.labels,
    )


def sign_adjacency(G: SignedGraph) -> np.ndarray:
    """Entrywise sign of the weight matrix, entries in {-1, 0, 1}."""
    return np.sign(G.weight_matrix)


def signed_laplacian(G: SignedGraph) -> np.ndarray:
    """L = D - W with D the diagonal of absolute-weight degrees."""
    return np.diag(G.degrees) - G.weight_matrix


def _positive_degrees(G: SignedGraph) -> np.ndarray:
    d = G.degrees
    if np.any(d <= 0):
        isolated = int(np.argmin(d))
        raise ZeroWeightError(f"node {isolated} has zero degree; transition matrices are undefined")
    return d


def transition_matrix(G: SignedGraph) -> np.ndarray:
    """Signed transition matrix P = D^-1 W; rows sum to 1 in absolute value."""
    d = _positive_degrees(G)
    return G.weight_matrix / d[:, None]


def random_walk_laplacian(G: SignedGraph) -> np.ndarray:
    """Signed random-walk Laplacian L_rw = I - D^-1 W."""
    return np.eye(G.n) - transition_matrix(G)


def symmetrized_transition(G: SignedGraph) -> np.ndarray:
    """P_sym = D^-1/2 W D^-1/2, similar to P and symmetric.

    Shares the spectrum of P; an eigenvector v of P_sym maps to the
    eigenvector D^-1/2 v of P at the same eigenvalue.
    """
    d = _positive_degrees(G)
    inv_sqrt = 1.0 / np.sqrt(d)
    M = G.weight_matrix * inv_sqrt[:, None] * inv_sqrt[None, :]
    return (M + M.T) / 2.0


def positive_negative_split(G: SignedGraph) -> tuple[np.ndarray, np.ndarray]:
    """W = W+ - W- with both parts entrywise nonnegative, disjoint supports."""
    W = G.weight_matrix
    return np.where(W > 0, W, 0.0), np.where(W < 0, -W, 0.0)


def doubled_adjacency(G: SignedGraph) -> np.ndarray:
    """2n x 2n block matrix [[W+, W-], [W-, W+]] of the two-species walk."""
    Wp, Wm = positive_negative_split(G)
    return np.block([[Wp, Wm], [Wm, Wp]])


def doubled_transition(G: SignedGraph) -> np.ndarray:
    """Row-stochastic transition of the doubled walk, D2^-1 W2.

    The difference of its two diagonal/off-diagonal block pairs reproduces the
    signed transition matrix P, the sum reproduces the unsigned one.
    """
    d = _positive_degrees(G)
    d2 = np.concatenate([d, d])
    return doubled_adjacency(G) / d2[:, None]
