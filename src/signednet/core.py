"""Signed graph representation and the matrices derived from it.

A :class:`SignedGraph` is an undirected, connected, weighted graph whose edge
weights carry a sign.  It stores its edges as read-only arrays in input
order: endpoints ``i < j`` and weights ``w``.  All else is cached on first
access: edge signs, the dense weight matrix, the ``edges`` tuple view, one
CSR adjacency, decoded (each entry's neighbour and edge, each node's run of
ascending neighbours, which :meth:`SignedGraph._edge_ids` binary-searches),
which answers every neighbourhood question and carries every matrix product,
one breadth-first spanning forest from node 0 over it, which decides
connectivity and components here and bipartiteness in
:mod:`signednet.balance`, and the structural verdict read off that forest
(``_structure``: whether its balance and its antibalance candidate hold on
every edge).  ``balance.classify`` maps the verdict through one table, and
:mod:`signednet.spectral` and ``balance.frustration`` read it to skip every
solve and search whose answer it fixes.  The graph also keeps each spectrum
end that ``spectral._extremes`` solves on it (``_spectral_memo``), by the
name of its matrix ("W", "|W|" or "P_sym") and its side (1 the top, -1 the
bottom), as plain data that refers to nothing holding the graph: whichever
caller names an end first solves it for every later one.  Weights must be
finite and nonzero.  Validation and the CSR share one sort, and reweighted
graphs share the CSR.  A connected graph has n <= m + 1, and
:func:`build_graph` validates and searches a larger n on node 0 and the ids
in use alone, so a far node id fails at once instead of allocating by id.

A graph matrix is one value per edge at (i_k, j_k) and (j_k, i_k): ``w`` for
W, ``abs(w)`` for |W| and :func:`_transition_edge_values` for P_sym.  Every
product with one is :meth:`SignedGraph._operator` on the CSR, the only edge
layout besides the input arrays (the values gathered into CSR order once,
then one ``np.add.reduceat`` over the runs per product): the degrees, every
simulator step in :mod:`signednet.dynamics` and every Lanczos matvec in
:mod:`signednet.spectral`, none building an n x n matrix.  Every dense one
(``weight_matrix`` and the full spectra of ``spectral._spectrum``) is its
twin :meth:`SignedGraph._matrix`.

State convention: dynamics use row vectors and left multiplication,
``x(t+1) = x(t) @ M``; the operator is oriented for that.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    DisconnectedError,
    DuplicateEdgeError,
    GraphConstructionError,
    IdOutOfRangeError,
    NonFiniteWeightError,
    SelfLoopError,
    ZeroWeightError,
)

#: weights smaller than this in magnitude are rejected so sign(w) stays defined
WEIGHT_TOLERANCE = 1e-15

_INT64 = np.iinfo(np.int64)
#: the most nodes whose pair keys lo * n + hi, at most n * n - 1, fit in int64
_KEY_MAX_NODES = math.isqrt(_INT64.max)


class Edge(NamedTuple):
    i: int
    j: int
    w: float


class _Traversal(NamedTuple):
    """Breadth-first forest rooted at node 0, then at each smallest unreached
    node, visiting each node's neighbours in ascending id: per node its
    component (numbered by smallest node), tree parity (+1 at an even depth,
    -1 at an odd one) and tree-path sign product, both int8."""

    component: np.ndarray
    parity: np.ndarray
    sign: np.ndarray


class _Structure(NamedTuple):
    """Whether each candidate of the traversal certifies its structure:
    ``balanced`` when every edge agrees with the tree-path signs,
    ``antibalanced`` when every edge of the negated graph agrees with those
    signs times the tree parity.  Both hold on the "both" verdict, neither
    on a strictly unbalanced graph."""

    balanced: bool
    antibalanced: bool


class _Neighbours(NamedTuple):
    """CSR adjacency over both edge orientations, decoded: entries
    ``start[v]:start[v + 1]`` are node v's, in ascending neighbour id, and
    entry p holds the neighbour ``nbr[p]`` and the index ``edge[p]`` of the
    edge joining them."""

    nbr: np.ndarray
    edge: np.ndarray
    start: np.ndarray


@dataclass(frozen=True, eq=False)
class SignedGraph:
    """Undirected connected signed graph with 0-based contiguous node ids.

    Edge k joins ``i[k] < j[k]`` with weight ``w[k]``.  Instances are
    immutable; every derived array is cached on first access and safe to
    share across threads, and so is the structural verdict ``_structure``,
    read off the cached traversal in one pass over the edges.  Use
    :func:`build_graph` to construct a validated instance -- the
    constructor itself does not validate.
    """

    n: int
    i: np.ndarray
    j: np.ndarray
    w: np.ndarray
    labels: Optional[tuple[str, ...]] = None
    csr: InitVar[Optional[_Neighbours]] = None

    def __post_init__(self, csr):
        for a in (self.i, self.j, self.w):
            a.flags.writeable = False
        if csr is not None:  # the CSR of these edges, kept where the cached property keeps it
            self.__dict__["_csr"] = csr

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as ``(i, j, w)`` records of Python numbers, in edge order."""
        return tuple(map(Edge, self.i.tolist(), self.j.tolist(), self.w.tolist()))

    @cached_property
    def sign(self) -> np.ndarray:
        """Edge signs, +1/-1 as int8, in edge order."""
        return _readonly(np.where(self.w > 0, 1, -1).astype(np.int8))

    @cached_property
    def weight_matrix(self) -> np.ndarray:
        """Symmetric signed weighted adjacency matrix W."""
        return _readonly(self._matrix(self.w))

    @cached_property
    def degrees(self) -> np.ndarray:
        """Absolute-weight degree of every node, d = |W| 1 by :meth:`_operator`;
        one beyond the float range is a :class:`NonFiniteWeightError`."""
        with np.errstate(over="ignore"):  # an overflow is named below, not warned about
            d = self._operator(np.abs(self.w))(np.ones(self.n))
        if not np.isfinite(d).all():
            raise NonFiniteWeightError(f"the weighted degree of node {np.argmin(np.isfinite(d))} exceeds "
                                       f"the float range; rescale the weights")
        return _readonly(d)

    @cached_property
    def _csr(self) -> _Neighbours:
        return _adjacency(self.n, self.i, self.j)[0]

    @cached_property
    def _traversal(self) -> _Traversal:
        n, (nbr, edge, start) = self.n, self._csr
        nbr, nbr_sign, start = nbr.tolist(), self.sign[edge].tolist(), start.tolist()
        comp, parity, sign = [-1] * n, [1] * n, [1] * n
        c = -1
        for root in range(n):
            if comp[root] >= 0:
                continue
            c += 1
            comp[root] = c
            queue = [root]
            for u in queue:  # the loop also visits the nodes appended below
                for p in range(start[u], start[u + 1]):
                    v = nbr[p]
                    if comp[v] < 0:
                        comp[v] = c
                        parity[v] = -parity[u]
                        sign[v] = sign[u] * nbr_sign[p]
                        queue.append(v)
        return _Traversal(np.array(comp, dtype=np.intp), np.array(parity, dtype=np.int8),
                          np.array(sign, dtype=np.int8))

    @cached_property
    def _structure(self) -> _Structure:
        """The structural verdict, in one array pass over the edges: edge k
        agrees with the balance candidate t (tree-path signs) when
        t_i t_j sign_k = +1, and with the antibalance candidate t * parity
        when that product times parity_i parity_j is -1 (Harary 1953)."""
        tree = self._traversal
        agrees = tree.sign[self.i] * tree.sign[self.j] * self.sign
        return _Structure(bool((agrees == 1).all()),
                          bool((agrees == -tree.parity[self.i] * tree.parity[self.j]).all()))

    @cached_property
    def _spectral_memo(self) -> dict:
        """Spectrum ends solved on this graph, ``{matrix: {end: (value, Ritz
        data or None)}}``, filled by ``spectral._extremes`` and read by
        :mod:`signednet.spectral` alone.  It holds plain numbers and arrays,
        nothing that refers back to the graph, so the graph is freed by
        reference counting as soon as it is unreferenced."""
        return {}

    def _matrix(self, values: np.ndarray) -> np.ndarray:
        """The symmetric n x n matrix holding ``values[k]`` at (i_k, j_k) and
        (j_k, i_k) and zero elsewhere, built dense: the twin of :meth:`_operator`."""
        M = np.zeros((self.n, self.n))
        M[self.i, self.j] = values
        M[self.j, self.i] = values
        return M

    def _operator(self, values: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """``x -> x @ M`` for the symmetric n x n matrix M holding ``values[k]``
        at (i_k, j_k) and (j_k, i_k), never built: ``values`` in CSR order,
        gathered once, then one ``np.add.reduceat`` over the runs per product,
        so entry c is the first term of c's run plus the pairwise sum of the
        rest in ascending neighbour id, or 0 if c has no entry."""
        (nbr, edge, start), n = self._csr, self.n
        entries, heads = values[edge], start[:-1]
        if (heads < start[1:]).all():  # reduceat would read an empty run as the next run's first term
            return lambda x: np.add.reduceat(entries * x[nbr], heads)
        filled = np.flatnonzero(heads < start[1:])
        return lambda x: np.bincount(filled, np.add.reduceat(entries * x[nbr], heads[filled]), minlength=n)

    @property
    def num_edges(self) -> int:
        return len(self.w)

    def _edge_ids(self, a, b) -> np.ndarray:
        """Index of the edge joining ``a[t]`` and ``b[t]`` (either order), -1 where there is
        none: one vectorised binary search for ``b[t]`` in the CSR run of ``a[t]``, whose
        neighbours ascend, in O(q log d) for q pairs and largest degree d, building no keys."""
        a, b, (nbr, edge, start), n = _id_array(a), _id_array(b), self._csr, self.n
        valid = (a >= 0) & (a < n) & (b >= 0) & (b < n)
        a = np.where(valid, a, 0)
        lo = start[a]
        end = hi = np.where(valid, start[a + 1], lo)  # an out-of-range pair searches an empty run
        for _ in range(int((hi - lo).max(initial=0)).bit_length()):  # lo = first entry of the run not below b
            mid = (lo + hi) >> 1
            below = (lo < hi) & (nbr[np.minimum(mid, len(nbr) - 1)] < b)
            lo, hi = np.where(below, mid + 1, lo), np.where(below, hi, mid)  # mid = hi where lo = hi
        hit = lo < end
        hit[hit] = nbr[lo[hit]] == b[hit]
        ids = np.full(len(a), -1, dtype=np.int64)
        ids[hit] = edge[lo[hit]]
        return ids

    def _reweighted(self, w: np.ndarray) -> "SignedGraph":
        """Same topology, labels and CSR with the float array ``w`` as weights
        (not validated; the new graph makes ``w`` read-only)."""
        return SignedGraph(self.n, self.i, self.j, w, self.labels, self._csr)

    def with_weights(self, new_weights: Sequence[float]) -> "SignedGraph":
        """Same topology with replaced weights, each checked to be finite and nonzero."""
        if len(new_weights) != self.num_edges:
            raise ValueError("expected one weight per edge")
        w = np.array(new_weights, dtype=float)
        bad = _bad_weights(w)
        if bad.any():
            k = int(np.argmax(bad))
            raise _edge_error(self.n, self.i[k], self.j[k], w[k])
        return self._reweighted(w)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _id_array(ids) -> np.ndarray:
    """Node ids as int64; ids beyond the int64 range become -1, which no range check admits."""
    try:
        return np.array(ids, dtype=np.int64)
    except OverflowError:
        return np.array([v if _INT64.min <= v <= _INT64.max else -1 for v in map(int, ids)], dtype=np.int64)


def _edge_error(n: int, i, j, w) -> GraphConstructionError:
    """The error of one invalid edge, checked in the same order as :func:`_checked_graph`."""
    i, j, w = int(i), int(j), float(w)
    if not (0 <= i < n and 0 <= j < n):
        return IdOutOfRangeError(f"edge ({i}, {j}) uses a node id outside [0, {n})")
    if i == j:
        return SelfLoopError(f"self-loop at node {i} is not allowed")
    if not math.isfinite(w):
        return NonFiniteWeightError(f"edge ({i}, {j}) has non-finite weight {w!r}")
    if abs(w) < WEIGHT_TOLERANCE:
        return ZeroWeightError(f"edge ({i}, {j}) has weight {w!r}; |w| must exceed {WEIGHT_TOLERANCE}")
    return DuplicateEdgeError(f"unordered pair ({min(i, j)}, {max(i, j)}) appears more than once")


def _bad_weights(w: np.ndarray) -> np.ndarray:
    return ~np.isfinite(w) | (np.abs(w) < WEIGHT_TOLERANCE)


def _adjacency(n: int, a: np.ndarray, b: np.ndarray) -> tuple[_Neighbours, np.ndarray]:
    """The CSR adjacency of the edges (a_k, b_k) on n nodes, and which edges
    repeat the pair of an earlier one, from one argsort of the orientation
    keys row * n + col (n * n must fit in int64): entry p < m is edge p, entry
    p >= m edge p - m reversed, and the entries of a pair form runs of equal keys."""
    m = len(a)
    keys = np.concatenate([a, b])  # built in place: the 2m keys are the largest temporary
    keys *= n
    keys[:m] += b
    keys[m:] += a
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.concatenate(([True], keys[1:] != keys[:-1]))
    repeated = np.zeros(m, dtype=bool)
    if not starts.all():
        first = np.minimum.reduceat(order, np.flatnonzero(starts))[np.cumsum(starts) - 1]
        repeated[order % m] = order != first
    start = np.searchsorted(keys, np.arange(n + 1) * n)  # node v's run starts at its first key from v * n
    np.remainder(keys, max(n, 1), out=keys)  # each key, in place, to its neighbour
    np.remainder(order, max(m, 1), out=order)
    return _Neighbours(_readonly(keys), _readonly(order), _readonly(start)), repeated


def _checked_graph(n: int, i: Sequence, j: Sequence, w: Sequence, ids: Optional[np.ndarray] = None,
                   labels: Optional[tuple[str, ...]] = None) -> SignedGraph:
    """The graph of the edges ``(i, j, w)`` with its CSR, or the error an
    edge-by-edge pass would raise: the edges before the first that fails a mask
    check are valid, and :func:`_adjacency` flags their repeats.  Given ``ids``,
    ascending and holding every id in range, a node is its position in it."""
    lo, hi, weights = _id_array(i), _id_array(j), np.array(w, dtype=float)
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    bad = (lo < 0) | (hi >= n) | (lo == hi) | _bad_weights(weights)
    valid = int(np.argmax(bad)) if bad.any() else len(weights)
    if ids is not None:
        lo, hi = np.searchsorted(ids, lo), np.searchsorted(ids, hi)
    nodes = n if ids is None else len(ids)
    csr, bad[:valid] = _adjacency(nodes, lo[:valid], hi[:valid])
    if bad.any():
        k = int(np.argmax(bad))
        raise _edge_error(n, i[k], j[k], w[k])
    return SignedGraph(nodes, lo, hi, weights, labels, csr)


def _columns(edges: Iterable[tuple]) -> tuple[list, list, list]:
    """Ids and weights of ``(i, j, w)`` triples as three lists."""
    edges = list(edges)
    return [e[0] for e in edges], [e[1] for e in edges], [e[2] for e in edges]


def build_graph(n: int, edges: Iterable[tuple], labels: Optional[Sequence[str]] = None) -> SignedGraph:
    """Validate and build a connected signed graph.

    ``edges`` is any iterable of ``(i, j, w)`` triples with 0-based node ids.
    Raises a :class:`~signednet.errors.GraphConstructionError` subclass naming
    the offending edge or node on invalid input, including when the graph is
    disconnected (use :func:`components` to split such input first).
    """
    return _connected_graph(n, *_columns(edges), labels=labels)


def _connected_graph(n: int, i: Sequence, j: Sequence, w: Sequence,
                     labels: Optional[Sequence[str]] = None) -> SignedGraph:
    """:func:`build_graph` on ids and weights given as three sequences."""
    if n < 1:
        raise IdOutOfRangeError(f"node count must be positive, got {n}")
    if n > _INT64.max:
        raise IdOutOfRangeError(f"node ids must be below {_INT64.max}, got a node count of {n}")
    # too few edges to connect n nodes: validate and search node 0 and the ids in use only
    ids = np.unique(np.concatenate(([0], _id_array(i), _id_array(j)))) if n > len(w) + 1 else None
    G = _checked_graph(n, i, j, w, ids, None if labels is None else tuple(str(x) for x in labels))
    reached = (np.arange(n) if ids is None else ids)[G._traversal.component == 0]
    if len(reached) < n:
        gaps = np.flatnonzero(reached != np.arange(len(reached)))
        node = gaps[0] if gaps.size else len(reached)
        raise DisconnectedError(f"graph is disconnected: node {node} is not reachable from node 0")
    if G.labels is not None and len(G.labels) != n:
        raise IdOutOfRangeError(f"expected {n} labels, got {len(G.labels)}")
    return G


def components(n: int, edges: Iterable[tuple]) -> list[tuple[SignedGraph, list[int]]]:
    """Split possibly-disconnected input into connected signed graphs.

    Returns one ``(graph, original_ids)`` pair per connected component, where
    ``original_ids[k]`` is the input id of the component's node ``k``.
    Components are ordered by their smallest original node id.  Pair keys
    need n * n to fit in int64; a larger ``n`` raises :class:`IdOutOfRangeError`.
    """
    if n > _KEY_MAX_NODES:
        raise IdOutOfRangeError(f"components() splits at most {_KEY_MAX_NODES} nodes, got a node count of {n}")
    G = _checked_graph(n, *_columns(edges))
    lo, hi, w, comp = G.i, G.j, G.w, G._traversal.component
    sizes = np.bincount(comp)
    nodes = np.argsort(comp, kind="stable")  # grouped by component, ascending within each
    local = np.empty(n, dtype=np.int64)
    local[nodes] = np.arange(n) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    by_comp = np.argsort(comp[lo], kind="stable")  # edges grouped the same way, in input order
    edge_ends = np.cumsum(np.bincount(comp[lo], minlength=len(sizes)))
    return [(SignedGraph(len(ids), local[lo[ks]], local[hi[ks]], w[ks]), ids.tolist())
            for ids, ks in zip(np.split(nodes, np.cumsum(sizes))[:-1], np.split(by_comp, edge_ends))]


# ---------------------------------------------------------------------------
# degree and matrix constructions
# ---------------------------------------------------------------------------

def unsigned_counterpart(G: SignedGraph) -> SignedGraph:
    """Same topology with all weights replaced by their absolute values."""
    return G._reweighted(np.abs(G.w))


def _positive_degrees(G: SignedGraph) -> np.ndarray:
    d = G.degrees
    if np.any(d <= 0):
        isolated = int(np.argmin(d))
        raise ZeroWeightError(f"node {isolated} has zero degree; transition matrices are undefined")
    return d


def _transition_edge_values(G: SignedGraph) -> np.ndarray:
    """The entry of P_sym = D^-1/2 W D^-1/2 on every edge, w_k / sqrt(d_i d_j):
    P_sym is similar to P = D^-1 W, and its eigenvector v is D^1/2 times one of P."""
    inv_sqrt = 1.0 / np.sqrt(_positive_degrees(G))
    return G.w * inv_sqrt[G.i] * inv_sqrt[G.j]

