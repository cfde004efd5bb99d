"""Independent oracles and corpus builders shared across test modules.

These deliberately avoid the code paths they are used to check: balance is
decided by enumerating simple cycles or by a hand-written sign-propagating
traversal with its own adjacency lists, certificates are checked one edge at
a time, frustration by exhausting edge subsets or all node signings,
components by union-find, spectra come from numpy's
nonsymmetric solver, edge validation from one Python pass over the edges,
CSR adjacency from sorted (node, neighbour, edge) triples,
trajectory CSV from one ``csv.writer`` row per value (read back by a strict
``csv`` reader), edge-list text from one join over all lines, activation JSON from sorted node sets, ring lattices from Python loops over the circulant pairs,
and trajectories from one hand-written loop per simulator.

The dense matrices the package no longer builds live here as references:
the signed and random-walk Laplacians, the transition matrix P = D^-1 W, its
symmetric similarity P_sym and the doubled two-species matrices.  So do three oracles for results of the
paper that no CLI path or verification criterion needs: sign-conflicting
walks, the sign pattern of P^t and the rank-1 approximation of W^t.
"""

import csv
import itertools
import math
from typing import Iterable, Optional, TextIO

import numpy as np

from signednet import SignedGraph
from signednet.balance import Bipartition, Verdict, apply_flip_set, classify, negate
from signednet.core import WEIGHT_TOLERANCE, Edge, build_graph
from signednet.errors import (
    DuplicateEdgeError,
    IdOutOfRangeError,
    NonFiniteWeightError,
    SelfLoopError,
    ZeroWeightError,
)
from signednet.verify import cycle_sign_oracle, enumerate_simple_cycles, random_connected_corpus

__all__ = [
    "cycle_sign_oracle",
    "enumerate_simple_cycles",
    "random_connected_corpus",
    "propagate_signs",
    "certifies_balance",
    "same_partition",
    "components_by_union_find",
    "frustration_by_edge_subsets",
    "frustration_by_node_signings",
    "nonsymmetric_eigenvalues",
    "normalize_edges_reference",
    "csr_reference",
    "read_trajectory_csv",
    "write_trajectory_reference",
    "ring_lattice_reference",
    "signed_laplacian",
    "transition_matrix",
    "symmetrized_transition",
    "random_walk_laplacian",
    "doubled_adjacency",
    "doubled_transition",
    "sign_conflicting_walk",
    "transition_power_sign_pattern",
    "rank1_approximation",
    "edge_product_reference",
    "doubled_edges_reference",
    "iterate_reference",
    "iterate_edges_reference",
    "walk_until_stationary_reference",
    "geometric_thresholds_reference",
    "elt_reference",
    "elt_lattice_reference",
    "activation_sets_json_reference",
    "two_block_graph",
    "signed_path",
    "signed_ring",
]


def propagate_signs(G: SignedGraph) -> Optional[Bipartition]:
    """Balance certificate by a slow spanning traversal; None when some edge
    refutes it.  Apply it to ``negate(G)`` for the antibalance certificate.

    Forces s_j = sign(W_ij) * s_i along a BFS tree from node 0, visiting
    neighbours in increasing order, then checks the constraint edge by edge.
    """
    n = G.n
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for i, j, w in G.edges:
        adj[i].append((j, w))
        adj[j].append((i, w))
    for lst in adj:
        lst.sort()
    s = np.zeros(n, dtype=np.int8)
    s[0] = 1
    queue = [0]
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        for v, w in adj[u]:
            forced = s[u] * (1 if w > 0 else -1)
            if s[v] == 0:
                s[v] = forced
                queue.append(v)
    for i, j, w in G.edges:
        if s[i] * s[j] != (1 if w > 0 else -1):
            return None
    return Bipartition(s)


def certifies_balance(G: SignedGraph, b: Bipartition) -> bool:
    """True when b covers G's nodes and every edge satisfies s_i s_j = sign(w),
    checked one edge at a time."""
    return b.n == G.n and all(b.s[e.i] * b.s[e.j] == (1 if e.w > 0 else -1) for e in G.edges)


def same_partition(a: Bipartition, b: Bipartition) -> bool:
    """Whether two sign vectors split the nodes the same way (equal up to global sign)."""
    return bool(np.array_equal(a.s, b.s) or np.array_equal(a.s, -b.s))


def components_by_union_find(n: int, pairs) -> list[list[int]]:
    """Node groups of the graph on n nodes with the given edges, each sorted,
    ordered by smallest member."""
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j in pairs:
        parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


def frustration_by_edge_subsets(G: SignedGraph, target: str) -> int:
    """Minimum number of edge-sign flips reaching the target structure,
    exhaustively over all edge subsets.  Exponential: keep |E| small."""
    for size in range(G.num_edges + 1):
        for subset in itertools.combinations(G.edges, size):
            flipped = apply_flip_set(G, [(e.i, e.j) for e in subset])
            if propagate_signs(flipped if target == "balanced" else negate(flipped)) is not None:
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


def write_trajectory_reference(states: np.ndarray, fh: TextIO) -> None:
    """Trajectory CSV by one ``csv.writer`` row and one ``repr`` per value:
    the slow writer that ``signednet.io.write_trajectory_csv`` must match
    byte for byte."""
    writer = csv.writer(fh)
    writer.writerow(["t", "node", "value"])
    for t, row in enumerate(np.asarray(states)):
        for node, value in enumerate(row):
            writer.writerow([t, node, repr(float(value))])


def format_edge_list_reference(G: SignedGraph, header: Optional[str] = None) -> str:
    """Edge-list text as one join over every line: the text that
    ``signednet.io.format_edge_list`` and ``write_edge_list`` must match."""
    lines = [f"# {h}" for h in header.splitlines()] if header else []
    lines.append(f"n {G.n}")
    names = G.labels if G.labels is not None else range(G.n)
    lines.extend(f"{names[i]} {names[j]} {w!r}" for i, j, w in zip(G.i.tolist(), G.j.tolist(), G.w.tolist()))
    return "\n".join(lines) + "\n"


def read_trajectory_csv(path) -> np.ndarray:
    """The (T+1, n) states of a trajectory CSV.  Raises ValueError unless the
    rows hold every ``(t, node)`` pair of the grid exactly once."""
    with open(path, newline="") as fh:
        rows = [(int(r["t"]), int(r["node"]), float(r["value"])) for r in csv.DictReader(fh)]
    if not rows:
        return np.zeros((0, 0))
    steps = max(t for t, _, _ in rows) + 1
    n = max(node for _, node, _ in rows) + 1
    states = np.full((steps, n), np.nan)
    seen = np.zeros((steps, n), dtype=bool)
    for t, node, value in rows:
        if seen[t, node]:
            raise ValueError(f"row for t={t}, node={node} is repeated")
        seen[t, node] = True
        states[t, node] = value
    if not seen.all():
        t, node = np.argwhere(~seen)[0]
        raise ValueError(f"row for t={t}, node={node} is missing")
    return states


def normalize_edges_reference(n: int, edges: Iterable[tuple]) -> list[Edge]:
    """Edge-by-edge validation: the first bad edge raises, checked for range,
    self-loop, finite weight, nonzero weight, then repeated pair.  Valid edges
    come back as ``(min, max, w)`` records in input order."""
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


def csr_reference(n: int, i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(nbr, edge, start)`` of the CSR adjacency on n nodes: both orientations
    of every edge k as (node, neighbour, k) triples, sorted, and node v's run
    starting at its first triple."""
    entries = sorted([(a, b, k) for k, (a, b) in enumerate(zip(i.tolist(), j.tolist()))]
                     + [(b, a, k) for k, (a, b) in enumerate(zip(i.tolist(), j.tolist()))])
    rows = [e[0] for e in entries]
    start = [sum(r < v for r in rows) for v in range(n + 1)]
    return (np.array([e[1] for e in entries], dtype=np.int64), np.array([e[2] for e in entries], dtype=np.int64),
            np.array(start, dtype=np.int64))


def ring_lattice_reference(params) -> SignedGraph:
    """Ring lattice by Python loops: circulant pairs through a sorted set,
    one sign per pair from the plan's rule, then the flip_k plan's flips."""
    from signednet.generate import AntibalancedPlan, FlipKPlan, resolve_partition_rule

    n, half, plan = params.n, params.dbar // 2, params.sign_plan
    pairs = sorted({(min(i, (i + o) % n), max(i, (i + o) % n)) for i in range(n) for o in range(1, half + 1)})
    s = resolve_partition_rule(plan.base_rule if isinstance(plan, FlipKPlan) else plan.rule, n)
    signs = [1.0 if s[i] == s[j] else -1.0 for i, j in pairs]
    if isinstance(plan, AntibalancedPlan):
        signs = [-v for v in signs]
    if isinstance(plan, FlipKPlan):
        for idx in np.random.default_rng(plan.seed).choice(len(pairs), size=plan.k, replace=False):
            signs[idx] = -signs[idx]
    return build_graph(n, [(i, j, v * params.alpha) for (i, j), v in zip(pairs, signs)])


# ---------------------------------------------------------------------------
# graphs whose extreme eigenvalues are clustered
# ---------------------------------------------------------------------------

def two_block_graph() -> SignedGraph:
    """Two all-positive 200-node cliques joined by one edge of weight 1e-6:
    the top two eigenvalues of P_sym (and of W) lie within 1e-8."""
    edges = [(a, b, 1.0) for first in (0, 200) for a in range(first, first + 200) for b in range(a + 1, first + 200)]
    return build_graph(400, edges + [(199, 200, 1e-6)])


def signed_path(n: int, seed: int) -> SignedGraph:
    """The path 0 - 1 - ... - (n-1) with unit weights of random sign."""
    signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=n - 1)
    return build_graph(n, [(k, k + 1, s) for k, s in enumerate(signs.tolist())])


def tree_plus_pairs(n: int, m: int, negative: float, seed: int) -> SignedGraph:
    """A random recursive tree on n nodes (each node joins a uniform earlier
    one) plus uniform random pairs up to m edges, |w| uniform in [0.5, 1.5]
    and each edge negative with probability ``negative``.  Its degrees are
    uneven, so the top eigenvectors of W and of P_sym differ in sign pattern."""
    rng = np.random.default_rng(seed)
    pairs = {(int(rng.integers(0, child)), child) for child in range(1, n)}
    while len(pairs) < m:
        a, b = sorted(rng.integers(0, n, 2).tolist())
        if a != b:
            pairs.add((a, b))
    return build_graph(n, [(a, b, float(rng.uniform(0.5, 1.5)) * (-1.0 if rng.random() < negative else 1.0))
                           for a, b in sorted(pairs)])


def signed_ring(n: int, seed: int) -> SignedGraph:
    """The cycle on n nodes with unit weights of random sign."""
    signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=n)
    return build_graph(n, [(min(k, (k + 1) % n), max(k, (k + 1) % n), s) for k, s in enumerate(signs.tolist())])


# ---------------------------------------------------------------------------
# dense matrix references
# ---------------------------------------------------------------------------

def signed_laplacian(G: SignedGraph) -> np.ndarray:
    """L = D - W with D the diagonal of absolute-weight degrees."""
    return np.diag(G.degrees) - G.weight_matrix


def transition_matrix(G: SignedGraph) -> np.ndarray:
    """Signed transition matrix P = D^-1 W; rows sum to 1 in absolute value."""
    return G.weight_matrix / G.degrees[:, None]


def symmetrized_transition(G: SignedGraph) -> np.ndarray:
    """P_sym = D^-1/2 W D^-1/2, symmetric and similar to P."""
    return G.weight_matrix / np.sqrt(np.outer(G.degrees, G.degrees))


def random_walk_laplacian(G: SignedGraph) -> np.ndarray:
    """Signed random-walk Laplacian L_rw = I - D^-1 W."""
    return np.eye(G.n) - transition_matrix(G)


def doubled_adjacency(G: SignedGraph) -> np.ndarray:
    """2n x 2n block matrix [[W+, W-], [W-, W+]] of the two-species walk,
    where W = W+ - W- with both parts entrywise nonnegative."""
    W = G.weight_matrix
    Wp, Wm = np.where(W > 0, W, 0.0), np.where(W < 0, -W, 0.0)
    return np.block([[Wp, Wm], [Wm, Wp]])


def doubled_transition(G: SignedGraph) -> np.ndarray:
    """Row-stochastic transition of the doubled walk, D2^-1 W2 with D2 = [D, D]."""
    d2 = np.concatenate([G.degrees, G.degrees])
    return doubled_adjacency(G) / d2[:, None]


# ---------------------------------------------------------------------------
# oracles for walk-sign results
# ---------------------------------------------------------------------------

def sign_conflicting_walk(G: SignedGraph, l_max: int) -> Optional[tuple[int, int, int]]:
    """First node pair joined by a positive and a negative walk of equal length.

    Brute force over walk lengths 1..l_max using boolean reachability on the
    positive/negative sign adjacency.  Returns ``(i, j, l)`` for the smallest
    such length (ties broken by node pair), or None.  Strictly unbalanced
    graphs admit a witness; balanced and antibalanced ones never do.
    """
    A = np.sign(G.weight_matrix)
    Ap = (A > 0).astype(np.int64)
    Am = (A < 0).astype(np.int64)
    pos, neg = Ap.copy(), Am.copy()
    for length in range(1, l_max + 1):
        if length > 1:
            pos, neg = (
                np.minimum(pos @ Ap + neg @ Am, 1),
                np.minimum(pos @ Am + neg @ Ap, 1),
            )
        conflict = (pos > 0) & (neg > 0)
        if conflict.any():
            i, j = np.argwhere(conflict)[0]
            return int(i), int(j), length
    return None


def transition_power_sign_pattern(G: SignedGraph, t: int) -> np.ndarray:
    """Predicted entrywise sign of P^t on a balanced or antibalanced graph.

    Balanced: s_i s_j, constant in t.  Antibalanced: (-1)^t s_i s_j.  The
    prediction applies wherever the unsigned power is nonzero.  Graphs that
    are both use their balanced certificate.
    """
    c = classify(G)
    assert c.certificate is not None, "P^t has no certified sign pattern on strictly unbalanced graphs"
    flip = -1 if t % 2 and not c.is_balanced else 1
    return flip * np.outer(c.certificate.s, c.certificate.s)


def rank1_approximation(G: SignedGraph, t: int) -> np.ndarray:
    """Rank-1 approximation of W^t from the dominant unsigned eigenpair.

    Balanced graphs use lambda_1^t, antibalanced ones (-lambda_1)^t, each
    conjugated into the signed sign pattern by the certificate.  The
    Frobenius error equals sqrt(sum_{i>=2} lambda_i^(2t)).  Non-bipartite
    balanced or antibalanced graphs only: on a bipartite graph the +/- rho
    pair makes the dominant pair degenerate.
    """
    c = classify(G)
    assert c.certificate is not None and c.verdict != Verdict.BOTH
    vals, vecs = np.linalg.eigh(np.abs(G.weight_matrix))
    lam = float(vals[-1])
    signed_lead = lam if c.is_balanced else -lam
    v = c.certificate.s.astype(float) * vecs[:, -1]
    return (signed_lead ** t) * np.outer(v, v)


# ---------------------------------------------------------------------------
# simulator references
# ---------------------------------------------------------------------------

def edge_product_reference(n: int, i, j, values, x: np.ndarray) -> np.ndarray:
    """x @ M for the symmetric M holding ``values[k]`` at (i_k, j_k) and
    (j_k, i_k), one node at a time: node v's terms ``values[k] * x[u]``, over
    the edges k joining v to a neighbour u, in ascending u, summed as the first
    term plus ``np.add.reduce`` of the rest, the order in which
    ``np.add.reduceat`` sums each CSR run; 0 for a node with no edge."""
    i, j, values, x = np.asarray(i), np.asarray(j), np.asarray(values, dtype=float), np.asarray(x)
    out = np.zeros(n)
    for v in range(n):
        nbrs = np.concatenate([j[i == v], i[j == v]])
        terms = np.concatenate([values[i == v], values[j == v]]) * x[nbrs]
        terms = terms[np.argsort(nbrs)]
        if len(terms):
            out[v] = terms[0] + np.add.reduce(terms[1:])
    return out


def doubled_edges_reference(G: SignedGraph) -> tuple[list[int], list[int], list[float]]:
    """Edges of the unsigned doubled graph on 2n nodes, node v + n carrying
    the negative walkers at v: for every edge in order its copy from i, then
    for every edge its copy from i + n.  A positive edge joins copies of equal
    sign, a negative one copies of opposite sign; both copies weigh |w|."""
    n, i, j, w = G.n, [], [], []
    for offset in (0, n):
        for e in G.edges:
            i.append(e.i + offset)
            j.append(e.j + (offset if e.w > 0 else n - offset))
            w.append(abs(e.w))
    return i, j, w


def iterate_edges_reference(n: int, i, j, values, x0: np.ndarray, horizon: int,
                            d: Optional[np.ndarray] = None) -> np.ndarray:
    """Rows x(t) = (x(t-1) / d) @ M for t = 0..horizon, each product by
    :func:`edge_product_reference` (no division without ``d``)."""
    states = [np.asarray(x0, dtype=float)]
    for _ in range(horizon):
        x = states[-1] if d is None else states[-1] / d
        states.append(edge_product_reference(n, i, j, values, x))
    return np.array(states)


def iterate_reference(M: np.ndarray, x0: np.ndarray, horizon: int) -> np.ndarray:
    """Rows x(t) = x(t-1) @ M for t = 0..horizon, one plain loop."""
    states = np.empty((horizon + 1, x0.shape[0]))
    states[0] = x0
    x = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, horizon + 1):
            x = x @ M
            states[t] = x
    return states


def walk_until_stationary_reference(G: SignedGraph, x0: np.ndarray, max_steps: int, tol: float) -> np.ndarray:
    """Walk states appended to a list until max |x(t) - x(t-2)| < tol or
    ``max_steps`` steps, each step by :func:`edge_product_reference` on
    x(t-1) / d."""
    states = [x0]
    for _ in range(max_steps):
        states.append(edge_product_reference(G.n, G.i, G.j, G.w, states[-1] / G.degrees))
        if len(states) >= 3 and float(np.max(np.abs(states[-1] - states[-3]))) < tol:
            break
    return np.array(states)


def geometric_thresholds_reference(cfg, n: int) -> np.ndarray:
    """(horizon, n) table of the geometric ELT schedule, row t-1 for step t."""
    levels = cfg.l0 * np.cumprod(np.full(cfg.horizon, cfg.theta_l * cfg.alpha))
    return np.repeat(levels[:, None], n, axis=1)


def elt_reference(W: np.ndarray, x0: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """ELT states under a (horizon, n) threshold table, row t-1 for step t."""
    states = np.zeros((thresholds.shape[0] + 1, x0.shape[0]))
    states[0] = x0
    for t in range(1, thresholds.shape[0] + 1):
        th = thresholds[t - 1]
        fields = states[t - 1] @ W
        states[t] = np.where(fields >= th, th, np.where(fields <= -th, -th, 0.0))
    return states


def elt_lattice_reference(W: np.ndarray, center: int, orientation: int, cfg) -> np.ndarray:
    """Lattice-form ELT states: integer signs seeded on the closed
    neighbourhood of ``center``, stepped on signed neighbour counts, scaled
    by l0 * (theta_l * alpha)^t."""
    A = np.sign(W).astype(np.int64)
    sigma = orientation * A[center]
    sigma[center] = 1
    levels = np.concatenate([[cfg.l0], cfg.l0 * np.cumprod(np.full(cfg.horizon, cfg.theta_l * cfg.alpha))])
    states = np.zeros((cfg.horizon + 1, W.shape[0]))
    states[0] = sigma * levels[0]
    for t in range(1, cfg.horizon + 1):
        score = sigma @ A
        sigma = np.where(score >= cfg.theta_l, 1, np.where(score <= -cfg.theta_l, -1, 0)).astype(np.int64)
        states[t] = sigma * levels[t]
    return states


def activation_sets_json_reference(activations, steps: int) -> list[dict]:
    """Activation JSON records built from the plus and minus node sets of steps 0 to ``steps - 1``."""
    return [{"t": t, "plus": sorted(activations.plus(t)), "minus": sorted(activations.minus(t))} for t in range(steps)]
