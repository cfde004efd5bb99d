"""Independent oracles and corpus builders shared across test modules.

These deliberately avoid the code paths they are used to check: balance is
decided by enumerating simple cycles or by a hand-written sign-propagating
traversal with its own adjacency lists, certificates are checked one edge at
a time, frustration by exhausting edge subsets or all node signings,
components by union-find, spectra come from numpy's
nonsymmetric solver, edge validation from one Python pass over the edges,
trajectory CSV from one ``csv.writer`` row per value (read back by a strict
``csv`` reader), ring lattices from Python loops over the circulant pairs,
and trajectories from one hand-written loop per simulator.
"""

import csv
import itertools
import math
from typing import Iterable, Optional, TextIO

import numpy as np

from signednet import SignedGraph
from signednet.balance import Bipartition, apply_flip_set, negate
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
    "components_by_union_find",
    "frustration_by_edge_subsets",
    "frustration_by_node_signings",
    "nonsymmetric_eigenvalues",
    "random_symmetric_matrix",
    "normalize_edges_reference",
    "read_trajectory_csv",
    "write_trajectory_reference",
    "ring_lattice_reference",
    "iterate_reference",
    "walk_until_stationary_reference",
    "geometric_thresholds_reference",
    "elt_reference",
    "elt_lattice_reference",
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
    return Bipartition(s).normalized()


def certifies_balance(G: SignedGraph, b: Bipartition) -> bool:
    """True when b covers G's nodes and every edge satisfies s_i s_j = sign(w),
    checked one edge at a time."""
    return b.n == G.n and all(b.s[e.i] * b.s[e.j] == (1 if e.w > 0 else -1) for e in G.edges)


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


def random_symmetric_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    M = rng.standard_normal((n, n))
    return (M + M.T) / 2.0


def write_trajectory_reference(states: np.ndarray, fh: TextIO) -> None:
    """Trajectory CSV by one ``csv.writer`` row and one ``repr`` per value:
    the slow writer that ``signednet.io.write_trajectory_csv`` must match
    byte for byte."""
    writer = csv.writer(fh)
    writer.writerow(["t", "node", "value"])
    for t, row in enumerate(np.asarray(states)):
        for node, value in enumerate(row):
            writer.writerow([t, node, repr(float(value))])


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


def walk_until_stationary_reference(P: np.ndarray, x0: np.ndarray, max_steps: int, tol: float) -> np.ndarray:
    """Walk states appended to a list until max |x(t) - x(t-2)| < tol or
    ``max_steps`` steps."""
    states = [x0]
    for _ in range(max_steps):
        states.append(states[-1] @ P)
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
