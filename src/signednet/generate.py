"""Synthetic signed-network generators: SSBM, signed ring lattices, trees.

Every generator is a deterministic function of its parameters and seed: the
same inputs produce the same edge list, element for element.  Each draws its
edges as arrays, the SSBM visiting only the pairs it keeps (O(n + m) time and
memory).
A graph of more than ``MAX_GENERATED`` nodes or (expected) edges is
refused before anything is allocated.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import SignedGraph, _connected_graph
from .errors import (
    DisconnectedError,
    GaveUpConnectivityError,
    ParamOutOfRangeError,
)

CONNECTIVITY_RETRIES = 100

#: most nodes or (expected) edges a generator draws: building, checking and
#: writing a graph peaks at about 220 bytes per edge, so a graph at the cap
#: needs about 0.9 GiB and some seconds
MAX_GENERATED = 2**22


def _check_size(kind: str, count: int, unit: str) -> None:
    """Refuse a graph of more than :data:`MAX_GENERATED` nodes or edges
    before anything is allocated."""
    if count > MAX_GENERATED:
        raise ParamOutOfRangeError(f"the {kind} would have {count} {unit}, above the cap of {MAX_GENERATED}")


def seeded_rng(seed) -> np.random.Generator:
    """``numpy.random.default_rng(seed)``, a negative seed a named error."""
    try:
        return np.random.default_rng(seed)
    except ValueError:
        raise ParamOutOfRangeError(f"seed must be a nonnegative integer, got {seed!r}") from None


@dataclass(frozen=True)
class SSBMParams:
    """Two-block signed stochastic block model.

    Within-block pairs draw an edge with probability ``p_in`` (weight
    +alpha), cross-block pairs with ``p_out`` (weight -alpha); every realized
    edge's sign then flips independently with probability ``eta``.  eta = 0
    plants a balanced graph, eta = 1 an antibalanced one.
    """

    n1: int
    n2: int
    p_in: float
    p_out: float
    eta: float
    alpha: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n1 < 0 or self.n2 < 0 or self.n1 + self.n2 < 2:
            raise ParamOutOfRangeError("block sizes must be nonnegative with at least 2 nodes total")
        for name in ("p_in", "p_out", "eta"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ParamOutOfRangeError(f"{name}={v} outside [0, 1]")
        if self.alpha <= 0:
            raise ParamOutOfRangeError("alpha must be positive")
        _check_size("ssbm", self.n, "nodes")
        pairs_in = (self.n1 * (self.n1 - 1) + self.n2 * (self.n2 - 1)) // 2
        _check_size("ssbm", round(self.p_in * pairs_in + self.p_out * self.n1 * self.n2), "expected edges")

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    def planted_signs(self) -> np.ndarray:
        s = np.ones(self.n, dtype=np.int8)
        s[self.n1:] = -1
        return s


def ssbm(params: SSBMParams) -> SignedGraph:
    """Draw a connected SSBM instance; resamples up to 100 times for
    connectivity before giving up.  A draw takes O(n + m) time and memory
    (see :func:`_ssbm_once`).  A configuration that no draw can connect, two
    nonempty blocks with ``p_out = 0`` or a single block with ``p_in = 0``,
    is refused before anything is drawn."""
    if params.p_out == 0.0 and params.n1 and params.n2:
        raise GaveUpConnectivityError("p_out = 0 leaves the two blocks without a cross edge: no draw is connected")
    if params.p_in == 0.0 and not (params.n1 and params.n2):
        raise GaveUpConnectivityError("p_in = 0 leaves the single block without an edge: no draw is connected")
    rng = seeded_rng(params.seed)
    for _ in range(CONNECTIVITY_RETRIES):
        try:
            return _connected_graph(params.n, *_ssbm_once(params, rng))
        except DisconnectedError:
            continue
    raise GaveUpConnectivityError(
        f"no connected draw within {CONNECTIVITY_RETRIES} attempts; "
        f"raise p_in/p_out or change the seed"
    )


def _ssbm_once(params: SSBMParams, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge arrays of one draw, sorted by (i, j), in O(n + m) time and memory.

    The pairs fall into three ranges, drawn in this order: block 1's upper
    triangle and block 2's, each pair kept with ``p_in``, then the n1 x n2
    cross rectangle, each pair kept with ``p_out``.  Each range visits only
    its kept pairs (:func:`_kept_positions`); one ``rng.random(m)`` then
    draws the m sign flips."""
    n1, n2, alpha = params.n1, params.n2, params.alpha
    i1, j1 = _triangle_pairs(_kept_positions(n1 * (n1 - 1) // 2, params.p_in, rng), n1)
    i2, j2 = _triangle_pairs(_kept_positions(n2 * (n2 - 1) // 2, params.p_in, rng), n2)
    ix, jx = np.divmod(_kept_positions(n1 * n2, params.p_out, rng), n2)
    # a row below n1 lists block 1's pairs, then its cross pairs: a stable sort
    # of the rows merges the two sorted runs (timsort, numpy's stable sort of
    # int64, merges two runs in linear time)
    rows = np.concatenate([i1, ix])
    order = np.argsort(rows, kind="stable")
    i = np.concatenate([rows[order], n1 + i2])
    j = np.concatenate([np.concatenate([j1, n1 + jx])[order], n1 + j2])
    sign = np.concatenate([np.where(order < len(i1), alpha, -alpha), np.full(len(i2), alpha)])
    return i, j, np.where(rng.random(len(i)) < params.eta, -sign, sign)


def _kept_positions(count: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Increasing positions in ``range(count)``, each kept independently with
    probability ``p``, in O(1 + count * p) time: the gaps between kept
    positions are geometric, drawn by inversion as
    ``floor(log(1 - U) / log1p(-p)) + 1`` from ``rng.random`` chunks
    (Batagelj & Brandes, Phys. Rev. E 71, 036113, 2005)."""
    if count == 0 or p == 0.0:
        return np.empty(0, dtype=np.int64)
    if p == 1.0:
        return np.arange(count, dtype=np.int64)
    log_q, mean = math.log1p(-p), count * p
    size = int(mean + 4 * math.sqrt(mean)) + 16  # one chunk almost always reaches past the range
    chunks, last = [], -1
    while last < count:
        # a gap capped at count + 1 still leaves the range, and the sum of a chunk stays far below 2**63
        gaps = np.minimum(np.floor(np.log1p(-rng.random(size)) / log_q) + 1, count + 1).astype(np.int64)
        chunks.append(last + np.cumsum(gaps))
        last = int(chunks[-1][-1])
    positions = np.concatenate(chunks)
    return positions[:np.searchsorted(positions, count)]


def _triangle_pairs(k: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j), i < j < b, at positions ``k`` of the row-major upper
    triangle of a b-node block: the row from a float square root, then
    corrected in exact integers."""
    back = b * (b - 1) // 2 - 1 - k  # the position counted from the last pair
    # the last r rows hold 1 + 2 + ... + r pairs: r is the largest with r (r + 1) / 2 <= back
    r = ((np.sqrt(8 * back + 1) - 1) // 2).astype(np.int64)
    r -= r * (r + 1) // 2 > back
    r += (r + 1) * (r + 2) // 2 <= back
    return b - 2 - r, b - 1 - (back - r * (r + 1) // 2)


# ---------------------------------------------------------------------------
# ring lattices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BalancedPlan:
    """Signs consistent with a bipartition rule: positive inside parts,
    negative across."""

    rule: str = "all"


@dataclass(frozen=True)
class AntibalancedPlan:
    """Signs opposite to the balanced plan for the same rule."""

    rule: str = "all"


@dataclass(frozen=True)
class FlipKPlan:
    """Balanced plan perturbed by flipping k distinct random edge signs."""

    k: int
    seed: int = 0
    base_rule: str = "all"


SignPlan = Union[BalancedPlan, AntibalancedPlan, FlipKPlan]


def resolve_partition_rule(rule: str, n: int) -> np.ndarray:
    """Sign vector for a named bipartition rule.

    ``all`` puts every node in the first part; ``arc:<k>`` puts nodes
    0..k-1 there; ``blocks:<b>`` alternates contiguous blocks of size b.
    """
    if rule == "all":
        return np.ones(n, dtype=np.int8)
    kind, _, arg = rule.partition(":") if isinstance(rule, str) else ("", "", "")
    try:
        size = int(arg)
    except ValueError:
        kind = ""
    if kind == "arc":
        if not 0 <= size <= n:
            raise ParamOutOfRangeError(f"arc size {size} outside [0, {n}]")
        s = np.full(n, -1, dtype=np.int8)
        s[:size] = 1
        return s
    if kind == "blocks":
        if size < 1:
            raise ParamOutOfRangeError("block size must be positive")
        return (1 - 2 * ((np.arange(n) // size) % 2)).astype(np.int8)
    raise ParamOutOfRangeError(f"unknown bipartition rule {rule!r}")


@dataclass(frozen=True)
class LatticeParams:
    """Signed ring lattice: n nodes on a circle, each adjacent to dbar/2
    nearest neighbours per side, uniform weight magnitude alpha."""

    n: int
    dbar: int
    alpha: float
    sign_plan: SignPlan

    def __post_init__(self):
        if self.dbar % 2 != 0 or not (2 <= self.dbar < self.n):
            raise ParamOutOfRangeError(f"dbar must be even with 2 <= dbar < n, got dbar={self.dbar}, n={self.n}")
        if self.alpha <= 0:
            raise ParamOutOfRangeError("alpha must be positive")
        _check_size("lattice", self.n * self.dbar // 2, "edges")


def circulant_pairs(n: int, half: int) -> tuple[np.ndarray, np.ndarray]:
    """Edges ``i < j`` of the ring joining every node to its ``half`` nearest
    neighbours on each side, sorted by (i, j); distinct while 2 * half < n."""
    a = np.repeat(np.arange(n), half)
    b = (a + np.tile(np.arange(1, half + 1), n)) % n
    keys = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
    return keys // n, keys % n


def ring_lattice(params: LatticeParams) -> SignedGraph:
    """Circulant ring lattice with signs from the given plan."""
    n, plan = params.n, params.sign_plan
    i, j = circulant_pairs(n, params.dbar // 2)
    if not isinstance(plan, (BalancedPlan, AntibalancedPlan, FlipKPlan)):
        raise ParamOutOfRangeError(f"unknown sign plan {plan!r}")
    s = resolve_partition_rule(plan.base_rule if isinstance(plan, FlipKPlan) else plan.rule, n)
    signs = (s[i] * s[j]).astype(float)
    if isinstance(plan, AntibalancedPlan):
        signs = -signs
    elif isinstance(plan, FlipKPlan):
        if not 0 <= plan.k <= len(signs):
            raise ParamOutOfRangeError(f"cannot flip {plan.k} of {len(signs)} edges")
        flips = seeded_rng(plan.seed).choice(len(signs), size=plan.k, replace=False)
        signs[flips] = -signs[flips]
    return _connected_graph(n, i, j, signs * params.alpha)


# ---------------------------------------------------------------------------
# random signed trees
# ---------------------------------------------------------------------------

def random_signed_tree(n: int, sign_prob: float, seed: int = 0, alpha: float = 1.0) -> SignedGraph:
    """Uniform random recursive tree; each edge negative with ``sign_prob``."""
    if n < 1:
        raise ParamOutOfRangeError("tree needs at least one node")
    if not (0.0 <= sign_prob <= 1.0):
        raise ParamOutOfRangeError(f"sign_prob={sign_prob} outside [0, 1]")
    if alpha <= 0:
        raise ParamOutOfRangeError("alpha must be positive")
    _check_size("tree", n - 1, "edges")
    rng = seeded_rng(seed)
    children = np.arange(1, n)
    parents = rng.integers(0, children)
    return _connected_graph(n, parents, children, np.where(rng.random(n - 1) < sign_prob, -alpha, alpha))


# ---------------------------------------------------------------------------
# JSON configs (CLI surface)
# ---------------------------------------------------------------------------

def config_field(config: dict, key: str, default, kind: type):
    """One JSON config field of the given type: a nonnegative ``int``
    (integral floats accepted), a finite ``float``, a ``str``, or a ``list``
    (or null).  Booleans are not numbers; any other value is a data error."""
    value = config.get(key, default)
    if kind in (int, float):
        x = math.nan
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            with contextlib.suppress(OverflowError):  # integers beyond the float range
                x = float(value)
        if math.isfinite(x) and (kind is float or x >= 0 and x.is_integer()):
            return value if kind is int and isinstance(value, int) else kind(x)
    elif isinstance(value, kind) or kind is list and value is None:
        return value
    what = {int: "a nonnegative integer", float: "a finite number", str: "a string"}.get(kind, "null or a list")
    raise ParamOutOfRangeError(f"{key} must be {what}, got {value!r}")


def check_config_keys(config: dict, what: str, accepted, hint: str = "") -> None:
    """Refuse the keys of ``config`` that are not in ``accepted``, naming
    them and the accepted keys, then ``hint``."""
    unknown = sorted(set(config) - set(accepted))
    if unknown:
        raise ParamOutOfRangeError(f"unknown {what} key{'s' * (len(unknown) > 1)} {', '.join(map(repr, unknown))}; "
                                   f"accepted keys: {', '.join(accepted)}{hint}")


#: the keys of each sign plan kind
_PLAN_KEYS = {"balanced": ("kind", "rule"), "antibalanced": ("kind", "rule"),
              "flip_k": ("kind", "k", "seed", "base_rule")}


def sign_plan_from_json(doc: dict) -> SignPlan:
    if not isinstance(doc, dict):
        raise ParamOutOfRangeError(f"sign_plan must be a JSON object, got {doc!r}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _PLAN_KEYS:
        raise ParamOutOfRangeError(f"unknown sign plan kind {kind!r}")
    check_config_keys(doc, f"{kind} sign_plan", _PLAN_KEYS[kind])
    if kind != "flip_k":
        return (BalancedPlan if kind == "balanced" else AntibalancedPlan)(rule=doc.get("rule", "all"))
    seed = doc.get("seed", 0)
    if type(seed) is int and seed < 0:
        seeded_rng(seed)  # raises the named negative-seed error
    try:
        k, seed = config_field(doc, "k", None, int), config_field(doc, "seed", 0, int)
    except ParamOutOfRangeError:
        raise ParamOutOfRangeError(f"a flip_k sign_plan needs integer k and seed, got {doc!r}") from None
    return FlipKPlan(k=k, seed=seed, base_rule=doc.get("base_rule", "all"))
