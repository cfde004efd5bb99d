"""Simulators for linear adjacency dynamics, signed random walks and the
extended linear threshold (ELT) model, with closed-form stationary states.

All simulators use row vectors and left multiplication: one step maps x to
``x @ M``.  States are never renormalized.  Trajectories are immutable
records of every visited state including the initial one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Literal, Optional

import numpy as np

from .balance import Verdict, classify
from .core import (
    SignedGraph,
    doubled_transition,
    transition_matrix,
    unsigned_counterpart,
)
from .errors import (
    BipartiteGraphError,
    BipartiteUnsupportedError,
    DimensionMismatchError,
    InconsistentModeError,
    NegativeDensityError,
    NonpositiveThresholdError,
    NotLatticeError,
    ParamOutOfRangeError,
    WrongVerdictError,
)
from .spectral import adjacency_spectrum


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed states: row t is x(t), t = 0..T."""

    states: np.ndarray
    model: str
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        states = np.array(self.states, dtype=float, copy=True)
        states.flags.writeable = False
        object.__setattr__(self, "states", states)

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 1

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def _check_state(G: SignedGraph, x0) -> np.ndarray:
    x = np.asarray(x0, dtype=float)
    if x.shape != (G.n,):
        raise DimensionMismatchError(f"initial state has shape {x.shape}, expected ({G.n},)")
    return x


def _iterate(M: np.ndarray, x0: np.ndarray, horizon: int) -> np.ndarray:
    states = np.empty((horizon + 1, x0.shape[0]))
    states[0] = x0
    x = x0
    with np.errstate(over="ignore", invalid="ignore"):  # callers check for non-finite states
        for t in range(1, horizon + 1):
            x = x @ M
            states[t] = x
    return states


def linear_adjacency_simulate(G: SignedGraph, x0, horizon: int) -> Trajectory:
    """x(t) = x(0) W^t computed iteratively, no renormalization."""
    x = _check_state(G, x0)
    return Trajectory(_iterate(G.weight_matrix, x, horizon), "linear", {"horizon": horizon})


def random_walk_simulate(G: SignedGraph, x0, horizon: int) -> Trajectory:
    """Signed random walk x(t) = x(0) P^t.

    The closed-form stationary states assume sum_i |x_i(0)| = 1; this is not
    enforced, only recorded in the trajectory config.
    """
    x = _check_state(G, x0)
    norm = float(np.abs(x).sum())
    return Trajectory(_iterate(transition_matrix(G), x, horizon), "rw",
                      {"horizon": horizon, "l1_norm_x0": norm})


def simulate_walk_until_stationary(G: SignedGraph, x0, max_steps: int = 100_000,
                                   tol: float = 1e-10) -> Trajectory:
    """Random walk run until period-2-aware convergence or ``max_steps``.

    Stops once max |x(t) - x(t-2)| < tol, which also detects the alternating
    limit pair of antibalanced graphs.
    """
    x = _check_state(G, x0)
    P = transition_matrix(G)
    states = [x]
    for _ in range(max_steps):
        states.append(states[-1] @ P)
        if len(states) >= 3 and float(np.max(np.abs(states[-1] - states[-3]))) < tol:
            break
    return Trajectory(np.array(states), "rw", {"tol": tol, "max_steps": max_steps})


# ---------------------------------------------------------------------------
# stationary predictions
# ---------------------------------------------------------------------------

class StationaryKind(Enum):
    FIXED = "fixed"
    ALTERNATING_PAIR = "alternating_pair"
    ZERO = "zero"


@dataclass(frozen=True)
class StationaryPrediction:
    """Predicted random-walk limit.

    FIXED carries one vector; ALTERNATING_PAIR carries (odd-time, even-time)
    vectors; ZERO carries the zero vector.
    """

    kind: StationaryKind
    vectors: tuple[np.ndarray, ...]

    @property
    def fixed(self) -> np.ndarray:
        return self.vectors[0]

    @property
    def odd(self) -> np.ndarray:
        return self.vectors[0]

    @property
    def even(self) -> np.ndarray:
        return self.vectors[-1]


def predict_stationary(G: SignedGraph, x0) -> StationaryPrediction:
    """Closed-form random-walk limit by balance class.

    Balanced: fixed state +/- (x0 . s) d_j / (2m) signed by the certificate.
    Antibalanced: the same vector with alternating global sign (odd/even
    pair).  Strictly unbalanced: zero.  Graphs balanced *and* antibalanced
    are bipartite, for which no closed form exists here; they are refused.
    """
    x = _check_state(G, x0)
    c = classify(G)
    if c.verdict == Verdict.BOTH:
        raise BipartiteUnsupportedError(
            "graph is bipartite (balanced and antibalanced); no closed-form stationary state"
        )
    if c.verdict == Verdict.STRICTLY_UNBALANCED:
        return StationaryPrediction(StationaryKind.ZERO, (np.zeros(G.n),))
    part = c.balanced_partition if c.verdict == Verdict.BALANCED else c.antibalanced_partition
    assert part is not None
    s = part.s.astype(float)
    two_m = float(G.degrees.sum())
    base = (float(x @ s) / two_m) * s * G.degrees
    if c.verdict == Verdict.BALANCED:
        return StationaryPrediction(StationaryKind.FIXED, (base,))
    return StationaryPrediction(StationaryKind.ALTERNATING_PAIR, (-base, base))


def transition_power_sign_pattern(G: SignedGraph, t: int) -> np.ndarray:
    """Predicted entrywise sign of P^t for balanced/antibalanced graphs.

    Balanced: s_i s_j, constant in t.  Antibalanced: (-1)^t s_i s_j.  The
    prediction applies wherever the unsigned power is nonzero.  Graphs that
    are both use their balanced certificate.
    """
    if t < 0:
        raise ParamOutOfRangeError("power must be nonnegative")
    c = classify(G)
    if c.verdict == Verdict.STRICTLY_UNBALANCED:
        raise WrongVerdictError("P^t has no certified sign pattern on strictly unbalanced graphs")
    if c.is_balanced:
        s = c.balanced_partition.s.astype(np.int8)
        flip = 1
    else:
        s = c.antibalanced_partition.s.astype(np.int8)
        flip = -1 if t % 2 else 1
    return flip * np.outer(s, s)


def rank1_approximation(G: SignedGraph, t: int) -> np.ndarray:
    """Rank-1 approximation of W^t from the dominant unsigned eigenpair.

    Balanced graphs use lambda_1^t, antibalanced ones (-lambda_1)^t, each
    conjugated into the signed sign pattern by the certificate.  The
    Frobenius error equals sqrt(sum_{i>=2} lambda_i^(2t)).  Non-bipartite
    balanced or antibalanced graphs only.
    """
    if t < 0:
        raise ParamOutOfRangeError("power must be nonnegative")
    c = classify(G)
    if c.verdict not in (Verdict.BALANCED, Verdict.ANTIBALANCED):
        if c.verdict == Verdict.BOTH:
            raise BipartiteGraphError("rank-1 approximation is degenerate on bipartite graphs")
        raise WrongVerdictError("requires a balanced or antibalanced graph")
    unsigned = adjacency_spectrum(unsigned_counterpart(G))
    lam, u1 = unsigned.leading
    part = c.balanced_partition if c.verdict == Verdict.BALANCED else c.antibalanced_partition
    assert part is not None
    signed_lead = lam if c.verdict == Verdict.BALANCED else -lam
    v = part.s.astype(float) * u1
    return (signed_lead ** t) * np.outer(v, v)


# ---------------------------------------------------------------------------
# doubled two-species walk
# ---------------------------------------------------------------------------

def doubled_walk_simulate(G: SignedGraph, xplus0, xminus0, horizon: int) -> tuple[Trajectory, Trajectory]:
    """Evolve nonnegative positive/negative walker densities under the
    doubled transition matrix.

    The difference of the returned trajectories reproduces the signed walk
    started at xplus0 - xminus0; the sum reproduces the unsigned walk.
    """
    xp = _check_state(G, xplus0)
    xm = _check_state(G, xminus0)
    if np.any(xp < 0) or np.any(xm < 0):
        raise NegativeDensityError("walker densities must be nonnegative")
    z = np.concatenate([xp, xm])
    states = _iterate(doubled_transition(G), z, horizon)
    cfg = {"horizon": horizon}
    return (
        Trajectory(states[:, : G.n], "doubled_rw_plus", cfg),
        Trajectory(states[:, G.n :], "doubled_rw_minus", cfg),
    )


# ---------------------------------------------------------------------------
# extended linear threshold model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ELTConfig:
    """Thresholds and horizon for the ELT model.

    Without ``general_thresholds`` the geometric schedule
    theta_{j,t} = (theta_l * alpha)^t * l0 applies uniformly; otherwise the
    table gives theta_{j,t} explicitly with row t-1 holding step t.
    """

    theta_l: float
    alpha: float
    l0: float
    horizon: int
    general_thresholds: Optional[np.ndarray] = None

    def __post_init__(self):
        if not all(0 < v < np.inf for v in (self.theta_l, self.alpha, self.l0)):
            raise NonpositiveThresholdError("theta_l, alpha and l0 must all be positive and finite")
        if self.horizon < 0:
            raise ParamOutOfRangeError("horizon must be nonnegative")
        if self.general_thresholds is not None:
            try:
                table = np.array(self.general_thresholds, dtype=float, copy=True)
            except (TypeError, ValueError):
                raise ParamOutOfRangeError("general_thresholds must be a rectangular numeric table") from None
            if not np.all((table > 0) & (table < np.inf)):
                raise NonpositiveThresholdError("every threshold must be positive and finite")
            table.flags.writeable = False
            object.__setattr__(self, "general_thresholds", table)

    def threshold_matrix(self, n: int) -> np.ndarray:
        """(horizon, n) table of theta_{j,t}, row t-1 for step t."""
        if self.general_thresholds is not None:
            table = self.general_thresholds
            if table.shape != (self.horizon, n):
                raise DimensionMismatchError(
                    f"threshold table has shape {table.shape}, expected ({self.horizon}, {n})"
                )
            return table
        # iterated products keep the geometric schedule consistent with the
        # step-by-step field computation at exact-tie boundaries
        ratio = self.theta_l * self.alpha
        levels = self.l0 * np.cumprod(np.full(self.horizon, ratio))
        return np.repeat(levels[:, None], n, axis=1)

    def snapshot(self) -> dict:
        return {
            "theta_l": self.theta_l,
            "alpha": self.alpha,
            "l0": self.l0,
            "horizon": self.horizon,
            "schedule": "table" if self.general_thresholds is not None else "geometric",
        }


class ActivationSets:
    """Per-step positively/negatively active node sets of a trajectory."""

    def __init__(self, states: np.ndarray):
        self._plus = [frozenset(np.flatnonzero(row > 0).tolist()) for row in states]
        self._minus = [frozenset(np.flatnonzero(row < 0).tolist()) for row in states]

    def __len__(self) -> int:
        return len(self._plus)

    def plus(self, t: int) -> frozenset:
        return self._plus[t]

    def minus(self, t: int) -> frozenset:
        return self._minus[t]

    def active(self, t: int) -> frozenset:
        return self._plus[t] | self._minus[t]

    def new_active(self, t: int) -> frozenset:
        """Nodes active at t that were not active at t-1."""
        if t == 0:
            return self.active(0)
        return self.active(t) - self.active(t - 1)

    def ever_active(self) -> frozenset:
        out: frozenset = frozenset()
        for t in range(len(self._plus)):
            out |= self.active(t)
        return out

    def __iter__(self):
        return iter(zip(self._plus, self._minus))


def elt_simulate(G: SignedGraph, x0, cfg: ELTConfig) -> tuple[Trajectory, ActivationSets]:
    """Synchronous ELT update on the weighted signed graph.

    A node adopts +theta when its signed weighted input reaches theta,
    -theta when it reaches -theta, and drops to 0 otherwise; comparisons are
    inclusive, so exact boundary hits activate.
    """
    x = _check_state(G, x0)
    thresholds = cfg.threshold_matrix(G.n)
    W = G.weight_matrix
    states = np.zeros((cfg.horizon + 1, G.n))
    states[0] = x
    for t in range(1, cfg.horizon + 1):
        th = thresholds[t - 1]
        fields = states[t - 1] @ W
        states[t] = np.where(fields >= th, th, np.where(fields <= -th, -th, 0.0))
    traj = Trajectory(states, "elt", cfg.snapshot())
    return traj, ActivationSets(traj.states)


# ---------------------------------------------------------------------------
# ring lattices
# ---------------------------------------------------------------------------

def ring_lattice_parameters(G: SignedGraph) -> tuple[int, float]:
    """(degree, weight magnitude) of a signed ring lattice.

    The topology must connect every node to its dbar/2 nearest neighbours on
    each side of a circle, with uniform |w|; anything else raises
    :class:`NotLatticeError`.
    """
    n = G.n
    mags = np.abs(G.w)
    if mags.size == 0:
        raise NotLatticeError("graph has no edges")
    alpha = float(mags[0])
    if float(np.max(np.abs(mags - alpha))) > 1e-12 * max(alpha, 1.0):
        raise NotLatticeError("edge weight magnitudes are not uniform")
    if G.num_edges % n != 0:
        raise NotLatticeError("edge count is not a multiple of the node count")
    half = G.num_edges // n
    dbar = 2 * half
    if not (2 <= dbar < n):
        raise NotLatticeError(f"degree {dbar} is not a valid ring-lattice degree for n={n}")
    a = np.repeat(np.arange(n), half)
    b = (a + np.tile(np.arange(1, half + 1), n)) % n  # offsets below n/2 give distinct pairs
    if not np.array_equal(np.sort(np.minimum(a, b) * n + np.maximum(a, b)), G._sorted_keys[0][:-1]):
        raise NotLatticeError("edge set is not a circulant nearest-neighbour ring")
    return dbar, alpha


def certain_propagation_check(G: SignedGraph, theta_l: float) -> bool:
    """Whether full-neighbourhood seeding is guaranteed to spread.

    True exactly when theta_l <= dbar/2; propagation here means activation of
    nodes outside the seeded neighbourhood.
    """
    dbar, _ = ring_lattice_parameters(G)
    return theta_l <= dbar / 2.0


def _closed_neighbourhood(G: SignedGraph, center: int, orientation: int = 1) -> np.ndarray:
    """Closed-neighbourhood seed signs: +1 at the center, ``orientation`` times
    the connecting edge's sign at each neighbour, 0 elsewhere."""
    nbrs, eids = G._adjacency
    seed = np.zeros(G.n, dtype=np.int64)
    seed[center] = 1
    seed[nbrs[center]] = orientation * G.sign[eids[center]]
    return seed


LatticeMode = Literal["balanced", "antibalanced"]


def elt_lattice_simulate(G: SignedGraph, seed_center: int, cfg: ELTConfig,
                         mode: LatticeMode = "balanced") -> tuple[Trajectory, ActivationSets]:
    """ELT on a uniform-magnitude signed ring lattice, in lattice form.

    Seeds the center positively and each neighbour consistently with the
    chosen structure: under ``balanced`` the neighbour takes the sign of its
    edge to the center, under ``antibalanced`` the opposite.  Steps compare
    the integer net signed neighbour count against theta_l, which is exactly
    equivalent to the weighted update under the geometric threshold schedule.
    State magnitudes follow (theta_l * alpha)^t * l0.

    Strictly unbalanced lattices (e.g. sign-flip perturbations of balanced
    ones) run under either mode; a mode directly contradicting a pure
    balanced/antibalanced verdict is refused.
    """
    dbar, alpha = ring_lattice_parameters(G)
    if cfg.general_thresholds is not None:
        raise ParamOutOfRangeError("lattice simulation uses the geometric schedule only")
    if abs(cfg.alpha - alpha) > 1e-12 * max(alpha, 1.0):
        raise ParamOutOfRangeError(
            f"config weight magnitude {cfg.alpha} does not match the lattice's {alpha}"
        )
    if not (0 <= seed_center < G.n):
        raise ParamOutOfRangeError(f"seed center {seed_center} out of range")
    verdict = classify(G).verdict
    if mode == "balanced" and verdict == Verdict.ANTIBALANCED:
        raise InconsistentModeError("balanced-mode seeding on a purely antibalanced lattice")
    if mode == "antibalanced" and verdict == Verdict.BALANCED:
        raise InconsistentModeError("antibalanced-mode seeding on a purely balanced lattice")
    if mode not in ("balanced", "antibalanced"):
        raise ParamOutOfRangeError(f"unknown mode {mode!r}")

    sigma = _closed_neighbourhood(G, seed_center, 1 if mode == "balanced" else -1)
    A = np.sign(G.weight_matrix).astype(np.int64)

    levels = np.concatenate([[cfg.l0], cfg.l0 * np.cumprod(np.full(cfg.horizon, cfg.theta_l * cfg.alpha))])
    states = np.zeros((cfg.horizon + 1, G.n))
    states[0] = sigma * levels[0]
    for t in range(1, cfg.horizon + 1):
        score = sigma @ A
        sigma = np.where(score >= cfg.theta_l, 1, np.where(score <= -cfg.theta_l, -1, 0)).astype(np.int64)
        states[t] = sigma * levels[t]
    traj = Trajectory(states, "elt_lattice", dict(cfg.snapshot(), mode=mode, seed_center=seed_center))
    return traj, ActivationSets(traj.states)
