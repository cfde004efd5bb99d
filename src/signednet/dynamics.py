"""Simulators for linear adjacency dynamics, signed random walks and the
extended linear threshold (ELT) model, with closed-form stationary states.

All simulators use row vectors and left multiplication: one step maps x to
``x @ M``, computed by the graph's edge-array operator
(:meth:`~signednet.core.SignedGraph._operator`) as one ``np.add.reduceat``
over the 2m CSR entries, with no n x n matrix.  Linear dynamics and ELT
apply W; the signed walk applies P = D^-1 W as W to x / d; the two-species
walk is the random walk on the unsigned doubled graph with 2n nodes; the
lattice ELT applies the edge signs as floats, so its neighbour counts stay
exact integers.  States are never renormalized.  Trajectories are immutable
records of every visited state including the initial one.  Every simulator
steps through :func:`_run`, one loop filling one array, which refuses a run
storing more than :data:`MAX_STORED_VALUES` values and is handed to the
trajectory read-only, without a copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Literal, Optional

import numpy as np

from .balance import Verdict, classify
from .core import SignedGraph, _positive_degrees
from .errors import (
    BipartiteUnsupportedError,
    DimensionMismatchError,
    InconsistentModeError,
    NegativeDensityError,
    NonpositiveThresholdError,
    NotLatticeError,
    ParamOutOfRangeError,
)
from .generate import circulant_pairs

#: most (steps + 1) x state width values one simulation stores: 2**26 float64
#: values are 512 MiB
MAX_STORED_VALUES = 2**26


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed states: row t is x(t), t = 0..T.

    A read-only float array is kept as given; anything else is copied into one.
    """

    states: np.ndarray

    def __post_init__(self):
        states = self.states
        if not (isinstance(states, np.ndarray) and states.dtype == float and not states.flags.writeable):
            states = np.array(states, dtype=float)
            states.flags.writeable = False
        object.__setattr__(self, "states", states)

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


def _check_stored(steps: int, width: int) -> None:
    """Refuse a negative horizon, or one storing too many states of ``width`` values."""
    if steps < 0:
        raise ParamOutOfRangeError(f"horizon must be nonnegative, got {steps}")
    if (steps + 1) * width > MAX_STORED_VALUES:
        raise ParamOutOfRangeError(
            f"{steps} steps of {width} values would store {(steps + 1) * width} values, above the cap of "
            f"{MAX_STORED_VALUES}; lower the horizon"
        )


def _run(step: Callable[[np.ndarray, int], np.ndarray], x0: np.ndarray, steps: int,
         settled: Optional[Callable[[np.ndarray, np.ndarray], bool]] = None) -> np.ndarray:
    """Rows x(0) = x0, x(t) = step(x(t-1), t) up to t = steps, or up to the first
    t >= 2 with ``settled(x(t), x(t-2))``, as one read-only array.

    Without ``settled`` every row is allocated, and counted against the cap,
    before the first step.  With it the rows double as they fill, and the run
    is refused only when the rows stored would pass the cap.  Callers check
    for overflow.
    """
    width = x0.shape[0]
    _check_stored(steps, width if settled is None else 0)  # with ``settled`` rows count as they are added
    states = np.empty((steps + 1 if settled is None else 1, width), dtype=x0.dtype)
    states[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, steps + 1):
            if t == len(states):  # only with ``settled``: the array is full
                _check_stored(t, width)
                grown = np.empty((min(2 * t, steps + 1, MAX_STORED_VALUES // width), width), dtype=x0.dtype)
                grown[:t] = states
                states = grown
            states[t] = step(states[t - 1], t)
            if settled is not None and t >= 2 and settled(states[t], states[t - 2]):
                states = states[: t + 1]
                break
    states.flags.writeable = False
    return states


def linear_adjacency_simulate(G: SignedGraph, x0, horizon: int) -> Trajectory:
    """x(t) = x(0) W^t computed iteratively, no renormalization."""
    x = _check_state(G, x0)
    W = G._operator(G.w)
    return Trajectory(_run(lambda y, t: W(y), x, horizon))


def _walk_step(G: SignedGraph, d: np.ndarray) -> Callable[[np.ndarray, int], np.ndarray]:
    """One walk step y -> y @ D^-1 W of G, computed as W applied to y / d."""
    W = G._operator(G.w)
    return lambda y, t: W(y / d)


def random_walk_simulate(G: SignedGraph, x0, horizon: int) -> Trajectory:
    """Signed random walk x(t) = x(0) P^t.

    The closed-form stationary states assume sum_i |x_i(0)| = 1; this is not
    enforced.
    """
    x = _check_state(G, x0)
    return Trajectory(_run(_walk_step(G, _positive_degrees(G)), x, horizon))


def simulate_walk_until_stationary(G: SignedGraph, x0, max_steps: int = 100_000,
                                   tol: float = 1e-10) -> Trajectory:
    """Random walk run until period-2-aware convergence or ``max_steps``.

    Stops once max |x(t) - x(t-2)| < tol, which also detects the alternating
    limit pair of antibalanced graphs.  Only the steps run count against
    :data:`MAX_STORED_VALUES`.
    """
    x = _check_state(G, x0)
    return Trajectory(_run(_walk_step(G, _positive_degrees(G)), x, max_steps,
                           lambda y, y2: float(np.max(np.abs(y - y2))) < tol))


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
    if c.certificate is None:
        return StationaryPrediction(StationaryKind.ZERO, (np.zeros(G.n),))
    s = c.certificate.s.astype(float)
    two_m = float(G.degrees.sum())
    base = (float(x @ s) / two_m) * s * G.degrees
    if c.verdict == Verdict.BALANCED:
        return StationaryPrediction(StationaryKind.FIXED, (base,))
    return StationaryPrediction(StationaryKind.ALTERNATING_PAIR, (-base, base))


# ---------------------------------------------------------------------------
# doubled two-species walk
# ---------------------------------------------------------------------------

def doubled_walk_simulate(G: SignedGraph, xplus0, xminus0, horizon: int) -> tuple[Trajectory, Trajectory]:
    """Evolve nonnegative positive/negative walker densities by the random
    walk on the unsigned doubled graph.

    Node v carries the positive walkers at v and node v + n the negative
    ones.  Edge k of weight w_k becomes two edges of weight |w_k|: a
    positive edge joins copies of equal sign (i-j and i+n - j+n), a negative
    one copies of opposite sign (i - j+n and i+n - j).  Both copies of a node
    have its degree in G.  The difference of the returned trajectories
    reproduces the signed walk started at xplus0 - xminus0; the sum
    reproduces the unsigned walk.
    """
    xp = _check_state(G, xplus0)
    xm = _check_state(G, xminus0)
    if np.any(xp < 0) or np.any(xm < 0):
        raise NegativeDensityError("walker densities must be nonnegative")
    n, shift = G.n, G.n * (G.w < 0)  # a negative edge crosses to the other species
    doubled = SignedGraph(2 * n, np.concatenate([G.i, G.i + n]), np.concatenate([G.j + shift, G.j + n - shift]),
                          np.abs(np.concatenate([G.w, G.w])))
    d = _positive_degrees(G)
    states = _run(_walk_step(doubled, np.concatenate([d, d])), np.concatenate([xp, xm]), horizon)
    return Trajectory(states[:, : G.n]), Trajectory(states[:, G.n :])


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

    def levels(self) -> np.ndarray:
        """Geometric magnitudes l0 * (theta_l * alpha)^t for t = 0..horizon, as
        iterated products (inf beyond the float range, which no field reaches)."""
        with np.errstate(over="ignore"):
            return self.l0 * np.cumprod(np.r_[1.0, np.full(self.horizon, self.theta_l * self.alpha)])


class ActivationSets:
    """Per-step positively/negatively active node sets of a trajectory.

    Only the sign of every state (an int8 row per step) is stored; each set
    is built when asked for.
    """

    def __init__(self, states: np.ndarray):
        states = np.asarray(states)
        self._signs = (states > 0).astype(np.int8) - (states < 0)

    def plus(self, t: int) -> frozenset:
        return _nodes(self._signs[t] > 0)

    def minus(self, t: int) -> frozenset:
        return _nodes(self._signs[t] < 0)

    def active(self, t: int) -> frozenset:
        return _nodes(self._signs[t] != 0)

    def new_active(self, t: int) -> frozenset:
        """Nodes active at t that were not active at t-1."""
        if t == 0:
            return self.active(0)
        return self.active(t) - self.active(t - 1)

    def ever_active(self) -> frozenset:
        return _nodes(self._signs.any(axis=0))


def _nodes(mask: np.ndarray) -> frozenset:
    return frozenset(np.flatnonzero(mask).tolist())


def _activate(field: np.ndarray, theta, level) -> np.ndarray:
    """The ELT rule: +level where field >= theta, -level where field <= -theta, else 0."""
    return np.where(field >= theta, level, np.where(field <= -theta, -level, 0))


def elt_simulate(G: SignedGraph, x0, cfg: ELTConfig) -> tuple[Trajectory, ActivationSets]:
    """Synchronous ELT update on the weighted signed graph.

    A node adopts +theta when its signed weighted input reaches theta,
    -theta when it reaches -theta, and drops to 0 otherwise; comparisons are
    inclusive, so exact boundary hits activate.
    """
    x = _check_state(G, x0)
    thresholds = cfg.general_thresholds  # row t-1 holds step t
    if thresholds is None:
        _check_stored(cfg.horizon, G.n)  # before the schedule is allocated
        thresholds = cfg.levels()[1:]
    elif thresholds.shape != (cfg.horizon, G.n):
        raise DimensionMismatchError(
            f"threshold table has shape {thresholds.shape}, expected ({cfg.horizon}, {G.n})"
        )
    W = G._operator(G.w)
    traj = Trajectory(_run(lambda y, t: _activate(W(y), thresholds[t - 1], thresholds[t - 1]), x, cfg.horizon))
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
    if (G._edge_ids(*circulant_pairs(n, half)) < 0).any():  # n * half distinct pairs, as many as the edges
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
    nbr, edge, start = G._csr
    run = slice(start[center], start[center + 1])
    seed = np.zeros(G.n, dtype=np.int64)
    seed[nbr[run]] = orientation * G.sign[edge[run]]
    seed[center] = 1
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
    _, alpha = ring_lattice_parameters(G)
    if cfg.general_thresholds is not None:
        raise ParamOutOfRangeError("lattice simulation uses the geometric schedule only")
    if abs(cfg.alpha - alpha) > 1e-12 * max(alpha, 1.0):
        raise ParamOutOfRangeError(
            f"config weight magnitude {cfg.alpha} does not match the lattice's {alpha}"
        )
    if not (0 <= seed_center < G.n):
        raise ParamOutOfRangeError(f"seed center {seed_center} out of range")
    if mode not in ("balanced", "antibalanced"):
        raise ParamOutOfRangeError(f"unknown mode {mode!r}")
    opposite = Verdict.ANTIBALANCED if mode == "balanced" else Verdict.BALANCED
    if classify(G).verdict == opposite:
        raise InconsistentModeError(f"{mode}-mode seeding on a purely {opposite.value} lattice")

    signs = _closed_neighbourhood(G, seed_center, 1 if mode == "balanced" else -1)
    A = G._operator(G.sign.astype(float))
    _check_stored(cfg.horizon, G.n)  # before the schedule is allocated
    levels = cfg.levels()

    def step(_, t):  # the integer signs advance beside the scaled states
        nonlocal signs
        signs = _activate(A(signs), cfg.theta_l, 1)
        return signs * levels[t]

    traj = Trajectory(_run(step, signs * levels[0], cfg.horizon))
    return traj, ActivationSets(traj.states)
