"""Symmetric eigensolves and the spectral balance measures.

Every solve takes a graph and one value per edge: ``w`` for W, ``abs(w)``
for |W| and :func:`~signednet.core._transition_edge_values` for P_sym =
D^-1/2 W D^-1/2, the symmetric similarity of the transition matrix P, so no
nonsymmetric solver is ever used.  :func:`_spectrum` returns a full dense
spectrum (the spectrum correspondence and the walk horizons of
verification).  :func:`_extremes` returns only its ends (the balance
measures, heuristic frustration, the perturbation shift): each caller names
the matrix, ``"W"``, ``"|W|"`` or ``"P_sym"``, and the ends it needs, 1 for
the top and -1 for the bottom.  It is the one place that picks a solver: one
``eigvalsh`` below :data:`LANCZOS_MIN_NODES` nodes, else
:func:`_lanczos_extremes`, a plain Lanczos recurrence on the edge arrays
that stores no basis and builds no n x n matrix.  Its convergence test, at
the step where each open end's residual trend predicts convergence, never
builds the k x k tridiagonal T: an end's Ritz value comes from Newton's
method on the LDL^T pivots of T - lambda, started above its last value by
its estimated move (:func:`_top_ritz_value`), and its residual and
eigenvector of T from one backward recurrence (:func:`_ritz_column`), each
in O(k) time and memory.  :func:`_extremes` keeps every end it solves on the
graph (``SignedGraph._spectral_memo``), so each end of each matrix is solved
at most once per graph; a Lanczos end is kept as plain data, O(k) numbers
(:class:`_RitzEnd`), from which :func:`_ritz_vector` rebuilds its Ritz
vector on request by replaying the recurrence to that end's step.  It is all
numpy; no scipy is imported.

The distance ``d_b``, the smallest eigenvalue of the random-walk Laplacian,
is zero exactly on balanced graphs, and ``d_a``, the gap between 2 and its
largest, exactly on antibalanced ones.  Both are invariant under switching
and under uniform weight scaling.  rho(W) = rho(|W|) unless the graph is
strictly unbalanced.  The graph's cached structural verdict
(``SignedGraph._structure``) says exactly which of these cases holds, so
each caller names only the ends it reports and the verdict leaves open:

* :func:`_distances` (all that CLI ``classify`` prints) names the ends of
  P_sym that ``_OPEN_ENDS`` lists for the verdict, and reports a distance
  the verdict fixes as exactly 0.0.
* :func:`balance_measures` adds the top of |W|, and both ends of W only on a
  strictly unbalanced graph; on any other graph rho(W) is rho(|W|) and the
  contraction exactly 0.0.
* Heuristic frustration names the top (balanced target) or the bottom
  (antibalanced) of P_sym, an end that the verdict leaves open whenever the
  graph lacks the target structure, so it finds the end that
  :func:`_distances` kept and computes that end's vector alone from it
  (:func:`_transition_end_vector`: a Lanczos end's replay, or one inverse
  iteration solve from a dense end's value); it names none when the graph
  already has the target structure.

The degree checks of P_sym run before any of this, on every graph.  The
raw solves name both ends whatever the verdict: :func:`_solved_distances`
(P_sym) and :func:`_solved_radius` (W).  The second serves
:func:`balance_measures` on strictly unbalanced graphs, and both serve
verification criteria 3 and 4 on every graph.  The memo holds solved ends
only, never a value the verdict fixes, so those criteria test the theorems
the skips rely on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Literal, NamedTuple, Optional, Sequence

import numpy as np

from .core import SignedGraph, _transition_edge_values
from .errors import LanczosNotConvergedError

#: graphs with at least this many nodes take the ends of a spectrum from
#: Lanczos, smaller ones from dense solves (read only by :func:`_extremes`).
#: Timing the solves alone on two-block SSBMs of mean degree 12 (eta = 0.05,
#: one BLAS thread), Lanczos overtakes dense near n = 185 for ``measure``,
#: 200 for ``classify --frustration`` and 215 for ``classify``.
LANCZOS_MIN_NODES = 250
#: a Lanczos end has converged when its residual is at most this times
#: max(1, |theta|), on the matrix scaled by a power of two to a largest
#: entry in [0.5, 1)
LANCZOS_TOLERANCE = 1e-11
#: distance beyond a dense end of P_sym (whose spectrum lies in [-1, 1]) at
#: which :func:`_transition_end_vector` shifts for inverse iteration: 5.7e-14,
#: over 20 times the largest error of an ``eigvalsh`` end seen on random graphs
#: of 12-248 nodes (2.4e-15), and small enough that one solve meets
#: ``LANCZOS_TOLERANCE`` for about 97 % of their ends
_INVERSE_SHIFT = 2.0 ** -44
#: seed of the fixed Lanczos start vector (a vector of ones can be orthogonal
#: to the wanted eigenvector, e.g. s * sqrt(d) on a balanced graph with equal blocks)
_LANCZOS_SEED = 0


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in descending order and their orthonormal eigenvectors,
    column k for ``eigenvalues[k]`` and signed by :func:`_sign_normalised`
    (None when only eigenvalues were solved)."""

    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray]


def _sign_normalised(vecs: np.ndarray) -> np.ndarray:
    """``vecs`` with each column negated where needed so that its entries sum
    to a positive number, a sign no relabelling of nodes changes, or, where
    that sum is within rounding of zero, so that its first entry within
    rounding of the largest magnitude is positive (exact ties, as on paths)."""
    if vecs.size:
        mags = np.abs(vecs)
        top, sums = mags.max(axis=0), vecs.sum(axis=0)
        tied = np.abs(sums) <= 2.0 ** -26 * top  # "within rounding", relative to the largest magnitude
        if tied.any():
            sums[tied] = vecs[np.argmax(mags[:, tied] >= top[tied] * (1 - 2.0 ** -26), axis=0), np.flatnonzero(tied)]
        vecs *= np.where(sums < 0, -1.0, 1.0)
    return vecs


def _spectrum(G: SignedGraph, values: np.ndarray, vectors: bool = False) -> Spectrum:
    """The full spectrum of the matrix holding ``values`` on the edges, built
    dense: eigenvalues in descending order by ``eigvalsh``, or by ``eigh``
    with sign-normalised eigenvectors if ``vectors``.  The full-spectrum
    twin of :func:`_extremes`."""
    M = G._matrix(values)
    if not vectors:
        return Spectrum(eigenvalues=np.linalg.eigvalsh(M)[::-1], eigenvectors=None)
    vals, vecs = np.linalg.eigh(M)
    return Spectrum(eigenvalues=vals[::-1], eigenvectors=_sign_normalised(vecs[:, ::-1]))


def _lanczos_step_cap(n: int) -> int:
    """Most steps one Lanczos solve takes on an n x n matrix before it gives up."""
    return 4 * n + 200


def _lanczos_vectors(matvec: Callable[[np.ndarray], np.ndarray], n: int, alpha: Sequence[float],
                     beta: Sequence[float]) -> Iterator[np.ndarray]:
    """The Lanczos vectors q_1, q_2, ... of the plain three-term recurrence
    from the fixed seeded start vector, keeping only q and q_prev.

    Step k reads alpha[k-1] and beta[k-1] when the sequences already hold
    them, and else computes and appends them (to lists), so a second pass
    with the coefficients of a first replays its vectors bit for bit.  Both
    coefficients of step k are in the sequences when q_k is yielded; the
    next vector r / beta[k-1] is formed only when the caller asks for it.
    """
    start = np.random.default_rng(_LANCZOS_SEED).standard_normal(n)
    q, q_prev = start / np.linalg.norm(start), np.zeros(n)
    for k in itertools.count():
        r = matvec(q)
        if k == len(alpha):
            alpha.append(float(r @ q))
        r -= alpha[k] * q
        r -= (beta[k - 1] if k else 0.0) * q_prev
        if k == len(beta):
            beta.append(float(np.linalg.norm(r)))
        yield q
        q, q_prev = r / beta[k], q


def _newton_step(alpha: list[float], beta: list[float], lam: float) -> Optional[float]:
    """Newton's step lam - lam' for det(lam - T) at ``lam`` when ``lam`` lies
    above every eigenvalue of the tridiagonal T (diagonal ``alpha``,
    off-diagonal ``beta[:k-1]``), else None; one O(k) pass.

    The pass runs the pivots of T - lam = L D L^T, d_1 = alpha_1 - lam and
    d_i = alpha_i - lam - beta_{i-1}**2 / d_{i-1}, and stops at the first
    that is not negative: by Sylvester's law of inertia lam lies above every
    eigenvalue exactly when all k are.  det(T - lam) is their product, so
    the log-derivative of det(lam - T), sum_j 1 / (lam - theta_j), is the sum
    of d_i' / d_i, carried along with d_i' = -1 + beta_{i-1}**2 d_{i-1}' /
    d_{i-1}**2; the step is its reciprocal.
    """
    d = alpha[0] - lam
    if d >= 0.0:
        return None
    g = -1.0 / d  # d_i' / d_i
    total = g
    for a, b in zip(alpha[1:], beta):
        t = b * b / d
        d = a - lam - t
        if d >= 0.0:
            return None
        g = (t * g - 1.0) / d
        total += g
    return 1.0 / total


def _top_ritz_value(alpha: list[float], beta: list[float], start: float, step: float) -> float:
    """The largest eigenvalue of the tridiagonal T (diagonal ``alpha``,
    off-diagonal ``beta[:k-1]``) in a few O(k) passes of :func:`_newton_step`.

    ``start`` is the end's Ritz value at an earlier step, at most the one
    sought by interlacing, and ``step`` an estimate of how far it has moved
    since.  start + step, the step doubled until a pass certifies it, is an
    upper bound; above its largest root det(lam - T) is increasing and convex,
    so Newton's iterates from the bound descend monotonically to that root,
    quadratically once nearer to it than to the next one.  The descent stops
    when a step no longer lowers lam, or when a pass meets a pivot that is
    not negative: that iterate, the root to within rounding, is returned.
    """
    step = max(step, 2.0 ** -52 * max(1.0, abs(start)))  # a zero step would double forever
    while (delta := _newton_step(alpha, beta, start + step)) is None:
        step *= 2.0
    lam = start + step
    while True:
        below = lam - delta
        if below >= lam:
            return lam
        if (delta := _newton_step(alpha, beta, below)) is None:
            return below
        lam = below


def _ritz_column(alpha: list[float], beta: list[float], theta: float) -> np.ndarray:
    """The unit eigenvector y of the tridiagonal T (diagonal ``alpha``,
    off-diagonal ``beta[:k-1]``) for its eigenvalue ``theta``, last entry
    positive, in O(k) time and memory.

    Rows k, k-1, ..., 2 of (T - theta) y = 0 give y_{k-1}, ..., y_1 from
    y_k = 1 by a backward three-term recurrence (row 1 holds up to the
    rounding of theta).  The ratios y_{i-1} / y_i are the pivots of the
    factorisation T - theta = U D U^T from the last row up.  For an end of
    the spectrum T - theta is semidefinite, so the pivots keep one sign and
    do not grow, as in a Cholesky factorisation.  Only a near-duplicate of
    theta (a ghost copy, which forms after the end has converged) makes y as
    ill-conditioned as a column of a dense eigensolver.  The entries are
    rescaled by a power of two whenever one passes 2**400, so neither they
    nor their sum of squares overflow.  The off-diagonal is nonzero: a beta
    below ``LANCZOS_TOLERANCE / 2`` ends the solve.
    """
    y, y_next, norm2 = 1.0, 0.0, 1.0
    ys, rescaled = [1.0], []  # y_k, y_{k-1}, ...; the lengths of ys at each rescaling
    for i in range(len(alpha) - 1, 0, -1):
        y, y_next = -((alpha[i] - theta) * y + beta[i] * y_next) / beta[i - 1], y
        if abs(y) > 2.0 ** 400:
            y, y_next, norm2 = y * 2.0 ** -400, y_next * 2.0 ** -400, norm2 * 2.0 ** -800
            rescaled.append(len(ys))
        norm2 += y * y
        ys.append(y)
    column = np.array(ys[::-1])
    for length in rescaled:
        column[len(column) - length:] *= 2.0 ** -400
    return column / math.sqrt(norm2)


class _RitzEnd(NamedTuple):
    """One end of a Lanczos solve, accepted at step k, as plain data: O(k)
    numbers and no reference to the graph or its operator.  ``value`` is the
    end's eigenvalue, ``scale`` the power of two the matrix was divided by,
    ``alpha`` and ``beta`` the recurrence coefficients alpha_1..alpha_k and
    beta_1..beta_k, and ``column`` the end's unit eigenvector of the k x k
    tridiagonal T, from which :func:`_ritz_vector` rebuilds its Ritz vector."""

    value: float
    scale: float
    alpha: tuple[float, ...]
    beta: tuple[float, ...]
    column: np.ndarray


def _lanczos_extremes(G: SignedGraph, values: np.ndarray,
                      ends: Sequence[Literal[1, -1]] = (1, -1)) -> tuple[_RitzEnd, ...]:
    """The ``ends`` (1 the largest eigenvalue, -1 the smallest) of the
    symmetric n x n matrix holding ``values[k]`` at (i_k, j_k) and (j_k, i_k)
    and zero elsewhere.

    Plain three-term Lanczos from a fixed seeded start vector, with no stored
    basis and no reorthogonalisation: lost orthogonality only adds copies of
    Ritz values that have already converged (Paige 1980), so each end is
    taken at the first convergence test it passes, before a copy of it can
    form.  Each matvec is the edge-array product
    :meth:`~signednet.core.SignedGraph._operator`, so memory stays O(n + m).
    The matrix is scaled by a power of two, exactly, to a largest entry in
    [0.5, 1), so huge or tiny weights neither overflow nor loosen the test.

    An end e has converged when its Ritz residual beta_k |s_e| is at most
    ``LANCZOS_TOLERANCE * max(1, |theta_e|)``, where s_e is the last entry of
    theta_e's unit eigenvector y_e of the k x k tridiagonal T.  A test never
    builds T.  For each open end it takes theta_e as :func:`_top_ritz_value`
    of T (the top) or of -T (the bottom), searched up from the end's value at
    its last test by its last move times the squared ratio of its last two
    residuals (at the first test, from the Ritz pair of step 1, alpha_1 and
    beta_1), and y_e from :func:`_ritz_column`, each in O(k) time and memory.
    The test runs at k = 2 and then at the first step where an open end's
    residual, extrapolated geometrically from its last two tests, meets its
    bound, but never more than about 25 % more steps on.  It also runs on an
    exact breakdown (a beta that meets every end's test) and at the step cap,
    past which :class:`~signednet.errors.LanczosNotConvergedError` is raised.

    Returns each end, in the order of ``ends``, as the :class:`_RitzEnd` of
    the step it was accepted at, whose vector :func:`_ritz_vector` rebuilds
    on request.
    """
    n = G.n
    scale = np.ldexp(1.0, int(np.frexp(np.max(np.abs(values)))[1]))
    matvec = G._operator(values / scale)
    cap = _lanczos_step_cap(n)

    alpha: list[float] = []
    beta: list[float] = []
    negated: list[float] = []  # -alpha, the diagonal of -T, grown beside it
    found: dict[int, _RitzEnd] = {}
    last_test: dict[int, tuple[int, float, float, float]] = {}  # open end -> (step, residual, Ritz value, estimated next move) at its last test
    check = 2
    for k, _ in enumerate(_lanczos_vectors(matvec, n, alpha, beta), start=1):
        b = beta[-1]
        negated.append(-alpha[-1])
        if k >= check or k == cap or b <= LANCZOS_TOLERANCE / 2:  # a beta that small meets every end's test
            check = max(k + 1, int(k * 1.25))
            for e in ends:  # 1: the top of T, -1: the top of -T
                if e in found:
                    continue
                k_prev, r_prev, top_prev, move = last_test.get(e, (k, beta[0], e * alpha[0], beta[0]))  # or the step-1 pair
                theta = e * _top_ritz_value(alpha if e > 0 else negated, beta, top_prev, move)
                column = _ritz_column(alpha, beta, theta)
                r = b * float(column[-1])  # a Python float: numpy scalars would slow the next test several-fold
                target = LANCZOS_TOLERANCE * max(1.0, abs(theta))
                if r <= target:
                    found[e] = _RitzEnd(float(theta * scale), float(scale), tuple(alpha), tuple(beta), column)
                    continue
                if e in last_test and r < r_prev:  # test again at the step j where r * (r / r_prev) ** ((j - k) / (k - k_prev)) = target
                    steps = math.ceil(math.log(target / r) / math.log(r / r_prev) * (k - k_prev))
                    check = min(check, k + max(1, steps))
                last_test[e] = (k, r, e * theta, (e * theta - top_prev) * (r / r_prev) ** 2)  # theta's error is about r**2 / gap
            if len(found) == len(ends):
                break
            if k == cap:
                raise LanczosNotConvergedError(f"Lanczos did not converge on the {n} x {n} matrix within {cap} steps")

    return tuple(found[e] for e in ends)


def _ritz_vector(G: SignedGraph, values: np.ndarray, end: _RitzEnd) -> np.ndarray:
    """The unit Ritz vector of ``end``, an end of the Lanczos solve of the
    matrix holding ``values`` on the edges, up to sign: the sum of y_i q_i
    over its column y, the Lanczos vectors q_i replayed with its stored
    coefficients to the step k it was accepted at, bit for bit those of the
    solve.  That is k matvecs, and q and q_prev are the only vectors kept."""
    ritz = np.zeros(G.n)
    for y, q in zip(end.column, _lanczos_vectors(G._operator(values / end.scale), G.n, end.alpha, end.beta)):
        ritz += y * q
    return ritz / np.linalg.norm(ritz)


def _extremes(G: SignedGraph, matrix: Literal["W", "|W|", "P_sym"],
              ends: Sequence[Literal[1, -1]] = (1, -1)) -> tuple[float, ...]:
    """The ``ends`` (1 the largest eigenvalue, -1 the smallest) of W, |W| or
    P_sym, as ``matrix`` names it, in the order of ``ends``.

    The ends not yet kept for that graph and matrix are solved together:
    from :data:`LANCZOS_MIN_NODES` nodes on by one :func:`_lanczos_extremes`
    run that tests exactly those ends, below by one ``eigvalsh``.  Each is
    kept in ``SignedGraph._spectral_memo`` as its value and, from a Lanczos
    solve, its :class:`_RitzEnd` (else None): plain data, so the graph is
    still freed by reference counting.  Only solved ends are kept, never a
    value that the verdict fixes.  An end solved alone and one solved with
    the other end may differ in the last bits, so when two threads both
    solve an end the first to keep it wins, and every caller reads that one.
    """
    kept = G._spectral_memo.setdefault(matrix, {})
    missing = tuple(e for e in ends if e not in kept)
    if missing:
        values = G.w if matrix == "W" else np.abs(G.w) if matrix == "|W|" else _transition_edge_values(G)
        if G.n >= LANCZOS_MIN_NODES:
            solved = [(end.value, end) for end in _lanczos_extremes(G, values, missing)]
        else:
            spectrum = np.linalg.eigvalsh(G._matrix(values))
            solved = [(float(spectrum[-1 if e > 0 else 0]), None) for e in missing]
        for e, entry in zip(missing, solved):
            kept.setdefault(e, entry)
    return tuple(kept[e][0] for e in ends)


# ---------------------------------------------------------------------------
# balance measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BalanceMeasures:
    """Distances from balance/antibalance plus the two spectral radii.

    ``contraction`` is rho(|W|) - rho(W), never negative: exactly 0.0 on
    graphs that are not strictly unbalanced, and positive on strictly
    unbalanced ones unless the gap is below the rounding of the two solves,
    where it is 0.0 too.
    """

    d_b: float
    d_a: float
    spectral_radius_signed: float
    spectral_radius_unsigned: float

    @property
    def contraction(self) -> float:
        return self.spectral_radius_unsigned - self.spectral_radius_signed


class _Distances(NamedTuple):
    d_b: float
    d_a: float


def _solved_distances(G: SignedGraph) -> _Distances:
    """d_b = lambda_min(L_rw) = 1 - lambda_max(P_sym) and d_a = 2 -
    lambda_max(L_rw) = 1 + lambda_min(P_sym), P_sym being the symmetric
    similarity of P, from both ends of P_sym whatever the verdict."""
    top, bottom = _extremes(G, "P_sym")
    return _Distances(d_b=1.0 - top, d_a=1.0 + bottom)


def _solved_radius(G: SignedGraph) -> float:
    """rho(W) = max(lambda_max, -lambda_min), from both ends of W whatever the verdict."""
    top, bottom = _extremes(G, "W")
    return max(top, -bottom)


#: per verdict ``SignedGraph._structure`` (balanced, antibalanced): the ends
#: of P_sym that it leaves open, 1 the top (d_b) and -1 the bottom (d_a)
_OPEN_ENDS = {(False, False): (1, -1), (True, False): (-1,), (False, True): (1,), (True, True): ()}


def _transition_end_vector(G: SignedGraph, end: Literal[1, -1]) -> np.ndarray:
    """A unit eigenvector of P_sym at its top (``end`` 1) or bottom (-1), an
    end that the verdict leaves open, up to sign: from a Lanczos solve, its
    Ritz vector replayed from the kept end to the step it was accepted at,
    no other end and no further; below :data:`LANCZOS_MIN_NODES` nodes by
    inverse iteration from the kept end's value lambda (Ipsen 1997).

    The dense step solves (P_sym - mu) x = b for the fixed seeded vector b,
    with mu = lambda + end * ``_INVERSE_SHIFT``, just beyond the end and far
    above lambda's rounding, so P_sym - mu is definite.  Each solve shrinks
    every other eigenvector's share of x by the ratio of the shift to that
    eigenvalue's distance from mu, so one solve leaves a residual of about
    the shift times the ratio of b's other components to its component
    along the end; a second solve from x runs only when the residual
    |P_sym x - lambda x| exceeds ``LANCZOS_TOLERANCE``.  The dense vector is
    signed as :func:`_sign_normalised` signs a column of :func:`_spectrum`."""
    (value,) = _extremes(G, "P_sym", (end,))
    _, ritz = G._spectral_memo["P_sym"][end]
    p = _transition_edge_values(G)
    if ritz is not None:
        return _ritz_vector(G, p, ritz)
    shift = end * _INVERSE_SHIFT
    M = G._matrix(p)
    M.flat[::G.n + 1] = -(value + shift)  # P_sym has a zero diagonal
    x = np.random.default_rng(_LANCZOS_SEED).standard_normal(G.n)
    for _ in range(2):
        x = np.linalg.solve(M, x)
        x /= np.linalg.norm(x)
        if np.linalg.norm(M @ x + shift * x) <= LANCZOS_TOLERANCE:
            break
    return _sign_normalised(x[:, None])[:, 0]


def _distances(G: SignedGraph) -> _Distances:
    """d_b and d_a as :func:`_solved_distances` defines them, except that a
    distance the verdict fixes is exactly 0.0: the top of P_sym is exactly 1
    on a balanced graph, its bottom exactly -1 on an antibalanced one.  Only
    the ends the verdict leaves open are solved; on a graph that is both
    only the degree checks run."""
    opened = _OPEN_ENDS[G._structure]
    if not opened:
        _transition_edge_values(G)  # the degree checks of P_sym run on every graph
    ends = dict(zip(opened, _extremes(G, "P_sym", opened)))
    return _Distances(d_b=1.0 - ends.get(1, 1.0), d_a=1.0 + ends.get(-1, -1.0))


def balance_measures(G: SignedGraph) -> BalanceMeasures:
    """d_b, d_a and the signed/unsigned spectral radii of W.

    d_b and d_a come from :func:`_distances`.  |W| is nonnegative, so by
    Perron-Frobenius its spectral radius is its largest eigenvalue, and no
    eigenvalue of W exceeds it in modulus.  rho(W) is rho(|W|) unless the
    graph is strictly unbalanced, and only then is it solved, by
    :func:`_solved_radius`, and capped at rho(|W|), so the contraction is
    never negative and exactly 0.0 on any other graph.  Only ends of spectra
    are read, each from :func:`_extremes`, no eigenvectors: on a strictly
    unbalanced graph both ends of P_sym, then of W, then the top of |W|.
    """
    d = _distances(G)
    rho_signed = math.inf if any(G._structure) else _solved_radius(G)
    (rho_unsigned,) = _extremes(G, "|W|", (1,))
    return BalanceMeasures(
        d_b=d.d_b,
        d_a=d.d_a,
        spectral_radius_signed=min(rho_signed, rho_unsigned),
        spectral_radius_unsigned=rho_unsigned,
    )
