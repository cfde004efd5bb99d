"""Symmetric eigensolves and the spectral balance characterizations.

Eigenvalues of the (nonsymmetric) transition matrix P are always obtained
through its symmetric similarity P_sym = D^-1/2 W D^-1/2, never through a
general nonsymmetric solver.

Two dense entry points do every full eigensolve, sharing one symmetry check:
:func:`eigenvalues_symmetric` (the walk horizons of verification criterion
6) and :func:`eigendecompose_symmetric`, which adds sign-normalised
eigenvectors (:func:`verify_spectral_theorem`).  The balance measures,
heuristic frustration and the realized shift of :func:`perturbation_estimate`
read only the ends of a spectrum, all from :func:`_extremes`, the one place
that picks a solver: dense below :data:`LANCZOS_MIN_NODES` nodes, else
:func:`_lanczos_extremes`, a plain Lanczos recurrence on the edge arrays
that stores no basis and builds no n x n matrix.  Each caller solves only
the ends it reports: ``d_b`` and ``d_a`` both ends of P_sym
(:func:`_distances`, all that CLI ``classify`` prints), the radii both ends
of W and the top of |W|, heuristic frustration the top of W or -W with its
vector.  Everything is numpy: no scipy is imported.

The two distance measures live here:

* ``d_b``: smallest eigenvalue of the random-walk Laplacian, zero exactly on
  balanced graphs;
* ``d_a``: gap between 2 and its largest eigenvalue, zero exactly on
  antibalanced graphs.

Both are invariant under switching and under uniform weight scaling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Literal, NamedTuple, Optional

import numpy as np

from .balance import BalanceClassification, Verdict, apply_flip_set, classify
from .core import SignedGraph, _transition_edge_values, unsigned_counterpart
from .errors import (
    EdgeNotPresentError,
    LanczosNotConvergedError,
    NotBalancedError,
    NotSymmetricError,
    WrongVerdictError,
)

SYMMETRY_TOLERANCE = 1e-12
#: adjacent eigenvalues closer than this are treated as one degenerate group
DEGENERACY_GAP = 1e-8
#: graphs with at least this many nodes take the ends of a spectrum from
#: Lanczos, smaller ones from dense solves (read only by :func:`_extremes`).
#: On two-block SSBMs of mean degree 12 (eta = 0.05) with one BLAS thread,
#: Lanczos overtakes dense near n = 190 for ``classify --frustration`` (P_sym,
#: then the top of W with its vector), near n = 275 for ``measure`` (P_sym, W,
#: |W|) and near n = 370 for ``classify`` (P_sym alone); 250 sits between the
#: first two.  Below a few hundred nodes a solve costs its per-step overhead,
#: not the basis it no longer stores, so the crossover barely moved.
LANCZOS_MIN_NODES = 250
#: a Lanczos end has converged when its residual is at most this times
#: max(1, |theta|), on the matrix scaled by a power of two to a largest
#: entry in [0.5, 1)
LANCZOS_TOLERANCE = 1e-11
#: seed of the fixed Lanczos start vector (a vector of ones can be orthogonal
#: to the wanted eigenvector, e.g. s * sqrt(d) on a balanced graph with equal blocks)
_LANCZOS_SEED = 0


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in descending order with matching orthonormal eigenvectors.

    Column k of ``eigenvectors`` belongs to ``eigenvalues[k]``.  Vector signs
    follow a deterministic convention: the largest-magnitude entry of each
    column is positive (first such entry on exact ties).  ``eigenvectors`` is
    None when only eigenvalues were solved.
    """

    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray]

    def degenerate_groups(self, gap: float = DEGENERACY_GAP) -> list[list[int]]:
        """Indices grouped by eigenvalue proximity (descending order)."""
        groups: list[list[int]] = [[0]]
        for k in range(1, len(self.eigenvalues)):
            if abs(self.eigenvalues[k - 1] - self.eigenvalues[k]) < gap:
                groups[-1].append(k)
            else:
                groups.append([k])
        return groups


def _checked_symmetric(M: np.ndarray) -> np.ndarray:
    """M itself when exactly symmetric, else its exactly symmetric part, or
    :class:`NotSymmetricError`."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSymmetricError(f"expected a square matrix, got shape {M.shape}")
    asym = float(np.max(np.abs(M - M.T))) if M.size else 0.0
    if asym > SYMMETRY_TOLERANCE:
        raise NotSymmetricError(f"matrix is not symmetric: max |M - M^T| = {asym:.3e}")
    # (M + M^T) / 2 to the bit outside the subnormals, without overflowing near the float maximum
    return M if asym == 0.0 else M / 2.0 + M.T / 2.0


def eigenvalues_symmetric(M: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix in descending order, no eigenvectors.

    Raises :class:`NotSymmetricError` when max |M - M^T| exceeds 1e-12.
    """
    return np.linalg.eigvalsh(_checked_symmetric(M))[::-1].copy()


def eigendecompose_symmetric(M: np.ndarray) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix, descending eigenvalues.

    Raises :class:`NotSymmetricError` when max |M - M^T| exceeds 1e-12.
    """
    vals, vecs = np.linalg.eigh(_checked_symmetric(M))
    return Spectrum(eigenvalues=vals[::-1].copy(), eigenvectors=_sign_normalised(vecs[:, ::-1].copy()))


def _sign_normalised(vecs: np.ndarray) -> np.ndarray:
    """``vecs`` with each column negated where needed so that its
    largest-magnitude entry is positive (the first such entry on exact ties)."""
    if vecs.size:
        lead = np.argmax(np.abs(vecs), axis=0)  # argmax picks the first entry on exact ties
        vecs *= np.where(vecs[lead, np.arange(vecs.shape[1])] < 0, -1.0, 1.0)
    return vecs


def _lanczos_step_cap(n: int) -> int:
    """Most steps one Lanczos solve takes on an n x n matrix before it gives up."""
    return 4 * n + 200


def _lanczos_vectors(matvec: Callable[[np.ndarray], np.ndarray], n: int, alpha: list[float],
                     beta: list[float]) -> Iterator[np.ndarray]:
    """The Lanczos vectors q_1, q_2, ... of the plain three-term recurrence
    from the fixed seeded start vector, keeping only q and q_prev.

    Step k reads alpha[k-1] and beta[k-1] when the lists already hold them,
    and else computes and appends them, so a second pass with the lists of a
    first replays its vectors bit for bit.  Both coefficients of step k are
    in the lists when q_k is yielded; the next vector r / beta[k-1] is formed
    only when the caller asks for it.
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


def _lanczos_extremes(G: SignedGraph, values: np.ndarray, ends: Literal["both", "top"] = "both",
                      vectors: bool = True) -> Spectrum:
    """The largest and the smallest eigenpair (``"both"``), or the largest
    alone (``"top"``), of the symmetric n x n matrix holding ``values[k]`` at
    (i_k, j_k) and (j_k, i_k) and zero elsewhere.

    Plain three-term Lanczos from a fixed seeded start vector, with no stored
    basis and no reorthogonalisation: lost orthogonality only adds copies of
    Ritz values that have already converged (Paige 1980), so each end is
    taken at the first convergence test it passes, before a copy of it can
    form.  Each matvec is the edge-array product
    :meth:`~signednet.core.SignedGraph._operator`, so memory stays O(n + m).
    The matrix is scaled by a power of two, exactly, to a largest entry in
    [0.5, 1), so huge or tiny weights neither overflow nor loosen the test.
    An end e has converged when its Ritz residual |beta_k S[k-1, e]| is at
    most ``LANCZOS_TOLERANCE * max(1, |theta_e|)``.  The test runs at k = 2
    and then about every 25 % more steps, since the small tridiagonal solve
    it needs is the costly part; it also runs on an exact breakdown (a beta
    that meets every end's test) and at the step cap, past which
    :class:`~signednet.errors.LanczosNotConvergedError` is raised.

    With ``vectors``, each end's Ritz vector is rebuilt by replaying the
    recurrence with the stored coefficients up to that end's step, unit
    normalised and signed like :func:`eigendecompose_symmetric`.  Returns
    eigenvalues ``[top, bottom]`` or ``[top]`` with matching columns.
    """
    n = G.n
    scale = np.ldexp(1.0, int(np.frexp(np.max(np.abs(values)))[1]))
    matvec = G._operator(values / scale)
    tested = [-1, 0] if ends == "both" else [-1]  # columns of eigh's ascending output
    cap = _lanczos_step_cap(n)

    alpha: list[float] = []
    beta: list[float] = []
    found: dict[int, tuple[float, np.ndarray]] = {}  # end -> (Ritz value, its column of S)
    check = 2
    for k, _ in enumerate(_lanczos_vectors(matvec, n, alpha, beta), start=1):
        b = beta[-1]
        if k >= check or k == cap or b <= LANCZOS_TOLERANCE / 2:  # a beta that small meets every end's test
            T = np.diag(alpha)
            T.flat[1::k + 1] = T.flat[k::k + 1] = beta[:-1]
            theta, S = np.linalg.eigh(T)
            for e in tested:
                if e not in found and b * abs(S[-1, e]) <= LANCZOS_TOLERANCE * max(1.0, abs(theta[e])):
                    found[e] = (float(theta[e]), S[:, e])
            if len(found) == len(tested):
                break
            if k == cap:
                raise LanczosNotConvergedError(f"Lanczos did not converge on the {n} x {n} matrix within {cap} steps")
            check = max(k + 1, int(k * 1.25))

    eigenvalues = np.array([found[e][0] for e in tested]) * scale
    if not vectors:
        return Spectrum(eigenvalues=eigenvalues, eigenvectors=None)
    S = np.zeros((max(len(found[e][1]) for e in tested), len(tested)))  # each end's column, zero past its step
    for c, e in enumerate(tested):
        S[:len(found[e][1]), c] = found[e][1]
    ritz = np.zeros((n, len(tested)))
    for s, q in zip(S, _lanczos_vectors(matvec, n, alpha, beta)):
        ritz += np.outer(q, s)
    return Spectrum(eigenvalues=eigenvalues, eigenvectors=_sign_normalised(ritz / np.linalg.norm(ritz, axis=0)))


def _extremes(G: SignedGraph, values: Optional[np.ndarray] = None, ends: Literal["both", "top"] = "both",
              vectors: bool = False) -> Spectrum:
    """Eigenpairs ``[top, bottom]`` (``"both"``) or ``[top]`` (``"top"``) of
    the matrix holding ``values`` on the edges (W when None): from
    :data:`LANCZOS_MIN_NODES` nodes on by :func:`_lanczos_extremes`, below by
    dense ``eigvalsh``, or ``eigh`` with sign-normalised vectors if
    ``vectors``.  Only the requested ends are returned, so no caller reads an
    end that was never tested for convergence."""
    if G.n >= LANCZOS_MIN_NODES:
        return _lanczos_extremes(G, G.w if values is None else values, ends, vectors)
    M = G.weight_matrix if values is None else G._matrix(values)
    columns = [-1, 0] if ends == "both" else [-1]
    if not vectors:
        return Spectrum(eigenvalues=np.linalg.eigvalsh(M)[columns], eigenvectors=None)
    vals, vecs = np.linalg.eigh(M)
    return Spectrum(eigenvalues=vals[columns], eigenvectors=_sign_normalised(vecs[:, columns]))


# ---------------------------------------------------------------------------
# spectral theorem verification
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


def _group_projector(spec: Spectrum, group: list[int]) -> np.ndarray:
    V = spec.eigenvectors[:, group]
    return V @ V.T


def verify_spectral_theorem(G: SignedGraph, c: BalanceClassification) -> SpectralTheoremReport:
    """Check the balanced/antibalanced eigenstructure correspondence.

    Requires a Balanced, Antibalanced or Both verdict; for Both the balanced
    correspondence is checked (the antibalanced one follows by negation).
    """
    if c.verdict == Verdict.STRICTLY_UNBALANCED:
        raise WrongVerdictError("spectrum correspondence only holds for balanced or antibalanced graphs")
    signed = eigendecompose_symmetric(G.weight_matrix)
    unsigned = eigendecompose_symmetric(unsigned_counterpart(G).weight_matrix)

    s = c.certificate.s.astype(float)
    # signed eigenpair order[k] matches unsigned eigenpair k, with its eigenvalue negated if antibalanced
    order = np.arange(G.n) if c.is_balanced else np.arange(G.n)[::-1]
    negation = 1.0 if c.is_balanced else -1.0
    values_dev = float(np.max(np.abs(signed.eigenvalues[order] - negation * unsigned.eigenvalues)))

    subspace_dev = 0.0
    for group in unsigned.degenerate_groups():
        proj_signed = _group_projector(signed, order[group])
        conjugated = _group_projector(unsigned, group) * np.outer(s, s)
        subspace_dev = max(subspace_dev, float(np.max(np.abs(proj_signed - conjugated))))

    lead_signed, lead_unsigned = signed.eigenvectors[:, order[0]], unsigned.eigenvectors[:, 0]
    leading_dev = float(np.max(np.abs(np.abs(lead_signed) - np.abs(lead_unsigned))))
    return SpectralTheoremReport(
        verdict=c.verdict,
        eigenvalue_max_dev=values_dev,
        subspace_max_dev=subspace_dev,
        leading_magnitude_dev=leading_dev,
    )


# ---------------------------------------------------------------------------
# balance measures and perturbation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BalanceMeasures:
    """Distances from balance/antibalance plus the two spectral radii.

    ``contraction`` is rho(|W|) - rho(W), strictly positive exactly on
    strictly unbalanced graphs.
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


def _distances(G: SignedGraph) -> _Distances:
    """d_b = lambda_min(L_rw) and d_a = 2 - lambda_max(L_rw), from the two
    ends of P_sym, the symmetric similarity of P (one solve)."""
    p_vals = _extremes(G, _transition_edge_values(G)).eigenvalues
    return _Distances(d_b=float(1.0 - p_vals[0]), d_a=float(1.0 + p_vals[-1]))


def balance_measures(G: SignedGraph) -> BalanceMeasures:
    """d_b, d_a and the signed/unsigned spectral radii of W.

    d_b and d_a come from :func:`_distances`.  rho(W) = max(lambda_max,
    -lambda_min); |W| is nonnegative, so by Perron-Frobenius its spectral
    radius is its largest eigenvalue.  Only the ends of the three spectra
    are read, each from :func:`_extremes`: both ends of P_sym and W, the top
    end of |W|, no eigenvectors.
    """
    d = _distances(G)
    w_vals = _extremes(G).eigenvalues
    rho_unsigned = _extremes(G, np.abs(G.w), ends="top").eigenvalues[0]
    return BalanceMeasures(
        d_b=d.d_b,
        d_a=d.d_a,
        spectral_radius_signed=float(max(w_vals[0], -w_vals[-1])),
        spectral_radius_unsigned=float(rho_unsigned),
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
    reads the top end of the flipped graph's P_sym from :func:`_extremes`,
    so from :data:`LANCZOS_MIN_NODES` nodes on no n x n matrix is built.
    """
    c = classify(G_b)
    if not c.is_balanced:
        raise NotBalancedError("perturbation baseline must be a balanced graph")
    for e in flip_set:
        if not G_b.has_edge(e[0], e[1]):
            raise EdgeNotPresentError(f"edge ({e[0]}, {e[1]}) is not present in the graph")
    flipped_weight = float(sum(abs(G_b.weight(e[0], e[1])) for e in flip_set))
    m = float(G_b.degrees.sum()) / 2.0
    delta = -2.0 * flipped_weight / m
    flipped = apply_flip_set(G_b, flip_set)
    realized = float(_extremes(flipped, _transition_edge_values(flipped), ends="top").eigenvalues[0] - 1.0)
    return PerturbationEstimate(
        delta_max=delta,
        delta_min=-delta,
        flipped_weight=flipped_weight,
        m=m,
        realized_shift_max=realized,
    )
