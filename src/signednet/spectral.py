"""Symmetric eigensolves and the spectral balance characterizations.

Eigenvalues of the (nonsymmetric) transition matrix P are always obtained
through its symmetric similarity P_sym = D^-1/2 W D^-1/2, never through a
general nonsymmetric solver.

Two dense entry points do every full eigensolve, sharing one symmetry check:
:func:`eigenvalues_symmetric` (the walk horizons of verification criterion
6) and :func:`eigendecompose_symmetric`, which adds sign-normalised
eigenvectors (:func:`verify_spectral_theorem`).  The balance measures,
heuristic frustration and the realized shift of :func:`perturbation_estimate`
read only the two ends of a spectrum, all from :func:`_extremes`, the one
place that picks a solver: dense below :data:`LANCZOS_MIN_NODES` nodes,
else :func:`_lanczos_extremes` on the edge arrays, building no n x n
matrix.  Everything is numpy: no scipy is imported.

The two distance measures live here:

* ``d_b``: smallest eigenvalue of the random-walk Laplacian, zero exactly on
  balanced graphs;
* ``d_a``: gap between 2 and its largest eigenvalue, zero exactly on
  antibalanced graphs.

Both are invariant under switching and under uniform weight scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from .balance import BalanceClassification, Verdict, apply_flip_set, classify
from .core import SignedGraph, _transition_edge_values, unsigned_counterpart
from .errors import EdgeNotPresentError, NotBalancedError, NotSymmetricError, WrongVerdictError

SYMMETRY_TOLERANCE = 1e-12
#: adjacent eigenvalues closer than this are treated as one degenerate group
DEGENERACY_GAP = 1e-8
#: graphs with at least this many nodes take the ends of a spectrum from
#: Lanczos, smaller ones from dense solves (read only by :func:`_extremes`).
#: On two-block SSBMs of mean degree 12 with one BLAS thread, Lanczos
#: overtakes dense near n = 210 for measures plus heuristic frustration and
#: near n = 300 for the measures alone; 250 splits the two.
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


def _lanczos_extremes(G: SignedGraph, values: np.ndarray, ends: Literal["both", "top"] = "both") -> Spectrum:
    """The largest and the smallest eigenpair of the symmetric n x n matrix
    holding ``values[k]`` at (i_k, j_k) and (j_k, i_k) and zero elsewhere.

    Lanczos iteration with full reorthogonalisation (classical Gram-Schmidt
    applied twice) from a fixed seeded start vector.  Each matvec is the
    edge-array product :meth:`~signednet.core.SignedGraph._operator`, so no
    n x n array is built.  The matrix is scaled by a power of two, exactly,
    to a largest entry in [0.5, 1), so huge or tiny weights neither overflow
    nor loosen the test.  The iteration stops once the Ritz residual
    |beta_k S[k-1, e]| of each requested end e (``"both"``, or ``"top"`` for
    the largest only) is at most ``LANCZOS_TOLERANCE * max(1, |theta_e|)``.
    That test runs on a geometric schedule, at k = 16 and then about every
    25 % more steps, since the small tridiagonal solve it needs is the
    costly part; it also runs on breakdown and at k = n, where the iteration
    ends exactly.

    Returns a two-pair :class:`Spectrum`: eigenvalues ``[top, bottom]`` and
    the matching Ritz vectors as columns, signs normalised like
    :func:`eigendecompose_symmetric`.
    """
    n = G.n
    scale = np.ldexp(1.0, int(np.frexp(np.max(np.abs(values)))[1]))
    matvec = G._operator(values / scale)
    tested = [-1, 0] if ends == "both" else [-1]  # columns of eigh's ascending output

    Q = np.empty((min(n, 32), n))  # Lanczos vectors as rows; grows by doubling
    start = np.random.default_rng(_LANCZOS_SEED).standard_normal(n)
    Q[0] = start / np.linalg.norm(start)
    alpha: list[float] = []
    beta: list[float] = []
    check = 16
    for k in range(1, n + 1):  # k: dimension of the Krylov space after this step
        q = Q[k - 1]
        r = matvec(q)
        alpha.append(float(r @ q))
        r -= alpha[-1] * q
        if k > 1:
            r -= beta[-1] * Q[k - 2]
        for _ in range(2):
            r -= (Q[:k] @ r) @ Q[:k]
        b = float(np.linalg.norm(r))
        if k >= check or k == n or b <= LANCZOS_TOLERANCE / 2:  # a beta that small meets every end's test
            T = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
            theta, S = np.linalg.eigh(T)
            if k == n or all(b * abs(S[-1, e]) <= LANCZOS_TOLERANCE * max(1.0, abs(theta[e])) for e in tested):
                ritz = Q[:k].T @ S[:, [-1, 0]]
                return Spectrum(eigenvalues=theta[[-1, 0]] * scale, eigenvectors=_sign_normalised(ritz))
            check = max(k + 1, int(k * 1.25))
        if k == len(Q):
            Q = np.concatenate([Q, np.empty((min(k, n - k), n))])
        beta.append(b)
        Q[k] = r / b
    raise AssertionError("unreachable: the loop returns at k = n")


def _extremes(G: SignedGraph, values: Optional[np.ndarray] = None, ends: Literal["both", "top"] = "both",
              vectors: bool = False) -> Spectrum:
    """Eigenpairs ``[top, bottom]`` of the matrix holding ``values`` on the
    edges (W when None): from :data:`LANCZOS_MIN_NODES` nodes on by
    :func:`_lanczos_extremes` (W's solve cached on the graph), below by dense
    ``eigvalsh``, or ``eigh`` with sign-normalised vectors if ``vectors``."""
    if G.n >= LANCZOS_MIN_NODES:
        return G._weight_extremes if values is None else _lanczos_extremes(G, values, ends)
    M = G.weight_matrix if values is None else G._matrix(values)
    if not vectors:
        return Spectrum(eigenvalues=np.linalg.eigvalsh(M)[[-1, 0]], eigenvectors=None)
    vals, vecs = np.linalg.eigh(M)
    return Spectrum(eigenvalues=vals[[-1, 0]], eigenvectors=_sign_normalised(vecs[:, [-1, 0]]))


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


def balance_measures(G: SignedGraph) -> BalanceMeasures:
    """d_b, d_a and the signed/unsigned spectral radii of W.

    d_b = lambda_min(L_rw) and d_a = 2 - lambda_max(L_rw), both computed from
    the symmetric similarity of P.  rho(W) = max(lambda_max, -lambda_min);
    |W| is nonnegative, so by Perron-Frobenius its spectral radius is its
    largest eigenvalue.  Only the ends of the three spectra are read, each
    from :func:`_extremes` (the W solve is the one heuristic frustration
    reuses).
    """
    p_vals = _extremes(G, _transition_edge_values(G)).eigenvalues
    w_vals = _extremes(G).eigenvalues
    rho_unsigned = _extremes(G, np.abs(G.w), ends="top").eigenvalues[0]
    return BalanceMeasures(
        d_b=float(1.0 - p_vals[0]),
        d_a=float(1.0 + p_vals[-1]),
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
