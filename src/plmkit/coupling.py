"""Pairwise coupling: the likelihood-matrix map, its inverses, and stabilizers.

The forward direction turns a strictly positive class posterior into a matrix
of pairwise likelihoods by renormalizing each pair of entries.  Two coupling
methods invert that map: a constrained quadratic minimizer (Wu-Lin-Weng) and
an orthogonal projection in log-odds coordinates (Bayes covariant).  Both are
regular: applied to a matrix built from a posterior, they return that
posterior.
"""

from __future__ import annotations

import numpy as np

from .core import (
    CouplingConfig,
    EmptyResultError,
    Method,
    NumericalFailureError,
    PairwiseLikelihoodMatrix,
    Posterior,
    ShapeError,
    SingularityError,
    Stabilization,
    ThetaMatrix,
    BinaryPrediction,
    require_valid_pairwise,
)

_NEG_CLAMP = 1e-9


def iia_restrict(p: Posterior, i: int, j: int) -> BinaryPrediction:
    """Restrict a posterior to the pair (i, j), preserving their likelihood ratio."""
    if i == j:
        raise ValueError("pair indices must differ")
    pi, pj = p.probs[i], p.probs[j]
    denom = pi + pj
    if denom == 0.0:
        raise SingularityError(f"p_{i} + p_{j} = 0: pair restriction undefined")
    return BinaryPrediction(class_a=i, class_b=j, prob_a=pi / denom)


def theta_map(p: Posterior) -> PairwiseLikelihoodMatrix:
    """Build the full pairwise likelihood matrix of a strictly positive posterior."""
    v = p.probs
    if np.any(v == 0.0):
        raise SingularityError("posterior has a zero entry; pairwise map is not injective there")
    denom = v[:, None] + v[None, :]
    r = v[:, None] / denom
    np.fill_diagonal(r, 0.0)
    return PairwiseLikelihoodMatrix(r)


def reconstruct_from_column(matrix: PairwiseLikelihoodMatrix, j: int) -> Posterior:
    """Recover a posterior from column ``j`` alone.

    On the image of ``theta_map`` every column gives the same answer; off it,
    columns disagree (which is what the manifold-distance scores measure).
    """
    require_valid_pairwise(matrix)
    m = matrix.entries
    c = matrix.c
    others = np.arange(c) != j
    col = m[others, j]
    if np.any(col <= 0.0) or np.any(col >= 1.0):
        raise SingularityError(f"column {j} has an entry at 0 or 1; ratio reconstruction diverges")
    p = np.ones(c)
    p[others] = col / m[j, others]
    return Posterior(p / p.sum())


def _wlw_quadratic(m: np.ndarray) -> np.ndarray:
    """Matrix Q with p'Qp = sum over ordered pairs of (r_ij p_j - r_ji p_i)^2."""
    return 2.0 * (np.diag((m * m).sum(axis=0)) - m * m.T)


def delta2_value(matrix: PairwiseLikelihoodMatrix, p: Posterior) -> float:
    """Sum of squared pair residuals (r_ij p_j - r_ji p_i)^2 over ordered pairs."""
    if matrix.c != p.c:
        raise ShapeError(f"class count mismatch: matrix c={matrix.c}, posterior c={p.c}")
    m = matrix.entries
    v = p.probs
    resid = m * v[None, :] - m.T * v[:, None]
    np.fill_diagonal(resid, 0.0)
    return float(np.sum(resid**2))


def couple_wlw(matrix: PairwiseLikelihoodMatrix) -> Posterior:
    """Couple by minimizing the quadratic pair-residual objective on the simplex.

    The stationarity conditions under the sum-to-one constraint form a dense
    (c+1) x (c+1) linear system which is solved directly.  Wu, Lin & Weng
    (2004) show the non-negativity constraints are then redundant, so a
    solution below zero by more than floating-point noise is an error.
    """
    require_valid_pairwise(matrix)
    c = matrix.c
    aug = np.ones((c + 1, c + 1))
    aug[:c, :c] = _wlw_quadratic(matrix.entries)
    aug[c, c] = 0.0
    rhs = np.zeros(c + 1)
    rhs[c] = 1.0
    try:
        sol = np.linalg.solve(aug, rhs)
    except np.linalg.LinAlgError as exc:
        cond = np.linalg.cond(aug)
        raise NumericalFailureError(
            f"augmented stationarity system is singular (cond={cond:.3e})"
        ) from exc
    p = sol[:c]
    if np.min(p) < -_NEG_CLAMP:
        raise NumericalFailureError(f"direct solve left the simplex: min p = {np.min(p):.3e}")
    p = np.clip(p, 0.0, None)
    return Posterior(p / p.sum())


def theta_of(matrix: PairwiseLikelihoodMatrix) -> ThetaMatrix:
    """Map each off-diagonal entry through the log-odds reparametrization."""
    m = matrix.entries
    off = ~np.eye(matrix.c, dtype=bool)
    if np.any((m[off] <= 0.0) | (m[off] >= 1.0)):
        raise SingularityError(
            "pairwise entry at 0 or 1: log-odds map diverges (apply clip stabilization)"
        )
    with np.errstate(divide="ignore"):
        th = np.log(1.0 / np.where(off, m, 0.5) - 1.0)
    th[~off] = 0.0
    # enforce exact antisymmetry against rounding in the two complements
    th = 0.5 * (th - th.T)
    return ThetaMatrix(th)


def bc_potentials(theta: ThetaMatrix) -> np.ndarray:
    """Column means of the log-odds matrix: the projection's class potentials."""
    return theta.entries.sum(axis=0) / theta.c


def couple_bc(matrix: PairwiseLikelihoodMatrix) -> Posterior:
    """Couple by orthogonal projection of log-odds coordinates onto the
    additive subspace, then exponentiating the class potentials."""
    require_valid_pairwise(matrix)
    v = bc_potentials(theta_of(matrix))
    w = np.exp(v - v.max())
    return Posterior(w / w.sum())


def stabilize_clip(matrix: PairwiseLikelihoodMatrix, tau: float) -> PairwiseLikelihoodMatrix:
    """Force every off-diagonal entry into [tau, 1 - tau].

    The upper triangle is clipped and the lower triangle is set to the
    complements, so the result satisfies the pair-sum invariant exactly.
    """
    if not (0.0 < tau < 0.5):
        raise ValueError(f"tau must be in (0, 0.5), got {tau}")
    m = matrix.entries.copy()
    c = matrix.c
    iu = np.triu_indices(c, k=1)
    orig = m[iu]
    upper = np.clip(orig, tau, 1.0 - tau)
    changed = upper != orig
    m[iu] = upper
    # untouched pairs keep their original complements bit-for-bit
    lower = m[(iu[1], iu[0])]
    m[(iu[1], iu[0])] = np.where(changed, 1.0 - upper, lower)
    np.fill_diagonal(m, 0.0)
    return PairwiseLikelihoodMatrix(m)


def stabilize_drop(
    matrix: PairwiseLikelihoodMatrix, rho: float
) -> tuple[PairwiseLikelihoodMatrix | None, list[int]]:
    """Remove every class that loses some pairwise contest below ``rho``.

    Returns the reduced matrix together with the surviving original class
    indices.  Raises ``EmptyResultError`` if nothing survives; a single
    survivor yields ``(None, [k])``.
    """
    if not (0.0 < rho < 0.5):
        raise ValueError(f"rho must be in (0, 0.5), got {rho}")
    m = matrix.entries
    c = matrix.c
    off = ~np.eye(c, dtype=bool)
    drop = np.any((m < rho) & off, axis=1)
    survivors = [k for k in range(c) if not drop[k]]
    if not survivors:
        raise EmptyResultError("every class fell below rho; nothing to couple")
    if len(survivors) == 1:
        # degenerate: a 1x1 matrix cannot be represented; callers couple this
        # as the trivial one-class distribution and re-embed with zeros
        return None, survivors
    idx = np.ix_(survivors, survivors)
    return PairwiseLikelihoodMatrix(m[idx]), survivors


def extend_posterior(reduced: Posterior | np.ndarray, survivors: list[int], c: int) -> Posterior:
    """Re-embed a posterior over surviving classes into all ``c`` classes,
    assigning zero to dropped classes."""
    probs = reduced.probs if isinstance(reduced, Posterior) else np.asarray(reduced, dtype=float)
    if len(survivors) != probs.size:
        raise ShapeError("survivor list does not match reduced posterior length")
    full = np.zeros(c)
    full[survivors] = probs
    return Posterior(full)


def couple(matrix: PairwiseLikelihoodMatrix, config: CouplingConfig) -> Posterior:
    """Apply the configured stabilization, then the configured coupling method."""
    c = matrix.c
    survivors = None
    if config.stabilization is Stabilization.CLIP:
        matrix = stabilize_clip(matrix, config.tau)
    elif config.stabilization is Stabilization.DROP_CLASSES:
        matrix, survivors = stabilize_drop(matrix, config.rho)
        if len(survivors) == 1:
            return extend_posterior(np.array([1.0]), survivors, c)
    if config.method is Method.WU_LIN_WENG:
        p = couple_wlw(matrix)
    else:
        p = couple_bc(matrix)
    if survivors is not None:
        return extend_posterior(p, survivors, c)
    return p
