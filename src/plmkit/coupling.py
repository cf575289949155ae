"""Pairwise coupling: the likelihood-matrix map, its inverses, and stabilizers.

The forward direction turns a strictly positive class posterior into a matrix
of pairwise likelihoods by renormalizing each pair of entries.  Two coupling
methods invert that map: a constrained quadratic minimizer (Wu-Lin-Weng) and
an orthogonal projection in log-odds coordinates (Bayes covariant).  Both are
regular: applied to a matrix built from a posterior, they return that
posterior.

Every stage works on an (N, c, c) stack of matrices: :func:`couple_stack` is
the one coupling path, and the single-matrix functions are its N=1 case.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import (
    BinaryPrediction,
    CouplingConfig,
    EmptyResultError,
    InvalidDistributionError,
    Method,
    NumericalFailureError,
    PairwiseLikelihoodMatrix,
    PlmError,
    Posterior,
    ShapeError,
    SingularityError,
    Stabilization,
    ThetaMatrix,
    pairwise_violations,
    require_valid_pairwise,
)

_NEG_CLAMP = 1e-9
_WLW = CouplingConfig(method=Method.WU_LIN_WENG)
_BC = CouplingConfig(method=Method.BAYES_COVARIANT)


def iia_restrict(p: Posterior, i: int, j: int) -> BinaryPrediction:
    """Restrict a posterior to the pair (i, j), preserving their likelihood ratio."""
    if i == j:
        raise ValueError("pair indices must differ")
    pi, pj = p.probs[i], p.probs[j]
    denom = pi + pj
    if denom == 0.0:
        raise SingularityError(f"p_{i} + p_{j} = 0: pair restriction undefined")
    return BinaryPrediction(class_a=i, class_b=j, prob_a=pi / denom)


def theta_map_stack(probs: np.ndarray) -> np.ndarray:
    """Pairwise likelihood matrices of an (N, c) stack of strictly positive posteriors."""
    if np.any(probs == 0.0):
        raise SingularityError("posterior has a zero entry; pairwise map is not injective there")
    r = probs[:, :, None] / (probs[:, :, None] + probs[:, None, :])
    c = probs.shape[1]
    r[:, np.arange(c), np.arange(c)] = 0.0
    return r


def theta_map(p: Posterior) -> PairwiseLikelihoodMatrix:
    """Build the full pairwise likelihood matrix of a strictly positive posterior."""
    return PairwiseLikelihoodMatrix(theta_map_stack(p.probs[None])[0])


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
    """Matrix Q with p'Qp = sum over ordered pairs of (r_ij p_j - r_ji p_i)^2.

    ``m`` is one matrix or a stack; Q is built for each.
    """
    colsum = (m * m).sum(axis=-2)
    return 2.0 * (colsum[..., None] * np.eye(m.shape[-1]) - m * np.swapaxes(m, -1, -2))


def _delta2(m: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Sum of squared pair residuals per row of an (N, c, c) stack and (N, c) posteriors."""
    resid = m * p[:, None, :] - np.swapaxes(m, 1, 2) * p[:, :, None]
    c = p.shape[1]
    resid[:, np.arange(c), np.arange(c)] = 0.0
    return (resid**2).reshape(len(p), c * c).sum(axis=1)


def delta2_value(matrix: PairwiseLikelihoodMatrix, p: Posterior) -> float:
    """Sum of squared pair residuals (r_ij p_j - r_ji p_i)^2 over ordered pairs."""
    if matrix.c != p.c:
        raise ShapeError(f"class count mismatch: matrix c={matrix.c}, posterior c={p.c}")
    return float(_delta2(matrix.entries[None], p.probs[None])[0])


def _solve_augmented(aug: np.ndarray, errors: dict) -> np.ndarray:
    """Solve each augmented system of a stack for the right-hand side e_{c+1}.

    A singular system fails its own row only: the stack is then solved row
    by row, and each singular row gets an error and the uniform answer.
    """
    n, size = aug.shape[:2]
    rhs = np.zeros((n, size, 1))
    rhs[:, -1] = 1.0
    try:
        return np.linalg.solve(aug, rhs)[..., 0]
    except np.linalg.LinAlgError:
        pass
    # some system is singular: solve row by row to find out which
    sol = np.full((n, size), 1.0 / (size - 1))
    for k in range(n):
        try:
            sol[k] = np.linalg.solve(aug[k], rhs[k])[:, 0]
        except np.linalg.LinAlgError:
            with np.errstate(divide="ignore"):
                cond = np.linalg.cond(aug[k])
            errors[k] = NumericalFailureError(
                f"augmented stationarity system is singular (cond={cond:.3e})"
            )
    return sol


def _wlw_stack(m: np.ndarray, errors: dict) -> tuple[np.ndarray, np.ndarray]:
    """Wu-Lin-Weng posteriors and their objective values for a valid stack.

    The objective value p'Qp is evaluated as the pair-residual sum, the
    definition ``delta2_value`` shares.

    The stationarity conditions under the sum-to-one constraint form a dense
    (c+1) x (c+1) linear system per matrix, solved directly and all at once.
    Wu, Lin & Weng (2004) show the non-negativity constraints are then
    redundant, so a solution below zero by more than floating-point noise is
    an error.
    """
    n, c = m.shape[:2]
    aug = np.ones((n, c + 1, c + 1))
    aug[:, :c, :c] = _wlw_quadratic(m)
    aug[:, c, c] = 0.0
    p = _solve_augmented(aug, errors)[:, :c]
    low = p.min(axis=1)
    for k in np.nonzero(low < -_NEG_CLAMP)[0]:
        message = f"direct solve left the simplex: min p = {low[k]:.3e}"
        errors.setdefault(int(k), NumericalFailureError(message))
    p = np.clip(p, 0.0, None)
    p = p / p.sum(axis=1, keepdims=True)
    return p, _delta2(m, p)


def _singular_rows(stack: np.ndarray) -> np.ndarray:
    """Rows with an off-diagonal entry at 0 or 1, where the log-odds map diverges."""
    off = ~np.eye(stack.shape[-1], dtype=bool)
    return np.any(off & ((stack <= 0.0) | (stack >= 1.0)), axis=(1, 2))


_SINGULAR = "pairwise entry at 0 or 1: log-odds map diverges (apply clip stabilization)"


def _log_odds(stack: np.ndarray) -> np.ndarray:
    """Log-odds matrices of a stack with every off-diagonal entry inside (0, 1)."""
    c = stack.shape[-1]
    diag = np.arange(c)
    inner = stack.copy()
    inner[:, diag, diag] = 0.5
    th = np.log(1.0 / inner - 1.0)
    # enforce exact antisymmetry against rounding in the two complements
    return 0.5 * (th - np.swapaxes(th, 1, 2))


def theta_of(matrix: PairwiseLikelihoodMatrix) -> ThetaMatrix:
    """Map each off-diagonal entry through the log-odds reparametrization."""
    if _singular_rows(matrix.entries[None])[0]:
        raise SingularityError(_SINGULAR)
    return ThetaMatrix(_log_odds(matrix.entries[None])[0])


def _bc_stack(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bayes-covariant posteriors and projection residual norms for a stack.

    The log-odds coordinates are projected orthogonally onto the additive
    subspace; the class potentials, the column means, are exponentiated.
    """
    th = _log_odds(m)
    v = th.sum(axis=1) / th.shape[-1]
    w = np.exp(v - v.max(axis=1, keepdims=True))
    p = w / w.sum(axis=1, keepdims=True)
    iu = np.triu_indices(m.shape[-1], k=1)
    resid = np.ascontiguousarray((th - (v[:, None, :] - v[:, :, None]))[:, iu[0], iu[1]])
    # one BLAS dot per row, as np.linalg.norm computes a vector's norm
    return p, np.sqrt((resid[:, None, :] @ resid[:, :, None])[:, 0, 0])


def _couple_method(m: np.ndarray, method: Method, errors: dict) -> tuple[np.ndarray, np.ndarray]:
    """Validate a stack, then couple it; failing rows get an entry in ``errors``.

    A row that fails validation (or, for BC, has an entry at 0 or 1) is
    replaced by the uniform matrix before the solve, so it cannot disturb
    the others.
    """
    for row, violations in pairwise_violations(m).items():
        errors[row] = InvalidDistributionError("; ".join(violations))
    if method is Method.BAYES_COVARIANT:
        for row in np.nonzero(_singular_rows(m))[0]:
            errors.setdefault(int(row), SingularityError(_SINGULAR))
    if errors:
        m = m.copy()
        m[list(errors)] = 0.5 - 0.5 * np.eye(m.shape[-1])
    if method is Method.WU_LIN_WENG:
        return _wlw_stack(m, errors)
    return _bc_stack(m)


def _clip_stack(stack: np.ndarray, tau: float) -> np.ndarray:
    """Every off-diagonal entry forced into [tau, 1 - tau], complements kept exact."""
    c = stack.shape[-1]
    iu = np.triu_indices(c, k=1)
    m = stack.copy()
    orig = m[:, iu[0], iu[1]]
    upper = np.clip(orig, tau, 1.0 - tau)
    changed = upper != orig
    m[:, iu[0], iu[1]] = upper
    # untouched pairs keep their original complements bit-for-bit
    m[:, iu[1], iu[0]] = np.where(changed, 1.0 - upper, m[:, iu[1], iu[0]])
    m[:, np.arange(c), np.arange(c)] = 0.0
    return m


def _survivors(stack: np.ndarray, rho: float) -> np.ndarray:
    """(N, c) mask of the classes that lose no pairwise contest below ``rho``."""
    off = ~np.eye(stack.shape[-1], dtype=bool)
    return ~np.any((stack < rho) & off, axis=2)


_ALL_DROPPED = "every class fell below rho; nothing to couple"


def _groups(stack: np.ndarray, config: CouplingConfig):
    """(classes kept, rows) for each set of rows that keep the same classes."""
    n, c = stack.shape[:2]
    if config.stabilization is not Stabilization.DROP_CLASSES:
        return [(np.ones(c, dtype=bool), np.arange(n))]
    masks, group, counts = np.unique(
        _survivors(stack, config.rho), axis=0, return_inverse=True, return_counts=True
    )
    return zip(masks, np.split(np.argsort(group.ravel(), kind="stable"), np.cumsum(counts)[:-1]))


class CoupledStack(NamedTuple):
    """The coupling of an (N, c, c) stack, one row per input matrix.

    ``residual`` is the method's distance at the answer: the objective value
    p'Qp for Wu-Lin-Weng, the projection residual norm for Bayes covariant.
    ``errors[k]`` is the error row ``k`` raised, or ``None``; a failed row's
    ``probs`` and ``residual`` are NaN.
    """

    probs: np.ndarray
    residual: np.ndarray
    errors: tuple

    def posterior(self, k: int) -> Posterior:
        """Row ``k`` as a posterior, raising the error that row failed with."""
        if self.errors[k] is not None:
            raise self.errors[k]
        return Posterior(self.probs[k])

    def raise_first(self) -> None:
        """Raise the error of the first failed row, if any."""
        for error in self.errors:
            if error is not None:
                raise error


def couple_stack(stack: np.ndarray, config: CouplingConfig) -> CoupledStack:
    """Apply the configured stabilization, then the configured coupling method,
    to every matrix of an (N, c, c) stack.

    One row's failure never affects another: each row carries its own error,
    of the type and text the single-matrix functions raise.  With class
    dropping, rows are grouped by their survivor set and each group is
    coupled in reduced form.
    """
    # reductions sum in memory order: a C-ordered stack makes every row's
    # result independent of the rows beside it
    stack = np.ascontiguousarray(stack, dtype=float)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] < 2:
        raise ShapeError(f"expected an (N, c, c) stack with c >= 2, got shape {stack.shape}")
    if not np.all(np.isfinite(stack)):
        raise ShapeError("pairwise matrix contains non-finite entries")
    n, c = stack.shape[:2]
    if config.stabilization is Stabilization.CLIP:
        stack = _clip_stack(stack, config.tau)
    probs, residual = np.zeros((n, c)), np.zeros(n)
    errors: dict[int, PlmError] = {}
    for keep, rows in _groups(stack, config):
        idx = np.nonzero(keep)[0]
        if idx.size == 0:
            errors.update((int(k), EmptyResultError(_ALL_DROPPED)) for k in rows)
        elif idx.size == 1:
            # a single survivor takes all the mass: the one-class distribution
            probs[rows, idx[0]] = 1.0
        else:
            failed: dict[int, PlmError] = {}
            whole = rows.size == n and idx.size == c
            sub = stack if whole else stack[np.ix_(rows, idx, idx)]
            p, r = _couple_method(sub, config.method, failed)
            probs[np.ix_(rows, idx)] = p
            residual[rows] = r
            errors.update((int(rows[k]), e) for k, e in failed.items())
    if errors:
        probs[list(errors)] = np.nan
        residual[list(errors)] = np.nan
    return CoupledStack(probs, residual, tuple(errors.get(k) for k in range(n)))


def couple_wlw(matrix: PairwiseLikelihoodMatrix) -> Posterior:
    """Couple by minimizing the quadratic pair-residual objective on the simplex."""
    return couple(matrix, _WLW)


def couple_bc(matrix: PairwiseLikelihoodMatrix) -> Posterior:
    """Couple by orthogonal projection of log-odds coordinates onto the
    additive subspace, then exponentiating the class potentials."""
    return couple(matrix, _BC)


def couple(matrix: PairwiseLikelihoodMatrix, config: CouplingConfig) -> Posterior:
    """Apply the configured stabilization, then the configured coupling method."""
    return couple_stack(matrix.entries[None], config).posterior(0)


def stabilize_clip(matrix: PairwiseLikelihoodMatrix, tau: float) -> PairwiseLikelihoodMatrix:
    """Force every off-diagonal entry into [tau, 1 - tau].

    The upper triangle is clipped and the lower triangle is set to the
    complements, so the result satisfies the pair-sum invariant exactly.
    """
    if not (0.0 < tau < 0.5):
        raise ValueError(f"tau must be in (0, 0.5), got {tau}")
    return PairwiseLikelihoodMatrix(_clip_stack(matrix.entries[None], tau)[0])


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
    survivors = np.nonzero(_survivors(matrix.entries[None], rho)[0])[0].tolist()
    if not survivors:
        raise EmptyResultError(_ALL_DROPPED)
    if len(survivors) == 1:
        # degenerate: a 1x1 matrix cannot be represented; callers couple this
        # as the trivial one-class distribution and re-embed with zeros
        return None, survivors
    return PairwiseLikelihoodMatrix(matrix.entries[np.ix_(survivors, survivors)]), survivors


def extend_posterior(reduced: Posterior | np.ndarray, survivors: list[int], c: int) -> Posterior:
    """Re-embed a posterior over surviving classes into all ``c`` classes,
    assigning zero to dropped classes."""
    probs = reduced.probs if isinstance(reduced, Posterior) else np.asarray(reduced, dtype=float)
    if len(survivors) != probs.size:
        raise ShapeError("survivor list does not match reduced posterior length")
    full = np.zeros(c)
    full[survivors] = probs
    return Posterior(full)
