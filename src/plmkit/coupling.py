"""Pairwise coupling: the likelihood-matrix map, its inverses, and stabilizers.

The forward direction turns a class posterior into a matrix of pairwise
likelihoods by renormalizing each pair of entries, which is defined wherever
the pair has mass.  Two coupling methods invert that map: a constrained
quadratic minimizer (Wu-Lin-Weng) and an orthogonal projection in log-odds
coordinates (Bayes covariant).  Both are regular: applied to a matrix built
from a strictly positive posterior, they return that posterior.

Every stage works on an (N, c, c) stack of matrices: :func:`couple_stack` is
the one coupling path, and the single-matrix functions are its N=1 case.
"""

from __future__ import annotations

import functools
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
    _known_posterior,
    _read_only,
    diagonals,
    from_upper,
    off_diagonal,
    pairwise_violations,
    require_band,
    strict_upper,
    triu_index,
    validate_pairwise,
)

_NEG_CLAMP = 1e-9
_WLW = CouplingConfig(method=Method.WU_LIN_WENG)
_BC = CouplingConfig(method=Method.BAYES_COVARIANT)


def _restrict(probs: np.ndarray, rows, cols, errors: dict | None = None) -> np.ndarray:
    """The (N, P) restrictions p_i / (p_i + p_j) of an (N, c) posterior stack at pairs
    (rows[k], cols[k]); a row's first pair without mass is singular: the first such
    row raises, or, given ``errors``, each gets its error there and NaN restrictions."""
    upper = probs[:, rows]
    mass = upper + probs[:, cols]
    if not mass.all():
        empty = mass == 0.0
        failed = np.flatnonzero(empty.any(axis=1))
        for n, k in zip(failed.tolist(), np.argmax(empty[failed], axis=1).tolist()):
            error = SingularityError(f"p_{rows[k]} + p_{cols[k]} = 0: pair restriction undefined")
            if errors is None:
                raise error
            errors[n] = error
        upper[failed], mass[failed] = np.nan, 1.0
    return np.divide(upper, mass, out=upper)


def iia_restrict(p: Posterior, i: int, j: int) -> BinaryPrediction:
    """Restrict a posterior to the pair (i, j), preserving their likelihood ratio;
    ``prob_a`` is entry (i, j) of :func:`theta_map`, bit for bit."""
    if i == j:
        raise ValueError("pair indices must differ")
    for k in (i, j):
        if not 0 <= k < p.c:
            raise ValueError(f"class index {k} outside [0, {p.c})")
    r = _restrict(p.probs[None], [min(i, j)], [max(i, j)])[0, 0]
    return BinaryPrediction(class_a=i, class_b=j, prob_a=r if i < j else 1.0 - r)


def theta_map_stack(probs: np.ndarray, errors: dict | None = None) -> np.ndarray:
    """Pairwise likelihood matrices of an (N, c) posterior stack; a pair with
    one zero entry restricts to exact 0 and 1, one with two is undefined: its
    row raises, or, given ``errors``, gets its error there under its index and
    NaN off-diagonal entries, while the other rows restrict as they would alone."""
    rows, cols = triu_index(probs.shape[1])
    return from_upper(_restrict(probs, rows, cols, errors), probs.shape[1])


def theta_map(p: Posterior) -> PairwiseLikelihoodMatrix:
    """Build the full pairwise likelihood matrix of a posterior."""
    return PairwiseLikelihoodMatrix(theta_map_stack(p.probs[None])[0])


def reconstruct_from_column(matrix: PairwiseLikelihoodMatrix, j: int) -> Posterior:
    """Recover a posterior from column ``j`` alone.

    On the image of ``theta_map`` every column gives the same answer; off it,
    columns disagree (which is what the manifold-distance scores measure).
    """
    m, c = matrix.entries, matrix.c
    if not 0 <= j < c:
        raise ValueError(f"class index {j} outside [0, {c})")
    violations = validate_pairwise(matrix)
    if violations:
        raise InvalidDistributionError("; ".join(violations))
    others = np.arange(c) != j
    col = m[others, j]
    if np.any(col <= 0.0) or np.any(col >= 1.0):
        raise SingularityError(f"column {j} has an entry at 0 or 1; ratio reconstruction diverges")
    p = np.ones(c)
    p[others] = col / m[j, others]
    return Posterior(p / p.sum())


@functools.lru_cache(maxsize=None)
def _system_parts(c: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only frame of an augmented WLW system, ones with a zero corner,
    and its right-hand side e_{c+1}; cached per c."""
    frame, rhs = np.ones((c + 1, c + 1)), np.zeros((c + 1, 1))
    frame[c, c], rhs[c] = 0.0, 1.0
    return _read_only(frame), _read_only(rhs)


def _wlw_system(m: np.ndarray) -> np.ndarray:
    """The augmented stationarity systems [[Q, 1], [1', 0]] of a stack with
    zero diagonals, Q with p'Qp = sum over ordered pairs of (r_ij p_j - r_ji p_i)^2."""
    n, c = m.shape[:2]
    aug = np.empty((n, c + 1, c + 1))
    aug[...] = _system_parts(c)[0]
    # 0.0 - x: an exact zero product stays +0.0
    aug[:, :c, :c] = 0.0 - 2.0 * (m * m.swapaxes(1, 2))
    # the diagonal, 0.0 + 2 * column sum of squares, is that product exactly
    np.multiply((m * m).sum(axis=1), 2.0, out=diagonals(aug)[:, :c])
    return aug


def _delta2(m: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Sum of squared pair residuals per row of an (N, c, c) stack and (N, c) posteriors."""
    # a[i, j] = r_ij p_j, so the transpose holds r_ji p_i; the diagonal is
    # x - x, an exact zero
    a = m * p[:, None, :]
    resid = a - a.swapaxes(1, 2)
    np.square(resid, out=resid)
    n, c = p.shape
    return resid.reshape(n, c * c).sum(axis=1)


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
    rhs = _system_parts(size - 1)[1]
    try:
        return np.linalg.solve(aug, rhs)[..., 0]
    except np.linalg.LinAlgError:
        pass
    # some system is singular: solve row by row to find out which
    sol = np.full((n, size), 1.0 / (size - 1))
    for k in range(n):
        try:
            sol[k] = np.linalg.solve(aug[k], rhs)[:, 0]
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
    an error, as is a non-finite one: every row without an error is a posterior.
    """
    p = _solve_augmented(_wlw_system(m), errors)[:, : m.shape[-1]]
    # NaN fails both bounds
    if not (p.min(initial=0.0) >= -_NEG_CLAMP and p.max(initial=0.0) < np.inf):
        low, high = p.min(axis=1), p.max(axis=1)
        for k in np.flatnonzero(~((low >= -_NEG_CLAMP) & (high < np.inf))):
            message = f"direct solve left the simplex: min p = {low[k]:.3e}, max p = {high[k]:.3e}"
            errors.setdefault(int(k), NumericalFailureError(message))
            p[k] = 1.0 / p.shape[1]  # the uniform answer, as for a singular system
    p = np.maximum(p, 0.0)
    p /= p.sum(axis=1, keepdims=True)
    return p, _delta2(m, p)


# 1 / x overflows for x at or below this, so the log-odds of such an entry is
# infinite as computed: it counts as 0
_LOG_ODDS_FLOOR = 1.0 / np.finfo(float).max


def _singular_rows(stack: np.ndarray) -> np.ndarray:
    """Rows with an off-diagonal entry at 0 or 1, where the log-odds map diverges."""
    off = off_diagonal(stack.shape[-1])
    return np.any(off & ((stack <= _LOG_ODDS_FLOOR) | (stack >= 1.0)), axis=(1, 2))


_SINGULAR = "pairwise entry at 0 or 1: log-odds map diverges (apply clip stabilization)"


def _log_odds(stack: np.ndarray) -> np.ndarray:
    """Log-odds matrices of a stack with every off-diagonal entry inside (0, 1)."""
    inner = stack.copy()
    diagonals(inner)[...] = 0.5
    th = np.log(1.0 / inner - 1.0)
    # enforce exact antisymmetry against rounding in the two complements
    return 0.5 * (th - th.swapaxes(1, 2))


@functools.lru_cache(maxsize=None)
def _upper_flat(c: int) -> np.ndarray:
    """Read-only flat indices of the :func:`triu_index` pairs, cached per c."""
    rows, cols = triu_index(c)
    return _read_only(rows * c + cols)


def _bc_stack(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bayes-covariant posteriors and projection residual norms for a stack.

    The log-odds coordinates are projected orthogonally onto the additive
    subspace; the class potentials, the column means, are exponentiated.
    """
    n, c = m.shape[:2]
    th = _log_odds(m)
    v = th.sum(axis=1) / c
    w = np.exp(v - v.max(axis=1, keepdims=True))
    p = w / w.sum(axis=1, keepdims=True)
    # the residual th_ij - (v_j - v_i), kept on the upper triangle
    th -= v[:, None, :] - v[:, :, None]
    resid = th.reshape(n, c * c).take(_upper_flat(c), axis=1)
    # one BLAS dot per row, as np.linalg.norm computes a vector's norm
    return p, np.sqrt((resid[:, None, :] @ resid[:, :, None])[:, 0, 0])


def _couple_method(m: np.ndarray, method: Method, errors: dict) -> tuple[np.ndarray, np.ndarray]:
    """Couple a stack of valid matrices; failing rows get an entry in ``errors``.

    For BC, a row with an entry at 0 or 1 is replaced by the uniform matrix
    before the solve, so it cannot disturb the others.
    """
    if method is Method.WU_LIN_WENG:
        return _wlw_stack(m, errors)
    # valid rows have entries in [0, 1] and zero diagonals: none is singular when
    # no entry is 1 and only the n*c diagonal entries are at or below the floor
    n, c = m.shape[:2]
    if not (m.max(initial=0.0) < 1.0 and np.count_nonzero(m <= _LOG_ODDS_FLOOR) == n * c):
        singular = np.flatnonzero(_singular_rows(m))
        errors.update((int(row), SingularityError(_SINGULAR)) for row in singular)
        m = m.copy()
        m[singular] = 0.5 * off_diagonal(c)
    return _bc_stack(m)


def _clip_stack(stack: np.ndarray, tau: float) -> np.ndarray:
    """Every off-diagonal entry forced into [tau, 1 - tau], a moved pair's complement
    exact: 1 - fl(1 - tau), which can lie one rounding below tau."""
    c = stack.shape[-1]
    # a stack already inside, with +0.0 (all bits zero) diagonals, is its own clip
    if (
        not np.count_nonzero(diagonals(stack.view(np.int64)))
        and stack.max(initial=0.0) <= 1.0 - tau
        and np.count_nonzero(stack < tau) == stack.shape[0] * c
    ):
        return stack
    clipped = np.clip(stack, tau, 1.0 - tau)
    # a lower entry is the complement of its upper where the clip moved that
    # upper entry, and its own clip elsewhere
    moved = (clipped != stack) & strict_upper(c)
    m = np.where(moved.swapaxes(1, 2), 1.0 - clipped.swapaxes(1, 2), clipped)
    diagonals(m)[...] = 0.0
    return m


def _survivors(stack: np.ndarray, rho: float) -> np.ndarray:
    """(N, c) mask of the classes that lose no pairwise contest below ``rho``."""
    return ~np.any((stack < rho) & off_diagonal(stack.shape[-1]), axis=2)


_ALL_DROPPED = "every class fell below rho; nothing to couple"


def _couple_dropped(
    stack: np.ndarray, config: CouplingConfig, errors: dict
) -> tuple[np.ndarray, np.ndarray]:
    """Couple each set of rows that keep the same classes in reduced form, which
    is valid where the row is; dropped classes get zero mass.  A single
    survivor is a 1 x 1 coupling, which gives it all the mass with residual 0."""
    n, c = stack.shape[:2]
    masks, group, counts = np.unique(
        _survivors(stack, config.rho), axis=0, return_inverse=True, return_counts=True
    )
    probs, residual = np.zeros((n, c)), np.zeros(n)
    groups = np.split(np.argsort(group.ravel(), kind="stable"), np.cumsum(counts)[:-1])
    for keep, rows in zip(masks, groups):
        idx = np.flatnonzero(keep)
        if idx.size == 0:
            errors.update((int(k), EmptyResultError(_ALL_DROPPED)) for k in rows)
        else:
            failed: dict[int, PlmError] = {}
            p, r = _couple_method(stack[np.ix_(rows, idx, idx)], config.method, failed)
            probs[np.ix_(rows, idx)] = p
            residual[rows] = r
            errors.update((int(rows[k]), e) for k, e in failed.items())
    return probs, residual


class CoupledStack(NamedTuple):
    """The coupling of an (N, c, c) stack, one row per input matrix.

    ``residual`` is the method's distance at the answer: the objective value
    p'Qp for Wu-Lin-Weng, the projection residual norm for Bayes covariant.
    ``errors[k]`` is the error row ``k`` raised, or ``None``.  A failed row's
    ``probs`` and ``residual`` are NaN in every entry and a row without an
    error holds no NaN, so ``probs`` alone records which rows failed: the
    record ``summarize_stack`` reads.
    """

    probs: np.ndarray
    residual: np.ndarray
    errors: tuple

    def posterior(self, k: int) -> Posterior:
        """Row ``k`` as a posterior, raising the error that row failed with."""
        if self.errors[k] is not None:
            raise self.errors[k]
        # coupling leaves every row it does not fail on the simplex
        return _known_posterior(self.probs[k])

    def raise_first(self) -> None:
        """Raise the error of the first failed row, if any."""
        for error in self.errors:
            if error is not None:
                raise error


def couple_stack(stack: np.ndarray, config: CouplingConfig) -> CoupledStack:
    """Validate the raw (N, c, c) stack, then apply the configured stabilization,
    then the configured coupling method, to every matrix.

    A non-finite entry raises ``ShapeError``; an invalid row fails with
    ``InvalidDistributionError`` under every stabilization.  One row's failure
    never affects another: each row carries its own error, of the type and text
    the single-matrix functions raise.  With class dropping, rows are grouped
    by their survivor set and each group is coupled in reduced form.
    """
    # reductions sum in memory order: a C-ordered stack makes every row's
    # result independent of the rows beside it
    stack = np.ascontiguousarray(stack, dtype=float)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] < 2:
        raise ShapeError(f"expected an (N, c, c) stack with c >= 2, got shape {stack.shape}")
    errors: dict[int, PlmError] = {
        row: InvalidDistributionError("; ".join(violations))
        for row, violations in pairwise_violations(stack).items()
    }
    if errors:
        stack = stack.copy()
        stack[list(errors)] = 0.5 * off_diagonal(stack.shape[1])
    if config.stabilization is Stabilization.CLIP:
        stack = _clip_stack(stack, config.tau)
    if config.stabilization is Stabilization.DROP_CLASSES:
        probs, residual = _couple_dropped(stack, config, errors)
    else:
        probs, residual = _couple_method(stack, config.method, errors)
    if errors:
        probs[list(errors)] = np.nan
        residual[list(errors)] = np.nan
    return CoupledStack(probs, residual, tuple(errors.get(k) for k in range(len(stack))))


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

    The upper triangle is clipped.  Where that moved an upper entry, its lower
    entry is set to the complement, so the pair sums to 1 exactly; every
    other lower entry is clipped itself.  Such a complement of an entry
    clipped to fl(1 - tau) is 1 - fl(1 - tau), which can be one rounding below
    tau (0.09999999999999998 at tau = 0.1; at tau = 1e-3 it is above tau).
    """
    require_band("tau", tau)
    return PairwiseLikelihoodMatrix(_clip_stack(matrix.entries[None], tau)[0])


def stabilize_drop(
    matrix: PairwiseLikelihoodMatrix, rho: float
) -> tuple[PairwiseLikelihoodMatrix | None, list[int]]:
    """Remove every class that loses some pairwise contest below ``rho``.

    Returns the reduced matrix together with the surviving original class
    indices.  Raises ``EmptyResultError`` if nothing survives; a single
    survivor yields ``(None, [k])``.
    """
    require_band("rho", rho)
    survivors = np.nonzero(_survivors(matrix.entries[None], rho)[0])[0].tolist()
    if not survivors:
        raise EmptyResultError(_ALL_DROPPED)
    if len(survivors) == 1:
        # degenerate: a 1x1 matrix cannot be represented; couple() with class
        # dropping gives this class all the mass and the dropped ones zero
        return None, survivors
    return PairwiseLikelihoodMatrix(matrix.entries[np.ix_(survivors, survivors)]), survivors
