"""Shared value types and input rules for pairwise-likelihood classification.

The value types are immutable: constructors validate, arrays are frozen, and
all operations elsewhere in the package treat them as read-only inputs.  The
input rules (labels, sample ids, pairs, probabilities, distances) are written
here once, as masks over whole arrays that both the value types and the file
readers call, beside the stack helpers (pair indices, diagonals, the pairwise
screen) that the other modules share.
"""

from __future__ import annotations

import contextlib
import enum
import functools
from dataclasses import dataclass

import numpy as np

SUM_TOL = 1e-9
SYM_TOL = 1e-9


class PlmError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(PlmError):
    """Structural problem: wrong dimensions, non-square matrix, mixed class counts."""


class InvalidDistributionError(PlmError):
    """A posterior violates the simplex invariants (sum, range)."""


class SingularityError(PlmError):
    """An operation hit a point where its defining formula diverges."""


class NumericalFailureError(PlmError):
    """A numerical routine failed; carries a diagnostic message."""


class EmptyResultError(PlmError):
    """Class dropping removed every class; no coupling is possible."""


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Posterior:
    """A probability distribution over ``c`` classes for one sample."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _read_only(np.array(self.probs, dtype=float)))
        p = self.probs
        if p.ndim != 1 or p.size < 2:
            raise ShapeError(f"posterior must be a vector of length >= 2, got shape {p.shape}")
        violation = posterior_violations(p[None]).get(0)
        if violation is not None:
            raise InvalidDistributionError(violation)

    @property
    def c(self) -> int:
        return self.probs.size

    def __eq__(self, other):
        return isinstance(other, Posterior) and np.array_equal(self.probs, other.probs)

    def __hash__(self):
        return hash(self.probs.tobytes())


def _known_posterior(probs: np.ndarray) -> Posterior:
    """A frozen ``Posterior`` of a row known to be on the simplex, not checked again."""
    p = object.__new__(Posterior)
    object.__setattr__(p, "probs", _read_only(np.array(probs, dtype=float)))
    return p


@dataclass(frozen=True)
class PairwiseLikelihoodMatrix:
    """A c x c matrix of pairwise likelihoods, zero diagonal by convention.

    The constructor only checks structure (square, c >= 2, finite entries);
    the probabilistic invariants are checked by :func:`validate_pairwise` so
    that malformed matrices can still be represented and reported on.
    """

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _read_only(np.array(self.entries, dtype=float)))
        m = self.entries
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeError(f"pairwise matrix must be square, got shape {m.shape}")
        if m.shape[0] < 2:
            raise ShapeError("pairwise matrix needs at least 2 classes")
        if not np.all(np.isfinite(m)):
            raise ShapeError("pairwise matrix contains non-finite entries")

    @property
    def c(self) -> int:
        return self.entries.shape[0]

    def __eq__(self, other):
        return isinstance(other, PairwiseLikelihoodMatrix) and np.array_equal(
            self.entries, other.entries
        )

    def __hash__(self):
        return hash(self.entries.tobytes())


def require_band(name: str, value: float) -> None:
    """Reject a threshold outside (0, 0.5); below about 1.1e-16, 1 - value
    rounds to 1 and bounds nothing, so such a value is outside too."""
    if not (0.0 < value < 0.5 and 1.0 - value < 1.0):
        raise ValueError(f"{name} must be in (0, 0.5), got {value}")


def require_seed(name: str, seed) -> int:
    """The seed as an int: an integer in [0, 2**128), numpy's ``SeedSequence()`` entropy size."""
    if not (isinstance(seed, (int, np.integer)) and 0 <= int(seed) < 1 << 128):
        raise ValueError(f"{name} must be an integer in [0, 2**128), got {seed}")
    return int(seed)


class Method(enum.Enum):
    WU_LIN_WENG = "wlw"
    BAYES_COVARIANT = "bc"


class Stabilization(enum.Enum):
    NONE = "none"
    CLIP = "clip"
    DROP_CLASSES = "drop"


@dataclass(frozen=True)
class CouplingConfig:
    """Method selector plus numerical-stabilization strategy and thresholds; each
    enum field takes its member or that member's value, ``"wlw"`` say, and holds the member."""

    method: Method = Method.WU_LIN_WENG
    stabilization: Stabilization = Stabilization.NONE
    tau: float = 1e-3
    rho: float = 1e-3

    def __post_init__(self):
        object.__setattr__(self, "method", Method(self.method))
        object.__setattr__(self, "stabilization", Stabilization(self.stabilization))
        require_band("tau", self.tau)
        require_band("rho", self.rho)


@dataclass(frozen=True)
class LabeledBatch:
    """Samples with integer class labels in [0, c)."""

    samples: tuple  # of (sample_id: str, label: int)
    c: int

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        ids = [sid for sid, _ in self.samples]
        labels = np.array([label for _, label in self.samples])
        require(unique_ids(ids), class_range(ids, labels, self.c))

    def labels_by_id(self) -> dict:
        return dict(self.samples)

    def __len__(self):
        return len(self.samples)


@dataclass(frozen=True)
class BinaryPrediction:
    """A two-class prediction: probability of class_a against class_b."""

    class_a: int
    class_b: int
    prob_a: float

    def __post_init__(self):
        if self.class_a == self.class_b:
            raise ValueError("class_a and class_b must differ")
        if not (0.0 <= self.prob_a <= 1.0):
            raise ValueError(f"prob_a must lie in [0, 1], got {self.prob_a}")

    @property
    def prob_b(self) -> float:
        return 1.0 - self.prob_a


def posterior_violations(probs: np.ndarray) -> dict[int, str]:
    """Check the simplex invariants on every row of an (N, c) stack of posteriors.

    Returns the first violated invariant of each invalid row, keyed by its
    row; valid rows are absent.
    """
    with np.errstate(over="ignore"):  # a sum that overflows to inf fails the sum test
        sums = probs.sum(axis=1)
    finite = np.isfinite(probs).all(axis=1)
    in_range = ((probs >= 0.0) & (probs <= 1.0)).all(axis=1)
    out = {}
    for row in np.flatnonzero(~(finite & in_range & (np.abs(sums - 1.0) <= SUM_TOL))).tolist():
        if not finite[row]:
            out[row] = "posterior contains non-finite entries"
        elif not in_range[row]:
            out[row] = "posterior entries must lie in [0, 1]"
        else:
            out[row] = f"posterior sums to {sums[row]:.12g}, outside tolerance {SUM_TOL}"
    return out


# -- per-row rules on outside input: each returns (mask, reason) checks, a mask
# of the rows that break the rule and a function from such a row to why.  The
# file readers report the first with its path:line, the library raises it.


def first_violation(*checks) -> tuple[int, str] | None:
    """(row, reason) of the earliest row that fails a check, by the first check it fails."""
    row = min((int(h[0]) for mask, _ in checks if (h := np.flatnonzero(mask)).size), default=None)
    return None if row is None else (row, next(why(row) for mask, why in checks if mask[row]))


def require(*checks) -> None:
    """Raise the reason of the first violation as ValueError."""
    if (violation := first_violation(*checks)) is not None:
        raise ValueError(violation[1])


def unique_ids(ids: list):
    """No row repeats the sample_id of an earlier row."""
    first: dict = {}
    repeated = np.array([first.setdefault(sid, k) != k for k, sid in enumerate(ids)], dtype=bool)
    return repeated, lambda k: f"duplicate sample_id {ids[k]!r}"


def class_range(ids: list, classes: np.ndarray, c: int, name: str = "label"):
    """Every row's class, its ``name``, lies in [0, c)."""
    why = "{} {} for sample {!r} outside [0, {})".format
    return (classes < 0) | (classes >= c), lambda k: why(name, classes[k], ids[k], c)


def pair_checks(i: np.ndarray, j: np.ndarray, q: np.ndarray, name: str, sample=None, ids=None):
    """Rows (i, j, q), q named ``name``: integers 0 <= i < j, q in [0, 1], and no pair
    repeated, within a sample where ``sample`` numbers and ``ids`` names each row's."""
    keys = (i, j) if sample is None else (sample, i, j)
    order = np.lexsort(keys[::-1])  # stable: equal keys keep their row order
    same = np.logical_and.reduce([np.diff(key[order]) == 0 for key in keys])
    repeated = np.zeros(order.size, dtype=bool)
    repeated[order[1:][same]] = True
    scope = (lambda k: "") if ids is None else (lambda k: f" for sample {ids[k]!r}")
    whole = np.isfinite(i) & np.isfinite(j) & (np.floor(i) == i) & (np.floor(j) == j)
    return [
        (~whole, lambda k: f"class indices must be integers, got ({i[k]},{j[k]})"),
        ((i < 0) | (i >= j), lambda k: f"need 0 <= i < j, got ({i[k]},{j[k]})"),
        (~((q >= 0.0) & (q <= 1.0)), lambda k: f"{name} = {float(q[k])} outside [0, 1]"),
        (repeated, lambda k: f"duplicate pair ({i[k]},{j[k]}){scope(k)}"),
    ]


def class_bound(i: np.ndarray, j: np.ndarray, c: int):
    """Every row's pair (i, j), i < j, names classes below c."""
    return j >= c, lambda k: f"patch pair ({i[k]},{j[k]}) references class >= c={c}"


def distance_range(d: np.ndarray, written=None):
    """Every distance is finite and non-negative; a reason quotes ``written(row)`` or the number."""
    why = "distance {!r} is not finite and non-negative".format
    return ~(np.isfinite(d) & (d >= 0.0)), lambda k: why(written(k) if written else float(d[k]))


@functools.lru_cache(maxsize=None)
def triu_index(c: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle of a c x c matrix.

    Pairs come in row-major order, the row order of the pairwise file format.
    The arrays are cached per ``c`` and read-only, as are those of
    :func:`off_diagonal` and :func:`strict_upper`.
    """
    return tuple(_read_only(a) for a in np.triu_indices(c, k=1))


def diagonals(stack: np.ndarray) -> np.ndarray:
    """(N, c) view of the diagonals of a C-contiguous (N, c, c) stack; writes
    reach the stack.  Any other layout raises, as its reshape would copy."""
    if not stack.flags.c_contiguous:
        raise ValueError("diagonals needs a C-contiguous stack")
    n, c = stack.shape[:2]
    return stack.reshape(n, c * c)[:, :: c + 1]


@functools.lru_cache(maxsize=None)
def off_diagonal(c: int) -> np.ndarray:
    """(c, c) mask of the off-diagonal entries."""
    return _read_only(~np.eye(c, dtype=bool))


@functools.lru_cache(maxsize=None)
def strict_upper(c: int) -> np.ndarray:
    """(c, c) mask of the strict upper triangle."""
    return _read_only(np.triu(off_diagonal(c)))


def from_upper(upper: np.ndarray, c: int) -> np.ndarray:
    """Pairwise matrices from their strict upper triangles.

    ``upper`` is (N, c(c-1)/2) in :func:`triu_index` order.  Every lower entry
    is exactly one minus its upper entry and the diagonal is zero, so the
    (N, c, c) result meets the pair-sum invariant exactly.
    """
    rows, cols = triu_index(c)
    out = np.zeros((len(upper), c, c))
    out[:, rows, cols] = upper
    out[:, cols, rows] = 1.0 - upper
    return out


def pairwise_violations(stack: np.ndarray) -> dict[int, list[str]]:
    """Check the pairwise-matrix invariants on every matrix of an (N, c, c) stack.

    Returns the violation messages of each invalid matrix, keyed by its row;
    valid rows are absent.  One fused test over the whole stack finds whether
    any row fails; only then are the per-entry masks built, and messages are
    formatted for the failing rows.  A stack with a non-finite entry raises
    ``ShapeError``.  The input is never mutated.
    """
    c = stack.shape[-1]
    stack = np.ascontiguousarray(stack)
    # NaN fails both bounds, so only a stack outside [0, 1] pays the finiteness pass
    bounded = stack.min(initial=0.0) >= 0.0 and stack.max(initial=1.0) <= 1.0
    if not (bounded or np.isfinite(stack).all()):
        raise ShapeError("pairwise matrix contains non-finite entries")
    # a pair sum that overflows to inf fails the sum test; only an unbounded
    # stack can overflow, so only it pays for the errstate
    with contextlib.nullcontext() if bounded else np.errstate(over="ignore"):
        s = stack + stack.swapaxes(1, 2)
    diagonals(s)[...] = 1.0
    # a nonzero diagonal fails by itself, so the range test may span it;
    # max(s) - 1 and 1 - min(s) bound |s - 1| exactly
    if (
        bounded
        and not np.count_nonzero(diagonals(stack))
        and s.max(initial=1.0) - 1.0 <= SYM_TOL
        and 1.0 - s.min(initial=1.0) <= SYM_TOL
    ):
        return {}
    diag_bad = diagonals(stack) != 0.0
    range_bad = off_diagonal(c) & ((stack < 0.0) | (stack > 1.0))
    sum_bad = strict_upper(c) & (np.abs(s - 1.0) > SYM_TOL)
    bad = diag_bad.any(axis=1) | range_bad.any(axis=(1, 2)) | sum_bad.any(axis=(1, 2))
    out = {}
    for row in np.flatnonzero(bad).tolist():
        m = stack[row]
        violations = [
            f"diagonal entry ({k},{k}) is {m[k, k]:.12g}, expected exactly 0"
            for k in np.flatnonzero(diag_bad[row])
        ]
        violations += [
            f"entry ({i},{j}) = {m[i, j]:.12g} outside [0, 1]"
            for i, j in zip(*np.nonzero(range_bad[row]))
        ]
        violations += [
            f"complement violation at ({i},{j}): r_ij + r_ji = {s[row, i, j]:.12g}, expected 1"
            for i, j in zip(*np.nonzero(sum_bad[row]))
        ]
        out[row] = violations
    return out


def validate_pairwise(matrix: PairwiseLikelihoodMatrix) -> list[str]:
    """Check the pairwise-matrix invariants, returning a list of violations.

    An empty list means the matrix is valid.  The input is never mutated.
    Structural problems (non-square input) are raised by the
    ``PairwiseLikelihoodMatrix`` constructor instead, so by the time a value
    reaches this function only the probabilistic invariants can fail.
    """
    return pairwise_violations(matrix.entries[None]).get(0, [])
