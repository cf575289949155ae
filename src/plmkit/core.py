"""Shared value types for pairwise-likelihood classification.

Everything here is an immutable value object: constructors validate, arrays
are frozen, and all operations elsewhere in the package treat these as
read-only inputs.
"""

from __future__ import annotations

import enum
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


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Posterior:
    """A probability distribution over ``c`` classes for one sample."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _frozen(self.probs))
        p = self.probs
        if p.ndim != 1 or p.size < 2:
            raise ShapeError(f"posterior must be a vector of length >= 2, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise InvalidDistributionError("posterior contains non-finite entries")
        if np.any(p < 0) or np.any(p > 1):
            raise InvalidDistributionError("posterior entries must lie in [0, 1]")
        if abs(p.sum() - 1.0) > SUM_TOL:
            raise InvalidDistributionError(
                f"posterior sums to {p.sum():.12g}, outside tolerance {SUM_TOL}"
            )

    @property
    def c(self) -> int:
        return self.probs.size

    def __eq__(self, other):
        return isinstance(other, Posterior) and np.array_equal(self.probs, other.probs)

    def __hash__(self):
        return hash(self.probs.tobytes())


@dataclass(frozen=True)
class PairwiseLikelihoodMatrix:
    """A c x c matrix of pairwise likelihoods, zero diagonal by convention.

    The constructor only checks structure (square, c >= 2, finite entries);
    the probabilistic invariants are checked by :func:`validate_pairwise` so
    that malformed matrices can still be represented and reported on.
    """

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen(self.entries))
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


@dataclass(frozen=True)
class ThetaMatrix:
    """Log-odds reparametrization of a pairwise likelihood matrix.

    Off-diagonal entries are antisymmetric; the diagonal is zero.
    """

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen(self.entries))
        m = self.entries
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise ShapeError(f"theta matrix must be square with c >= 2, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise SingularityError("theta matrix contains non-finite entries")
        if np.max(np.abs(m + m.T)) > SYM_TOL:
            raise ShapeError("theta matrix is not antisymmetric within tolerance")

    @property
    def c(self) -> int:
        return self.entries.shape[0]


class Method(enum.Enum):
    WU_LIN_WENG = "wlw"
    BAYES_COVARIANT = "bc"


class Stabilization(enum.Enum):
    NONE = "none"
    CLIP = "clip"
    DROP_CLASSES = "drop"


@dataclass(frozen=True)
class CouplingConfig:
    """Method selector plus numerical-stabilization strategy and thresholds."""

    method: Method = Method.WU_LIN_WENG
    stabilization: Stabilization = Stabilization.NONE
    tau: float = 1e-3
    rho: float = 1e-3

    def __post_init__(self):
        if not (0.0 < self.tau < 0.5):
            raise ValueError(f"tau must be in (0, 0.5), got {self.tau}")
        if not (0.0 < self.rho < 0.5):
            raise ValueError(f"rho must be in (0, 0.5), got {self.rho}")


@dataclass(frozen=True)
class LabeledBatch:
    """Samples with integer class labels in [0, c)."""

    samples: tuple  # of (sample_id: str, label: int)
    c: int

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        ids = [sid for sid, _ in self.samples]
        if len(set(ids)) != len(ids):
            raise ValueError("sample_ids must be unique")
        for sid, label in self.samples:
            if not (0 <= label < self.c):
                raise ValueError(f"label {label} for sample {sid!r} outside [0, {self.c})")

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


def pairwise_violations(stack: np.ndarray) -> dict[int, list[str]]:
    """Check the pairwise-matrix invariants on every matrix of an (N, c, c) stack.

    Returns the violation messages of each invalid matrix, keyed by its row;
    valid rows are absent, so messages are formatted only for rows that fail.
    The input is never mutated.
    """
    c = stack.shape[-1]
    diag_bad = np.diagonal(stack, axis1=1, axis2=2) != 0.0
    off = ~np.eye(c, dtype=bool)
    range_bad = off & ((stack < 0.0) | (stack > 1.0))
    s = stack + np.swapaxes(stack, 1, 2)
    sum_bad = np.triu(np.abs(s - 1.0) > SYM_TOL, k=1)
    bad = diag_bad.any(axis=1) | range_bad.any(axis=(1, 2)) | sum_bad.any(axis=(1, 2))
    out = {}
    for row in np.nonzero(bad)[0]:
        m = stack[row]
        violations = [
            f"diagonal entry ({k},{k}) is {m[k, k]:.12g}, expected exactly 0"
            for k in np.nonzero(diag_bad[row])[0]
        ]
        violations += [
            f"entry ({i},{j}) = {m[i, j]:.12g} outside [0, 1]"
            for i, j in zip(*np.nonzero(range_bad[row]))
        ]
        violations += [
            f"complement violation at ({i},{j}): r_ij + r_ji = {s[row, i, j]:.12g}, expected 1"
            for i, j in zip(*np.nonzero(sum_bad[row]))
        ]
        out[int(row)] = violations
    return out


def validate_pairwise(matrix: PairwiseLikelihoodMatrix) -> list[str]:
    """Check the pairwise-matrix invariants, returning a list of violations.

    An empty list means the matrix is valid.  The input is never mutated.
    Structural problems (non-square input) are raised by the
    ``PairwiseLikelihoodMatrix`` constructor instead, so by the time a value
    reaches this function only the probabilistic invariants can fail.
    """
    return pairwise_violations(matrix.entries[None]).get(0, [])


def require_valid_pairwise(matrix: PairwiseLikelihoodMatrix) -> None:
    """Raise ``InvalidDistributionError`` if the matrix violates any invariant."""
    violations = validate_pairwise(matrix)
    if violations:
        raise InvalidDistributionError("; ".join(violations))
