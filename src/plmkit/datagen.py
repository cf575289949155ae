"""Synthetic data sources: Gaussian blobs with exact posteriors and
on-manifold perturbation for recovery experiments.

These stand in for trained models so that every coupling-layer behavior can
be exercised deterministically at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    LabeledBatch,
    PairwiseLikelihoodMatrix,
    Posterior,
    SingularityError,
    from_upper,
    require_int,
    require_seed,
    triu_index,
)
from .coupling import theta_map


@dataclass(frozen=True)
class BlobSpec:
    """Isotropic Gaussian class blobs with a shared scale and equal priors."""

    c: int
    dim: int
    means: np.ndarray  # shape (c, dim)
    scale: float
    n_per_class: int
    seed: int

    def __post_init__(self):
        require_int("c", self.c, 2)
        require_int("dim", self.dim, 1)
        means = np.array(self.means, dtype=float)
        means.setflags(write=False)
        object.__setattr__(self, "means", means)
        if means.shape != (self.c, self.dim):
            raise ValueError(f"means must have shape ({self.c},{self.dim}), got {means.shape}")
        if not np.isfinite(means).all():
            raise ValueError("means must be finite")
        if not 0.0 < self.scale < np.inf:
            raise ValueError(f"scale must be finite and positive, got {self.scale}")
        require_int("n_per_class", self.n_per_class, 1)
        require_seed("seed", self.seed)


def generate_blobs(spec: BlobSpec) -> tuple[np.ndarray, LabeledBatch]:
    """Draw n_per_class points per class blob in place (one array); deterministic given seed."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    features = rng.standard_normal((spec.c, spec.n_per_class, spec.dim))
    np.add(spec.means[:, None, :], np.multiply(features, spec.scale, out=features), out=features)
    samples = tuple((f"s{s}", s // spec.n_per_class) for s in range(spec.c * spec.n_per_class))
    return features.reshape(-1, spec.dim), LabeledBatch(samples=samples, c=spec.c)


def bayes_posterior_stack(spec: BlobSpec, features: np.ndarray) -> np.ndarray:
    """Exact class posteriors of the blob mixture under equal priors: (N, dim) -> (N, c);
    ``ValueError`` where a squared distance over 2 * scale**2 overflows them to NaN."""
    x = np.asarray(features, dtype=float)
    with np.errstate(all="ignore"):
        d2 = np.sum((spec.means[None, :, :] - x[:, None, :]) ** 2, axis=2)
        logp = -d2 / (2.0 * spec.scale**2)
        w = np.exp(logp - logp.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
    if not np.isfinite(w).all():
        raise ValueError(f"posteriors are not finite at scale {spec.scale!r}")
    return w


def bayes_posterior_blobs(spec: BlobSpec, x: np.ndarray) -> Posterior:
    """Exact class posterior of the blob mixture under equal priors for one point."""
    return Posterior(bayes_posterior_stack(spec, np.asarray(x, dtype=float)[None, :])[0])


def perturb_manifold(p: Posterior, noise_scale: float, seed: int) -> PairwiseLikelihoodMatrix:
    """Add Gaussian noise to the log-odds coordinates of p's pairwise matrix.

    The noise acts on each upper-triangle entry's log-odds and the lower
    triangle holds the complements, so the result is a valid matrix for any
    finite scale >= 0; a scale of zero reproduces the matrix exactly.
    """
    if not 0.0 <= noise_scale < np.inf:
        raise ValueError(f"noise_scale must be finite and >= 0, got {noise_scale}")
    require_seed("seed", seed)
    if np.any(p.probs == 0.0):
        raise SingularityError("posterior must be strictly positive")
    base = theta_map(p)
    if noise_scale == 0.0:
        return base
    iu = triu_index(p.c)
    rng = np.random.Generator(np.random.PCG64(seed))
    # an entry that rounds to 1 has log-odds log(0) = -inf, and a large noise can
    # overflow exp to inf; 1 / (1 + exp) takes those limits to the exact 1 and 0
    with np.errstate(divide="ignore", over="ignore"):
        theta = np.log(1.0 / np.maximum(base.entries[iu], 1e-300) - 1.0)
        r = 1.0 / (1.0 + np.exp(theta + noise_scale * rng.standard_normal(iu[0].size)))
    return PairwiseLikelihoodMatrix(from_upper(r[None], p.c)[0])
