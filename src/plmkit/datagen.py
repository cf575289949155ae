"""Synthetic data sources: Gaussian blobs with exact posteriors, a small
binary GLM trainer, and on-manifold perturbation for recovery experiments.

These stand in for trained models so that every coupling-layer behavior can
be exercised deterministically at desk scale.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    LabeledBatch,
    PairwiseLikelihoodMatrix,
    Posterior,
    SingularityError,
    from_upper,
    off_diagonal,
    triu_index,
)
from .coupling import theta_map


class Link(enum.Enum):
    LOGIT = "logit"
    CLOGLOG = "cloglog"


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
        means = np.array(self.means, dtype=float)
        means.setflags(write=False)
        object.__setattr__(self, "means", means)
        if means.shape != (self.c, self.dim):
            raise ValueError(f"means must have shape ({self.c},{self.dim}), got {means.shape}")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.n_per_class < 1:
            raise ValueError("n_per_class must be >= 1")


@dataclass(frozen=True)
class GlmSpec:
    """Training configuration for a binary GLM with a selectable link.

    With ``epsilon_labels`` the 0/1 targets are replaced by epsilon and
    1 - epsilon; an epsilon of ``None`` defaults to 1 / n_train at fit time.
    """

    link: Link = Link.LOGIT
    epsilon_labels: bool = False
    epsilon: float | None = None
    learning_rate: float = 0.1
    max_epochs: int = 5000
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.epsilon is not None and not (0.0 < self.epsilon < 0.5):
            raise ValueError(f"epsilon must be in (0, 0.5), got {self.epsilon}")


@dataclass(frozen=True)
class FittedGlm:
    """Fitted weights and intercept; callable to get P(class 1 | x)."""

    weights: np.ndarray
    intercept: float
    link: Link
    converged: bool
    epochs: int

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        eta = np.atleast_2d(features) @ self.weights + self.intercept
        return _inverse_link(eta, self.link)


def _inverse_link(eta: np.ndarray, link: Link) -> np.ndarray:
    if link is Link.LOGIT:
        return 1.0 / (1.0 + np.exp(-eta))
    return 1.0 - np.exp(-np.exp(np.clip(eta, None, 30.0)))


def generate_blobs(spec: BlobSpec) -> tuple[np.ndarray, LabeledBatch]:
    """Draw n_per_class points from each class blob; deterministic given seed."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    features = np.concatenate(
        [
            spec.means[k] + spec.scale * rng.standard_normal((spec.n_per_class, spec.dim))
            for k in range(spec.c)
        ]
    )
    samples = [
        (f"s{k * spec.n_per_class + t}", k)
        for k in range(spec.c)
        for t in range(spec.n_per_class)
    ]
    return features, LabeledBatch(samples=tuple(samples), c=spec.c)


def bayes_posterior_stack(spec: BlobSpec, features: np.ndarray) -> np.ndarray:
    """Exact class posteriors of the blob mixture under equal priors: (N, dim) -> (N, c)."""
    x = np.asarray(features, dtype=float)
    d2 = np.sum((spec.means[None, :, :] - x[:, None, :]) ** 2, axis=2)
    logp = -d2 / (2.0 * spec.scale**2)
    w = np.exp(logp - logp.max(axis=1, keepdims=True))
    return w / w.sum(axis=1, keepdims=True)


def bayes_posterior_blobs(spec: BlobSpec, x: np.ndarray) -> Posterior:
    """Exact class posterior of the blob mixture under equal priors for one point."""
    return Posterior(bayes_posterior_stack(spec, np.asarray(x, dtype=float)[None, :])[0])


def train_binary_glm(
    features: np.ndarray, labels: np.ndarray, spec: GlmSpec
) -> FittedGlm:
    """Fit the GLM by full-batch gradient ascent on the log-likelihood."""
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if set(np.unique(y)) != {0.0, 1.0}:
        raise ValueError("need both classes present with labels in {0, 1}")
    t = y
    if spec.epsilon_labels:
        eps = spec.epsilon if spec.epsilon is not None else 1.0 / y.size
        t = np.where(y > 0.5, 1.0 - eps, eps)
    n, dim = x.shape
    w = np.zeros(dim)
    b = 0.0
    tiny = 1e-12
    converged = False
    epochs = 0
    for epochs in range(1, spec.max_epochs + 1):
        eta = x @ w + b
        p = np.clip(_inverse_link(eta, spec.link), tiny, 1.0 - tiny)
        if spec.link is Link.LOGIT:
            dl_deta = t - p
        else:
            dp_deta = np.exp(np.clip(eta, None, 30.0) - np.exp(np.clip(eta, None, 30.0)))
            dl_deta = (t / p - (1.0 - t) / (1.0 - p)) * dp_deta
        grad_w = x.T @ dl_deta / n
        grad_b = dl_deta.mean()
        w += spec.learning_rate * grad_w
        b += spec.learning_rate * grad_b
        if np.sqrt(np.sum(grad_w**2) + grad_b**2) < spec.tolerance:
            converged = True
            break
    return FittedGlm(weights=w, intercept=b, link=spec.link, converged=converged, epochs=epochs)


def perturb_manifold(p: Posterior, noise_scale: float, seed: int) -> PairwiseLikelihoodMatrix:
    """Add Gaussian noise to the log-odds coordinates of p's pairwise matrix.

    The noise acts on the upper triangle and is antisymmetrized, so the
    result maps back to a valid matrix for any finite scale; a scale of zero
    reproduces the matrix exactly.
    """
    if np.any(p.probs == 0.0):
        raise SingularityError("posterior must be strictly positive")
    if noise_scale == 0.0:
        return theta_map(p)
    base = theta_map(p).entries
    c = p.c
    theta = np.where(off_diagonal(c), np.log(1.0 / np.maximum(base, 1e-300) - 1.0), 0.0)
    rng = np.random.Generator(np.random.PCG64(seed))
    iu = triu_index(c)
    noise = np.zeros((c, c))
    noise[iu] = noise_scale * rng.standard_normal(iu[0].size)
    theta = theta + noise - noise.T
    r = 1.0 / (1.0 + np.exp(theta))
    # exact complements: keep the upper triangle, derive the lower
    return PairwiseLikelihoodMatrix(from_upper(r[iu][None], c)[0])
