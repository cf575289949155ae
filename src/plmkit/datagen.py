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
    require_band,
    triu_index,
)
from .coupling import theta_map

# GLM fits: at most _MAX_ITERATIONS Newton steps, each halved at most _MAX_HALVINGS
# times, converged once one moves no weight by more than _STEP_TOLERANCE; cloglog
# clips eta where exp(eta) would underflow or overflow
_MAX_ITERATIONS, _MAX_HALVINGS, _STEP_TOLERANCE = 100, 30, 1e-8
_CLOGLOG_ETA = (-700.0, 30.0)


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
        if self.c < 2:
            raise ValueError(f"c must be >= 2, got {self.c}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        means = np.array(self.means, dtype=float)
        means.setflags(write=False)
        object.__setattr__(self, "means", means)
        if means.shape != (self.c, self.dim):
            raise ValueError(f"means must have shape ({self.c},{self.dim}), got {means.shape}")
        if not np.isfinite(means).all():
            raise ValueError("means must be finite")
        if not 0.0 < self.scale < np.inf:
            raise ValueError(f"scale must be finite and positive, got {self.scale}")
        if self.n_per_class < 1:
            raise ValueError("n_per_class must be >= 1")


@dataclass(frozen=True)
class GlmSpec:
    """Training configuration for a binary GLM with a selectable link.

    With ``epsilon_labels`` the 0/1 targets are replaced by epsilon and
    1 - epsilon; an epsilon of ``None`` defaults to 1 / n_train at fit time,
    which must lie in the same band (0, 0.5), so n_train must exceed 2.
    ``link`` takes a member or its value and holds the member.
    """

    link: Link = Link.LOGIT
    epsilon_labels: bool = False
    epsilon: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "link", Link(self.link))
        if self.epsilon is not None:
            require_band("epsilon", self.epsilon)
        if self.epsilon is not None and not self.epsilon_labels:
            raise ValueError("epsilon is given but epsilon_labels is False")


@dataclass(frozen=True)
class FittedGlm:
    """Fitted weights and intercept; callable to get P(class 1 | x)."""

    weights: np.ndarray
    intercept: float
    link: Link
    converged: bool
    iterations: int

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        eta = np.atleast_2d(features) @ self.weights + self.intercept
        return _inverse_link(eta, self.link)


def _inverse_link(eta: np.ndarray, link: Link) -> np.ndarray:
    """P(class 1) at the linear predictor eta; no overflow at any finite eta."""
    if link is Link.LOGIT:
        e = np.exp(-np.abs(eta))
        return np.where(eta >= 0.0, 1.0, e) / (1.0 + e)
    return -np.expm1(-np.exp(np.clip(eta, *_CLOGLOG_ETA)))


def _terms(eta: np.ndarray, t: np.ndarray, link: Link) -> tuple[float, np.ndarray, np.ndarray]:
    """The log-likelihood of targets t, and per row its first derivative in eta and
    its negated second derivative (the observed information), all free of cancellation."""
    if link is Link.LOGIT:
        mu, nu = _inverse_link(eta, link), _inverse_link(-eta, link)  # nu = 1 - mu
        return np.sum(t * eta - np.logaddexp(0.0, eta)), t * nu - (1.0 - t) * mu, mu * nu
    lam = np.exp(np.clip(eta, *_CLOGLOG_ETA))  # -log(1 - mu)
    mu = -np.expm1(-lam)
    odds = np.exp(-lam) / mu  # (1 - mu) / mu
    loglik = np.sum(t * np.log(mu) - (1.0 - t) * lam)
    return loglik, lam * (t * odds - (1.0 - t)), lam * (1.0 - t + t * odds * (lam / mu - 1.0))


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


def train_binary_glm(features: np.ndarray, labels: np.ndarray, spec: GlmSpec) -> FittedGlm:
    """Fit the GLM by Newton's method, halving a step until the log-likelihood does not fall
    by more than the rounding of its sum (one ulp per row), which at the optimum it can."""
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if x.ndim != 2 or y.shape != x.shape[:1]:
        raise ValueError(f"need 2-D features with one row per label, got {x.shape} and {y.shape}")
    if not np.isfinite(x).all():
        raise ValueError("features contain non-finite entries")
    if set(np.unique(y)) != {0.0, 1.0}:
        raise ValueError("need both classes present with labels in {0, 1}")
    eps = (spec.epsilon or 1.0 / y.size) if spec.epsilon_labels else 0.0
    if spec.epsilon_labels:
        require_band("epsilon", eps)
    t = np.where(y > 0.5, 1.0 - eps, eps)
    design = np.column_stack([x, np.ones(len(x))])
    beta = np.zeros(design.shape[1])
    loglik, score, info = _terms(design @ beta, t, spec.link)
    converged, iterations = False, 0
    for iterations in range(1, _MAX_ITERATIONS + 1):
        try:
            step = np.linalg.solve((design.T * info) @ design, design.T @ score)
        except np.linalg.LinAlgError:  # collinear features, or a fully saturated fit
            break
        if np.abs(step).max() <= _STEP_TOLERANCE:
            beta += step
            converged = True
            break
        rounding = t.size * np.spacing(abs(loglik))
        for _ in range(_MAX_HALVINGS):
            trial = _terms(design @ (beta + step), t, spec.link)
            if trial[0] >= loglik - rounding:
                break
            step /= 2.0
        else:  # no fraction of the step keeps the log-likelihood from falling
            break
        beta += step
        loglik, score, info = trial
    return FittedGlm(beta[:-1], float(beta[-1]), spec.link, converged, iterations)


def perturb_manifold(p: Posterior, noise_scale: float, seed: int) -> PairwiseLikelihoodMatrix:
    """Add Gaussian noise to the log-odds coordinates of p's pairwise matrix.

    The noise acts on each upper-triangle entry's log-odds and the lower
    triangle holds the complements, so the result is a valid matrix for any
    finite scale; a scale of zero reproduces the matrix exactly.
    """
    if np.any(p.probs == 0.0):
        raise SingularityError("posterior must be strictly positive")
    base = theta_map(p)
    if noise_scale == 0.0:
        return base
    iu = triu_index(p.c)
    theta = np.log(1.0 / np.maximum(base.entries[iu], 1e-300) - 1.0)
    rng = np.random.Generator(np.random.PCG64(seed))
    r = 1.0 / (1.0 + np.exp(theta + noise_scale * rng.standard_normal(iu[0].size)))
    return PairwiseLikelihoodMatrix(from_upper(r[None], p.c)[0])
