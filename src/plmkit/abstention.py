"""Sureness scores: distance from the additive (Bradley-Terry-style) manifold.

A pairwise matrix built from a single posterior lies exactly on the manifold;
matrices assembled from independent binary classifiers generally do not, and
the size of the discrepancy measures how unsure the coupled model is.  Each
coupling method has a natural distance: the residual objective value for the
quadratic minimizer, and the projection residual norm for the log-odds method.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import CouplingConfig, Method, PairwiseLikelihoodMatrix, Posterior, Stabilization
from .coupling import CoupledStack, couple, couple_stack


@dataclass(frozen=True)
class Abstain:
    """Marker returned instead of a posterior when distance exceeds the threshold."""

    distance: float


@functools.lru_cache(maxsize=32)
def _measured(method: Method, tau: float) -> CouplingConfig:
    """The configuration a method's distance is measured with, built once."""
    if method is Method.WU_LIN_WENG:
        return CouplingConfig(method=Method.WU_LIN_WENG)
    return CouplingConfig(method=Method.BAYES_COVARIANT, stabilization=Stabilization.CLIP, tau=tau)


def sureness_stack(stack: np.ndarray, config: CouplingConfig) -> CoupledStack:
    """Couple an (N, c, c) stack the way ``config.method``'s distance is measured.

    The ``residual`` of the result is each matrix's distance: the objective
    value of the unstabilized quadratic coupling, or the log-odds projection
    residual after clipping into [tau, 1 - tau], mirroring how the log-odds
    coupling is run in practice.
    """
    return couple_stack(stack, _measured(config.method, config.tau))


def _coupled_distance(
    matrix: PairwiseLikelihoodMatrix, config: CouplingConfig
) -> tuple[CoupledStack, float]:
    """The distance's coupling of one matrix, and the distance."""
    coupled = sureness_stack(matrix.entries[None], config)
    coupled.raise_first()
    return coupled, float(coupled.residual[0])


def sureness(matrix: PairwiseLikelihoodMatrix, config: CouplingConfig) -> float:
    """Distance appropriate to the configured coupling method."""
    return _coupled_distance(matrix, config)[1]


def distance_wlw(matrix: PairwiseLikelihoodMatrix) -> float:
    """Residual objective value at the quadratic coupling's minimizer."""
    return sureness(matrix, _measured(Method.WU_LIN_WENG, CouplingConfig.tau))


def distance_bc(matrix: PairwiseLikelihoodMatrix, tau: float = CouplingConfig.tau) -> float:
    """Norm of the log-odds residual after projecting onto the additive subspace.

    Entries are clipped into [tau, 1 - tau] first, mirroring how the log-odds
    coupling is run in practice.
    """
    return sureness(matrix, _measured(Method.BAYES_COVARIANT, tau))


def calibrate_threshold(in_distribution: list[float] | np.ndarray, quantile: float) -> float:
    """Nearest-rank empirical quantile of in-distribution distances: the
    ceil(q n)-th smallest of the n distances.

    The abstention rule is ``distance > threshold``.  A new distance that is
    exchangeable with the n given ones, all continuous, passes with
    probability ceil(q n) / (n + 1): 0.905, not 0.95, at n = 20 and q = 0.95.
    A tie at the threshold passes, so ties raise that rate.  NaN has no rank,
    so every distance must be finite and non-negative.
    """
    if len(in_distribution) == 0:
        raise ValueError("need at least one in-distribution distance")
    if not (0.0 < quantile < 1.0):
        raise ValueError(f"quantile must be in (0, 1), got {quantile}")
    core.require(core.distance_range(np.asarray(in_distribution, dtype=float)))
    ordered = sorted(in_distribution)
    rank = math.ceil(quantile * len(ordered))
    return float(ordered[rank - 1])


def abstaining_predict(
    matrix: PairwiseLikelihoodMatrix, config: CouplingConfig, threshold: float
) -> Posterior | Abstain:
    """Couple the matrix, or abstain when its manifold distance exceeds the threshold."""
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    coupled, d = _coupled_distance(matrix, config)
    if d > threshold:
        return Abstain(distance=d)
    # the distance's own coupling is the answer when it runs the configured one
    if config.stabilization is _measured(config.method, config.tau).stabilization:
        return coupled.posterior(0)
    return couple(matrix, config)
