"""Sureness scores: distance from the additive (Bradley-Terry-style) manifold.

A pairwise matrix built from a single posterior lies exactly on the manifold;
matrices assembled from independent binary classifiers generally do not, and
the size of the discrepancy measures how unsure the coupled model is.  Each
coupling method has a natural distance: the residual objective value for the
quadratic minimizer, and the projection residual norm for the log-odds method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CouplingConfig, Method, PairwiseLikelihoodMatrix, Posterior, Stabilization
from .coupling import CoupledStack, couple, couple_stack


@dataclass(frozen=True)
class SurenessScore:
    sample_id: str
    method: Method
    distance: float

    def __post_init__(self):
        if self.distance < 0.0:
            raise ValueError("distance must be non-negative")


@dataclass(frozen=True)
class Abstain:
    """Marker returned instead of a posterior when distance exceeds the threshold."""

    distance: float


def sureness_stack(stack: np.ndarray, config: CouplingConfig) -> CoupledStack:
    """Couple an (N, c, c) stack the way ``config.method``'s distance is measured.

    The ``residual`` of the result is each matrix's distance: the objective
    value of the unstabilized quadratic coupling, or the log-odds projection
    residual after clipping into [tau, 1 - tau], mirroring how the log-odds
    coupling is run in practice.
    """
    if config.method is Method.WU_LIN_WENG:
        measured = CouplingConfig(method=Method.WU_LIN_WENG)
    else:
        measured = CouplingConfig(
            method=Method.BAYES_COVARIANT, stabilization=Stabilization.CLIP, tau=config.tau
        )
    return couple_stack(stack, measured)


def _distance(matrix: PairwiseLikelihoodMatrix, config: CouplingConfig) -> CoupledStack:
    coupled = sureness_stack(matrix.entries[None], config)
    coupled.raise_first()
    return coupled


def distance_wlw(matrix: PairwiseLikelihoodMatrix) -> float:
    """Residual objective value at the quadratic coupling's minimizer."""
    return float(_distance(matrix, CouplingConfig()).residual[0])


def distance_bc(matrix: PairwiseLikelihoodMatrix, tau: float = 1e-3) -> float:
    """Norm of the log-odds residual after projecting onto the additive subspace.

    Entries are clipped into [tau, 1 - tau] first, mirroring how the log-odds
    coupling is run in practice.
    """
    config = CouplingConfig(method=Method.BAYES_COVARIANT, tau=tau)
    return float(_distance(matrix, config).residual[0])


def sureness(matrix: PairwiseLikelihoodMatrix, config: CouplingConfig) -> float:
    """Distance appropriate to the configured coupling method."""
    if config.method is Method.WU_LIN_WENG:
        return distance_wlw(matrix)
    return distance_bc(matrix, tau=config.tau)


def calibrate_threshold(in_distribution: list[float], quantile: float) -> float:
    """Nearest-rank empirical quantile of in-distribution distances.

    The abstention rule is ``distance > threshold``, so a quantile of e.g.
    0.95 lets through 95% of in-distribution traffic.
    """
    if not in_distribution:
        raise ValueError("need at least one in-distribution distance")
    if not (0.0 < quantile < 1.0):
        raise ValueError(f"quantile must be in (0, 1), got {quantile}")
    ordered = sorted(in_distribution)
    rank = math.ceil(quantile * len(ordered))
    return ordered[rank - 1]


def abstaining_predict(
    matrix: PairwiseLikelihoodMatrix, config: CouplingConfig, threshold: float
) -> Posterior | Abstain:
    """Couple the matrix, or abstain when its manifold distance exceeds the threshold."""
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    coupled = _distance(matrix, config)
    d = float(coupled.residual[0])
    if d > threshold:
        return Abstain(distance=d)
    # the distance's own coupling is the answer when it runs the configured one
    if config.stabilization is (
        Stabilization.NONE if config.method is Method.WU_LIN_WENG else Stabilization.CLIP
    ):
        return coupled.posterior(0)
    return couple(matrix, config)
