"""Patching and recombining pairwise matrices.

Two uses of the modularity of pairwise models: replacing a single pair's
entries with a specialized binary classifier's output before coupling
(incremental correction), and resampling each pair's entries from one of
several source matrices to build a large ensemble of classifiers from a
handful of trained ones (randomness estimation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CouplingConfig,
    PairwiseLikelihoodMatrix,
    PlmError,
    Posterior,
    ShapeError,
    triu_index,
)
from .coupling import CoupledStack, couple_stack, theta_map_stack


@dataclass(frozen=True)
class CorrectionPatch:
    """Replacement probabilities for selected class pairs, keyed by (i, j) with i < j."""

    pairs: tuple  # of (i: int, j: int, prob_i: float)

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        seen = set()
        for i, j, q in self.pairs:
            if i >= j or i < 0:
                raise ValueError(f"patch pair ({i},{j}) must satisfy 0 <= i < j")
            if (i, j) in seen:
                raise ValueError(f"duplicate patch pair ({i},{j})")
            if not (0.0 <= q <= 1.0):
                raise ValueError(f"patch probability {q} outside [0, 1]")
            seen.add((i, j))

    def check_classes(self, c: int) -> None:
        for i, j, _ in self.pairs:
            if j >= c:
                raise ValueError(f"patch pair ({i},{j}) references class >= c={c}")


@dataclass(frozen=True)
class EnsembleSummary:
    """Per-class spread of coupled posteriors across recombinations."""

    mean: np.ndarray
    sd: np.ndarray
    minimum: np.ndarray
    maximum: np.ndarray
    deciles: np.ndarray  # shape (9, c): d10 .. d90
    n_samples: int
    n_excluded: int


def correct_stack(probs: np.ndarray, patch: CorrectionPatch) -> np.ndarray:
    """Pairwise matrices of an (N, c) posterior stack with the patched pairs' entries replaced."""
    patch.check_classes(probs.shape[1])
    m = theta_map_stack(probs)
    for i, j, q in patch.pairs:
        m[:, i, j] = q
        m[:, j, i] = 1.0 - q
    return m


def partial_correct(p: Posterior, patch: CorrectionPatch) -> PairwiseLikelihoodMatrix:
    """Pairwise matrix of ``p`` with the patched pairs' entries replaced."""
    return PairwiseLikelihoodMatrix(correct_stack(p.probs[None], patch)[0])


def _pair_rng(seed: int, index: int) -> np.random.Generator:
    # PCG64 seeded through SeedSequence(seed, spawn_key=(index,)): a named,
    # fully specified generator, so seeds reproduce across platforms
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))


def recombine_stack(sources: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Build an (n, c, c) stack from an (S, c, c) stack of source matrices,
    each pair's entries drawn from a uniformly random source.

    Pairs move atomically with their complements, so every output satisfies
    the pairwise invariants whenever the sources do.  Deterministic given
    ``seed``; output ``k`` depends only on (seed, k).
    """
    if len(sources) < 2:
        raise ValueError("need at least two source matrices")
    c = sources.shape[-1]
    rows, cols = triu_index(c)
    choice = np.zeros((n, rows.size), dtype=np.int64)
    for k in range(n):
        choice[k] = _pair_rng(seed, k).integers(0, len(sources), size=rows.size)
    out = np.zeros((n, c, c))
    out[:, rows, cols] = sources[choice, rows, cols]
    out[:, cols, rows] = sources[choice, cols, rows]
    return out


def bootstrap_recombine(
    sources: list[PairwiseLikelihoodMatrix], n: int, seed: int
) -> list[PairwiseLikelihoodMatrix]:
    """Build ``n`` matrices, each pair's entries drawn from a uniformly random source.

    The matrices of :func:`recombine_stack`, one object each.
    """
    for s in sources[1:]:
        if s.c != sources[0].c:
            raise ShapeError(f"source class counts differ: {s.c} vs {sources[0].c}")
    stack = np.array([s.entries for s in sources])
    return [PairwiseLikelihoodMatrix(m) for m in recombine_stack(stack, n, seed)]


def summarize(coupled: CoupledStack) -> EnsembleSummary:
    """Aggregate per-class statistics over the rows of a coupled stack.

    Rows that failed to couple are excluded and counted rather than aborting
    the whole summary.
    """
    if not coupled.errors:
        raise ValueError("need at least one matrix")
    ok = np.array([e is None for e in coupled.errors])
    if not ok.any():
        raise PlmError("every matrix failed to couple")
    arr = coupled.probs[ok]
    return EnsembleSummary(
        mean=arr.mean(axis=0),
        sd=arr.std(axis=0, ddof=0),
        minimum=arr.min(axis=0),
        maximum=arr.max(axis=0),
        deciles=np.quantile(arr, np.linspace(0.1, 0.9, 9), axis=0),
        n_samples=int(ok.sum()),
        n_excluded=int((~ok).sum()),
    )


def ensemble_summary(
    matrices: list[PairwiseLikelihoodMatrix], config: CouplingConfig
) -> EnsembleSummary:
    """Couple every matrix and aggregate per-class statistics (see :func:`summarize`)."""
    if not matrices:
        raise ValueError("need at least one matrix")
    return summarize(couple_stack(np.stack([m.entries for m in matrices]), config))
