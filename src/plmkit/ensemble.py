"""Patching and recombining pairwise matrices.

Two uses of the modularity of pairwise models: replacing a single pair's
entries with a specialized binary classifier's output before coupling
(incremental correction), and resampling each pair's entries from one of
several source matrices to build a large ensemble of classifiers from a
handful of trained ones (randomness estimation).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import core
from .core import PairwiseLikelihoodMatrix, Posterior, ShapeError, triu_index
from .coupling import theta_map_stack


@dataclass(frozen=True)
class CorrectionPatch:
    """Replacement probabilities for selected class pairs, keyed by (i, j) with i < j."""

    pairs: tuple  # of (i: int, j: int, prob_i: float)

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        for pair in self.pairs:
            if not (np.shape(pair) == (3,) and all(isinstance(x, numbers.Real) for x in pair)):
                raise ValueError(f"patch pair {pair} is not an (i, j, prob_i) triple of numbers")
        core.require(*core.pair_checks(*_columns(self), "prob_i"))


def _columns(patch: CorrectionPatch) -> list[np.ndarray]:
    """The i, j and prob_i of every pair of a patch, as three arrays."""
    return [np.array([pair[k] for pair in patch.pairs]) for k in range(3)]


def correct_stack(stack: np.ndarray, patch: CorrectionPatch) -> np.ndarray:
    """A copy of an (N, c, c) pairwise stack with the patched pairs' entries replaced."""
    i, j, q = _columns(patch)
    core.require(core.class_bound(i, j, stack.shape[-1]))
    i, j, m = i.astype(np.intp), j.astype(np.intp), stack.copy()
    m[:, i, j], m[:, j, i] = q, 1.0 - q
    return m


def partial_correct(p: Posterior, patch: CorrectionPatch) -> PairwiseLikelihoodMatrix:
    """Pairwise matrix of ``p`` with the patched pairs' entries replaced."""
    return PairwiseLikelihoodMatrix(correct_stack(theta_map_stack(p.probs[None]), patch)[0])


def _pair_rng(seed: int, index: int) -> np.random.Generator:
    # PCG64 seeded through SeedSequence(seed, spawn_key=(index,)): a named,
    # fully specified generator, so seeds reproduce across platforms
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))


# The streams of _pair_rng as array arithmetic, after numpy's published
# algorithms: SeedSequence hashing (numpy/random/bit_generator.pyx), the
# PCG64 128-bit LCG with XSL-RR output (O'Neill, HMC-CS-2014-0905), and
# Lemire's bounded draw on the 32-bit halves of each output, low half first.
_M32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_L, _MIX_R = np.uint32(0xCA01_F9DD), np.uint32(0x4973_F715)
_PCG_MULT = np.uint64(0x2360_ED05_1FC6_5DA4), np.uint64(0x4385_DF64_9FCC_F645)
_LO, _32 = np.uint64(_M32), np.uint64(32)


def _hash_consts(init: int, mult: int):
    """The (xor, multiplier) pair of each successive SeedSequence hash."""
    h = init
    while True:
        nxt = h * mult & _M32
        yield np.uint32(h), np.uint32(nxt)
        h = nxt


def _hashmix(value: np.ndarray, consts) -> np.ndarray:
    xor, mult = next(consts)
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> np.uint32(16))


def _add128(ah, al, bh, bl) -> tuple[np.ndarray, np.ndarray]:
    lo = al + bl
    return ah + bh + (lo < al), lo


def _mul128(ah, al, bh, bl) -> tuple[np.ndarray, np.ndarray]:
    """(a * b) mod 2**128 on (hi, lo) uint64 limbs, broadcasting."""
    a0, a1, b0, b1 = al & _LO, al >> _32, bl & _LO, bl >> _32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _32) + (p01 & _LO) + (p10 & _LO)
    hi = a1 * b1 + (p01 >> _32) + (p10 >> _32) + (mid >> _32) + ah * bl + al * bh
    return hi, (p00 & _LO) | (mid << _32)


def _pcg_seeds(seeds: list[int], n: int) -> tuple[np.ndarray, ...]:
    """(u, inc) of every stream (seeds[b], k), k < n, as (B, n) uint64 limbs
    u_hi, u_lo, inc_hi, inc_lo, where u = inc + initstate is the state
    PCG64's seeding steps from.

    The entropy of SeedSequence(seed, spawn_key=(k,)) is the seed's 32-bit
    words zero-padded to the pool size of 4, then k: the pool of a seed is
    mixed once, and only the final round that mixes in k is per stream.
    """
    words = np.array([[(s >> 32 * i) & _M32 for s in seeds] for i in range(4)], dtype=np.uint32)
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hashmix(w, consts) for w in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    k = np.arange(n, dtype=np.uint32)
    pool = [_mix(p[:, None], _hashmix(k, consts)) for p in pool]
    # generate_state(4, uint64): eight hashed pool words, paired little-endian
    consts = _hash_consts(_INIT_B, _MULT_B)
    half = [_hashmix(pool[i % 4], consts).astype(np.uint64) for i in range(8)]
    seed_hi, seed_lo, seq_hi, seq_lo = (half[2 * i] | (half[2 * i + 1] << _32) for i in range(4))
    inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)
    return (*_add128(inc_hi, inc_lo, seed_hi, seed_lo), inc_hi, inc_lo)


def _stream_choices(seeds: list[int], n: int, sources: int, size: int) -> np.ndarray:
    """(B, n, size) source choices whose row [b, k] equals
    ``_pair_rng(seeds[b], k).integers(0, sources, size=size)`` bit for bit.

    The streams are computed together, and one with a Lemire rejection is
    redrawn by ``_pair_rng``.  A range above 2**32 needs no branch of its own:
    there the threshold (2**32 - sources) % sources is 2**32, so every draw rejects.
    """
    hi, lo, inc_hi, inc_lo = (a.ravel() for a in _pcg_seeds(seeds, n))
    draws = np.empty((hi.size, (size + 1) // 2, 2), dtype=np.uint64)
    hi, lo = _add128(*_mul128(hi, lo, *_PCG_MULT), inc_hi, inc_lo)  # pcg64's seeding step
    for t in range(draws.shape[1]):
        hi, lo = _add128(*_mul128(hi, lo, *_PCG_MULT), inc_hi, inc_lo)  # one before each output
        x, rot = hi ^ lo, hi >> np.uint64(58)  # XSL-RR
        x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        draws[:, t, 0], draws[:, t, 1] = x & _LO, x >> _32
    m = draws.reshape(hi.size, 2 * draws.shape[1])[:, :size] * np.uint64(sources)
    choice = (m >> _32).view(np.int64).reshape(len(seeds), n, size)
    for r in np.flatnonzero(np.any((m & _LO) < ((1 << 32) - sources) % sources, axis=1)).tolist():
        choice[r // n, r % n] = _pair_rng(seeds[r // n], r % n).integers(0, sources, size=size)
    return choice


def recombine_stack(sources: np.ndarray, n: int, seeds) -> np.ndarray:
    """Build a (B, n, c, c) stack, n >= 0, from a (B, S, c, c) block of S >= 2
    source matrices and B seeds that each pass :func:`core.require_seed`: in
    output [b, k], each pair's entries come from a uniformly random source of
    sample b, drawn from the stream (seeds[b], k).  Pairs move atomically with
    their complements, so every output satisfies the pairwise invariants
    whenever the sources do.  Deterministic given the seeds; output [b, k]
    depends only on (seeds[b], k) and sample b.
    """
    seeds = [core.require_seed("seed", seed) for seed in seeds]
    if sources.shape[1] < 2:
        raise ValueError("need at least two source matrices")
    core.require_int("n", n, 0)
    if len(seeds) != len(sources):
        raise ValueError(f"need one seed per sample, got {len(seeds)} for {len(sources)}")
    c = sources.shape[-1]
    rows, cols = triu_index(c)
    choice = _stream_choices(seeds, n, sources.shape[1], rows.size)
    sample = np.arange(len(sources))[:, None, None]
    out = np.zeros((len(sources), n, c, c))
    out[:, :, rows, cols] = sources[sample, choice, rows, cols]
    out[:, :, cols, rows] = sources[sample, choice, cols, rows]
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
    return [PairwiseLikelihoodMatrix(m) for m in recombine_stack(stack[None], n, [seed])[0]]


_DECILES = np.linspace(0.1, 0.9, 9)


def _deciles(ordered: np.ndarray, last: np.ndarray) -> np.ndarray:
    """(B, 9, c) deciles d10 .. d90 of each sample b's rows 0 .. last[b] of a
    (B, n, c) block sorted along its axis 1.

    Bit for bit ``np.quantile`` (method "linear") of those rows for finite
    input, but without the ``numpy.ma`` import that ``np.quantile`` pays.
    """
    virtual = last[:, None] * _DECILES
    lo, inner = np.floor(virtual), virtual < last[:, None]
    # numpy takes the last row from its index -1 with weight 1, which keeps a -0.0
    gamma = (virtual - lo + ~inner)[:, :, None]
    # row k of sample b is row b * n + k of the block, which take gathers fastest
    lo = lo.astype(np.intp) + (np.arange(len(ordered)) * ordered.shape[1])[:, None]
    rows = ordered.reshape(-1, ordered.shape[2])
    a, b = rows.take(lo, axis=0), rows.take(lo + inner, axis=0)
    diff = b - a  # numpy's lerp, a + diff * gamma or b - diff * (1 - gamma), in place
    out = np.add(a, diff * gamma, out=a)
    np.subtract(b, np.multiply(diff, 1.0 - gamma, out=diff), out=out, where=gamma >= 0.5)
    return out


def summarize_stack(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-class statistics of each sample of a (B, n, c) block of coupled rows.

    A row that failed to couple is NaN, as :func:`couple_stack` leaves it; it
    is excluded and counted rather than aborting the summary.  Returns a
    (B, 13, c) array of the mean, sd, minimum, deciles d10 .. d90 and maximum
    over each sample's remaining rows, and the (B,) count of failed rows: n,
    with NaN statistics, for a sample none of whose rows coupled.
    """
    if probs.shape[1] == 0:
        raise ValueError("need at least one matrix")
    failed = np.isnan(probs)
    excluded = failed[:, :, 0].sum(axis=1)
    kept = np.maximum(probs.shape[1] - excluded, 1)  # no 0 / 0: a sample without rows is NaN below
    stats = np.empty((len(probs), 13, probs.shape[2]))
    # a failed row adds the identity of each sum: -0.0 to the values, 0.0 to the squares
    rows = np.where(failed, -0.0, probs)
    mean = stats[:, 0] = rows.sum(axis=1) / kept[:, None]
    np.square(np.subtract(probs, mean[:, None], out=rows), out=rows)
    rows[failed] = 0.0
    stats[:, 1] = np.sqrt(rows.sum(axis=1) / kept[:, None])
    ordered = np.sort(probs, axis=1)  # the failed rows last
    stats[:, 2], stats[:, 12] = ordered[:, 0], ordered[np.arange(len(probs)), kept - 1]
    stats[:, 3:12] = _deciles(ordered, kept - 1)
    stats[excluded == probs.shape[1]] = np.nan
    return stats, excluded
