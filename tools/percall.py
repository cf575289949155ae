"""Time single-matrix ``abstaining_predict`` calls of two plmkit source trees, side by side.

Run by hand from anywhere:

    python tools/percall.py BASE_SRC NEW_SRC [--rounds 400] [--block 10] [--seed 0]

BASE_SRC and NEW_SRC are directories that hold a ``plmkit`` package, for
example the ``src`` of a ``git worktree`` (or ``git archive``) of the parent
commit and this tree's ``src``.  Both trees are imported into one process
under their own package names, so they share the interpreter, numpy and BLAS,
and host speed changes hit both alike.

Each round times one block of calls per tree, c (10 and 40) and method (WLW
unstabilized, BC with clip), alternating which tree goes first.  The inputs
are seeded pairwise matrices near the manifold and a fifth far from it, with
the threshold at the 95% quantile of held-out distances, so some calls
abstain.  The script prints the median time per call of each tree, the ratio
base/new (above 1: NEW is faster), and the combined WLW+BC cost per matrix.
A second table times the internal stages of one c=40 matrix the same way,
for the stages both trees define.  Before timing, it checks that both trees
give byte-identical answers on every input, and that ``couple_stack`` gives
byte-identical posteriors and residuals and the same error types and texts
under each of the six (method, stabilization) configurations, on the same
inputs with some entries moved to 0, 1, subnormals and past the clip and drop
thresholds (every matrix still valid).  It prints each check's result and
exits 1 on any difference.  Stdlib and numpy only; not part of tier-1.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

QUANTILE = 0.95
TAU = 1e-3
HELD, NEAR, FAR = 100, 80, 20
NEAR_NOISE, FAR_NOISE = 0.05, 1.5
# upper entries for the couple_stack check: 0/1, subnormals, and entries a
# clip at TAU moves or a drop at TAU removes a class over
EDGES = [0.0, 1.0, 5e-324, 1e-310, 1e-300, 1e-5, 1.0 - 1e-5, 1.0 - 1e-12]


def load(src: Path, name: str) -> dict:
    """Import ``src/plmkit`` as the package ``name``; return its modules."""
    init = src / "plmkit" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {sub: importlib.import_module(f"{name}.{sub}") for sub in ("core", "coupling", "abstention")}


def matrices(c: int, n: int, noise: float, rng: np.random.Generator) -> np.ndarray:
    """Pairwise matrices of Dirichlet posteriors with Gaussian log-odds noise."""
    p = rng.dirichlet(np.full(c, 2.0), size=n)
    rows, cols = np.triu_indices(c, k=1)
    logit = np.log(p[:, rows]) - np.log(p[:, cols]) + noise * rng.standard_normal((n, rows.size))
    upper = 1.0 / (1.0 + np.exp(-logit))
    out = np.zeros((n, c, c))
    out[:, rows, cols] = upper
    out[:, cols, rows] = 1.0 - upper
    return out


def edged(stack: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A valid copy of a stack: in half of the matrices, about 1% of the upper
    entries set to EDGES; in a fifth, a subnormal entry whose complement is
    1 - 1e-10, inside the tolerance but not 1; in a tenth, every lower entry
    off its exact complement by up to 1e-12 and kept in [0, 1]."""
    n, c = stack.shape[:2]
    rows, cols = np.triu_indices(c, k=1)
    upper = stack[:, rows, cols].copy()
    edge = (rng.random(upper.shape) < 0.01) & (rng.random((n, 1)) < 0.5)
    upper[edge] = rng.choice(EDGES, size=edge.sum())
    out = np.zeros_like(stack)
    out[:, rows, cols] = upper
    out[:, cols, rows] = 1.0 - upper
    picked = np.flatnonzero(rng.random(n) < 0.2)
    k = rng.integers(rows.size, size=picked.size)
    out[picked, rows[k], cols[k]] = rng.choice([5e-324, 1e-310], size=picked.size)
    out[picked, cols[k], rows[k]] = 1.0 - 1e-10
    inexact = np.flatnonzero(rng.random(n) < 0.1)[:, None]
    noise = rng.uniform(-1e-12, 1e-12, (inexact.size, rows.size))
    out[inexact, cols, rows] = np.clip(out[inexact, cols, rows] + noise, 0.0, 1.0)
    return out


class Tree:
    """One plmkit tree with its configurations, inputs and thresholds."""

    def __init__(self, src: Path, name: str, inputs: dict):
        self.mod = load(src, name)
        core, abstention = self.mod["core"], self.mod["abstention"]
        self.configs = {
            "wlw": core.CouplingConfig(method=core.Method.WU_LIN_WENG),
            "bc": core.CouplingConfig(
                method=core.Method.BAYES_COVARIANT, stabilization=core.Stabilization.CLIP, tau=TAU
            ),
        }
        self.mats, self.thresholds = {}, {}
        for c, (held, mats) in inputs.items():
            self.mats[c] = [core.PairwiseLikelihoodMatrix(m) for m in mats]
            for method, config in self.configs.items():
                distances = [abstention.sureness(core.PairwiseLikelihoodMatrix(m), config) for m in held]
                self.thresholds[c, method] = abstention.calibrate_threshold(distances, QUANTILE)

    def answers(self, c: int, method: str) -> list:
        predict = self.mod["abstention"].abstaining_predict
        config, threshold = self.configs[method], self.thresholds[c, method]
        out = []
        for m in self.mats[c]:
            result = predict(m, config, threshold)
            probs = getattr(result, "probs", None)
            out.append(probs.tobytes() if probs is not None else ("abstain", result.distance))
        return out

    def coupled(self, stack: np.ndarray) -> dict:
        """Per configuration, the bytes of ``couple_stack``'s posteriors and
        residuals and the type and text of each row's error."""
        core, couple_stack = self.mod["core"], self.mod["coupling"].couple_stack
        out = {}
        for method in core.Method:
            for stabilization in core.Stabilization:
                config = core.CouplingConfig(method=method, stabilization=stabilization, tau=TAU, rho=TAU)
                result = couple_stack(stack, config)
                errors = [(type(e).__name__, str(e)) if e is not None else None for e in result.errors]
                out[f"{method.value}/{stabilization.value}"] = (result.probs.tobytes(), result.residual.tobytes(), errors)
        return out

    def block(self, c: int, method: str, start: int, size: int) -> list:
        """``size`` predict calls, cycling through the inputs from ``start``."""
        predict = self.mod["abstention"].abstaining_predict
        config, threshold, mats = self.configs[method], self.thresholds[c, method], self.mats[c]
        picks = [mats[(start + k) % len(mats)] for k in range(size)]
        return [functools.partial(predict, m, config, threshold) for m in picks]

    def stages(self, m: np.ndarray) -> dict:
        """Zero-argument callables for the internal stages this tree defines."""
        core, coupling = self.mod["core"], self.mod["coupling"]
        stack = m[None].copy()
        wlw, bc = self.configs["wlw"], self.configs["bc"]
        p = coupling.couple_stack(stack, wlw).probs
        coupled = coupling.couple_stack(stack, bc)
        stages = {
            "couple_stack wlw": (coupling.couple_stack, stack, wlw),
            "couple_stack bc+clip": (coupling.couple_stack, stack, bc),
            "pairwise_violations": (core.pairwise_violations, stack),
            "_clip_stack": (getattr(coupling, "_clip_stack", None), stack, TAU),
            "_wlw_stack": (getattr(coupling, "_wlw_stack", None), stack, {}),
            "_delta2": (getattr(coupling, "_delta2", None), stack, p),
            "_bc_stack": (getattr(coupling, "_bc_stack", None), stack),
            "_log_odds": (getattr(coupling, "_log_odds", None), stack),
            "_singular_rows": (getattr(coupling, "_singular_rows", None), stack),
            "CoupledStack.posterior": (coupled.posterior, 0),
        }
        return {name: functools.partial(*call) for name, call in stages.items() if call[0] is not None}


def per_call(calls: list) -> float:
    """Seconds per call of a list of zero-argument callables, run in order."""
    t0 = time.perf_counter()
    for f in calls:
        f()
    return (time.perf_counter() - t0) / len(calls)


def alternate(sides: list, keys: list, rounds: int, block) -> dict:
    """Seconds per call of each round's ``block(side, key, round)``, for each
    (side index, key); the side that runs first alternates between rounds."""
    times = {(t, key): [] for t in range(len(sides)) for key in keys}
    for r in range(rounds):
        order = range(len(sides)) if r % 2 == 0 else reversed(range(len(sides)))
        for t in order:
            for key in keys:
                times[t, key].append(per_call(block(sides[t], key, r)))
    return times


def fmt_us(seconds: float) -> str:
    return f"{seconds * 1e6:9.1f}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path, help="source directory holding the base plmkit package")
    ap.add_argument("new", type=Path, help="source directory holding the new plmkit package")
    ap.add_argument("--rounds", type=int, default=400, help="alternations (default 400)")
    ap.add_argument("--block", type=int, default=10, help="calls per timed block (default 10)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.rounds < 1 or args.block < 1:
        ap.error("--rounds and --block must be positive")

    rng = np.random.default_rng(args.seed)
    inputs = {}
    for c in (10, 40):
        held = matrices(c, HELD, NEAR_NOISE, rng)
        mats = np.concatenate([matrices(c, NEAR, NEAR_NOISE, rng), matrices(c, FAR, FAR_NOISE, rng)])
        inputs[c] = (held, mats[rng.permutation(len(mats))])
    trees = [Tree(args.base, "plmkit_base", inputs), Tree(args.new, "plmkit_new", inputs)]

    keys = [(c, method) for c in (10, 40) for method in ("wlw", "bc")]
    identical = all(trees[0].answers(*key) == trees[1].answers(*key) for key in keys)
    identical &= trees[0].thresholds == trees[1].thresholds
    print(f"answers and thresholds byte-identical: {'yes' if identical else 'NO'}")
    for c in (10, 40):
        stack = edged(inputs[c][1], rng)
        base, new = (tree.coupled(stack) for tree in trees)
        invalid = len(trees[1].mod["core"].pairwise_violations(stack))
        failed = sum(error is not None for error in new["bc/none"][2])
        for config in base:
            same = base[config] == new[config]
            identical &= same
            print(f"couple_stack c={c} {config}: {'identical' if same else 'DIFFERENT'}")
        print(f"couple_stack c={c}: {len(stack)} matrices, {invalid} invalid, {failed} fail under bc/none")

    times = alternate(trees, keys, args.rounds, lambda tree, key, r: tree.block(*key, r * args.block, args.block))
    print(f"\nabstaining_predict, median us per call over {args.rounds} alternations of {args.block} calls")
    print(f"{'c':>3} {'method':>8} {'base':>9} {'new':>9} {'base/new':>9}")
    for c in (10, 40):
        combined = []
        for method in ("wlw", "bc"):
            base, new = (statistics.median(times[t, (c, method)]) for t in (0, 1))
            print(f"{c:>3} {method:>8} {fmt_us(base)} {fmt_us(new)} {base / new:9.3f}")
        for t in (0, 1):
            combined.append(statistics.median(np.add(times[t, (c, "wlw")], times[t, (c, "bc")])))
        print(f"{c:>3} {'wlw+bc':>8} {fmt_us(combined[0])} {fmt_us(combined[1])} {combined[0] / combined[1]:9.3f}")

    m = inputs[40][1][0]
    stages = [tree.stages(m) for tree in trees]
    shared = [name for name in stages[0] if name in stages[1]]
    reps = max(1, args.rounds // 2)
    times = alternate(stages, shared, reps, lambda side, name, r: [side[name]] * args.block)
    print(f"\nstages of one c=40 matrix, median us per call over {reps} alternations of {args.block} calls")
    print(f"{'stage':>24} {'base':>9} {'new':>9} {'base/new':>9}")
    for name in shared:
        base, new = (statistics.median(times[t, name]) for t in (0, 1))
        print(f"{name:>24} {fmt_us(base)} {fmt_us(new)} {base / new:9.3f}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
