#!/usr/bin/env python3
"""plmkit benchmark: seeded closed-loop workloads, output checks, traced layer split.

Run from the repository root (stdlib and numpy only; plmkit is taken from
``src/`` of the working directory, nothing is installed):

    python3 bench/run.py --workload cli-pipeline-c10 --seed 1 --seconds 30 --trace 0

Workloads (``bench/interactions.json`` says which layer metric should move
which end-to-end metric on which workload):

- ``cli-pipeline-c10``: synth -> restrict -> couple, and an off-manifold file
  with 1% exact 0/1 samples through couple, distance and calibrate, then
  evaluate.  CSV parsing, per-sample validation and CLI glue dominate.
- ``lib-predict-c40``: ``abstaining_predict`` on in-memory c=40 matrices, one
  call at a time, wlw and bc.  No file I/O at all.
- ``cli-ensemble-c10``: ``bootstrap`` over three sources with both methods,
  then ``correct`` with three patches.  Many small in-memory couplings.

Each workload is a closed loop from this one process: one CLI child or one
library call at a time, BLAS pinned to one thread.  Inputs are generated from
``--seed`` before timing starts.  ``--trace 0`` measures with tracing off;
``--trace 1`` alternates untraced and traced passes and reports per-module
self times from spans recorded by wrapping plmkit's module attributes
(``bench/tracer.py``).  How many passes (CLI) or predict calls (library) a
run makes is set by ``--seconds`` alone, never by how fast the code is, so
commits of different speed are summarised over the same number of samples.

Every end-to-end metric the workload has is printed by name and unit:
samples_per_s, peak_rss_mb (highest RSS of any program process, from each
child's own rusage), setup_s (interpreter start plus ``import plmkit``, 20
starts spread between the passes), failed_share, the per-stage medians
restrict_s, couple_s, distance_s, bootstrap_s, correct_s (CLI workloads), and
predict_{wlw,bc}_{p50,p99}_ms (lib-predict-c40).  Only samples_per_s,
peak_rss_mb and setup_s exist on every workload, so only they are gated by
``BENCHMARK.json``, which also gives the per-layer names and units; the
units of the others are in ``bench/interactions.json``.  samples_per_s
divides the work of one pass by the sum of each command's slow-side wall time
over the passes (CLI), or the calls of one 50-matrix block by the slow-side
block time (library); setup_s is the slow side of its starts: see
``SLOW_QUANTILE``.

Standard output ends with a ``results:`` line (seed, input digests, machine
facts, host drift, every metric with its sample count, raw timings, the
checks) and then one JSON line with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``failed`` counts failed checks, non-zero exits
and failed library calls; the 0/1 samples that ``couple --method bc
--stabilize none`` must reject are checked, not failed, and only enter
failed_share.  The exit code is 1 when an output check fails, 2 when the
working directory holds no plmkit source.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import reference as ref
from tracer import Totals

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
PY = sys.executable
CHILD_TIMEOUT_S = 120.0
SETUP_REPS = 20
# On a shared host a process runs at a steady contended speed with sporadic
# faster phases while other tenants idle.  The slow side of the per-command,
# per-block and per-start times repeats from run to run; the median and the
# mean follow how much of a run happened to fall into a fast phase.  Each
# sample count is fixed by --seconds, so the rank taken does not move with
# the speed of the code: the slowest of a CLI run's 4-6 passes, the 3rd
# slowest of a library run's ~40 blocks, the 2nd slowest of ~20 starts.
SLOW_QUANTILE = 0.95
TAU = RHO = 1e-3
CALIBRATE_QUANTILE = 0.95
REF_TOL = 1e-9


def _die(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _require_plmkit_source() -> None:
    if not (SRC / "plmkit" / "__init__.py").is_file():
        _die(f"no plmkit source under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import plmkit

    if not Path(plmkit.__file__).resolve().is_relative_to(SRC.resolve()):
        _die(f"imported plmkit from {plmkit.__file__}, not from {SRC}")


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# -- child processes ------------------------------------------------------------


class Child(NamedTuple):
    wall: float
    rc: int
    rss_mb: float
    out: str
    err: str


def run_child(argv, log_dir: Path) -> Child:
    """Run one child to completion; peak RSS comes from its own rusage."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out_path, err_path = log_dir / "child.out", log_dir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], stdout=out, stderr=err, cwd=ROOT, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall, proc.returncode, usage.ru_maxrss / 1024.0, out_path.read_text(), err_path.read_text()
    )


# -- output checks --------------------------------------------------------------


class Checks:
    def __init__(self):
        self.results: list[dict] = []

    def add(self, name: str, ok: bool, detail="") -> None:
        self.results.append({"check": name, "ok": bool(ok), "detail": str(detail)})

    def close(self, name: str, err: float, tol: float = REF_TOL) -> None:
        self.add(name, err <= tol, f"max difference {err:.3g} (tol {tol:g})")

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.results)


def _max_diff(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return float("inf")
    return float(np.max(np.abs(a - b), initial=0.0))


# -- generated inputs -----------------------------------------------------------


def blob_posteriors(c: int, n_per_class: int, seed: int, separation: float, scale: float):
    """Blob dataset as ``plmkit synth`` builds it: ids, labels, exact posteriors."""
    from plmkit.datagen import BlobSpec, bayes_posterior_blobs, generate_blobs

    means = np.zeros((c, c))
    means[np.arange(c), np.arange(c)] = separation
    spec = BlobSpec(c=c, dim=c, means=means, scale=scale, n_per_class=n_per_class, seed=seed)
    features, batch = generate_blobs(spec)
    ids = [sid for sid, _ in batch.samples]
    labels = [label for _, label in batch.samples]
    posts = np.array([bayes_posterior_blobs(spec, x).probs for x in features])
    return ids, labels, posts


def perturbed(posts: np.ndarray, noise: float, seed: int) -> np.ndarray:
    """Off-manifold matrices from ``perturb_manifold``, one stream per sample."""
    from plmkit.core import Posterior
    from plmkit.datagen import perturb_manifold

    return np.array(
        [perturb_manifold(Posterior(p), noise, seed * 100_003 + k).entries for k, p in enumerate(posts)]
    )


# -- workloads --------------------------------------------------------------------


class Pass(NamedTuple):
    wall: float  # summed command wall times, or the library child's own timed span
    steps: dict  # command label -> wall time
    rss_mb: float
    bad_exits: int


class Workload:
    """Inputs from a seed, passes over them, and checks of the first pass's outputs."""

    min_passes = 2
    expected_failures = 0
    failed_calls = 0

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.spans: list[Path] = []
        self.latencies: dict[str, list] = {}

    def pass_count(self, seconds: float) -> int:
        """Untraced passes in a run; depends on ``--seconds`` only."""
        return max(self.min_passes, int(seconds / self.PASS_S))

    def steps(self) -> list:
        """(label, stage metric or None, plmkit arguments) per CLI command."""
        return []

    def samples(self, untraced: list) -> dict:
        """Raw timings behind the reported figures."""
        return {}

    def traced_spans(self):
        for path in self.spans:
            with open(path, encoding="utf-8") as fh:
                yield json.load(fh)
        self.spans = []


class CliWorkload(Workload):
    """A chain of plmkit CLI commands, one child process at a time."""

    setup_argv = [PY, "-m", "plmkit.cli", "--version"]

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.stdout: dict[str, str] = {}
        self.stderr: dict[str, str] = {}

    @property
    def n(self) -> int:
        return self.C * self.N_PER_CLASS

    def path(self, name: str) -> Path:
        return self.work / name

    def run_pass(self, spans_dir: Path | None, seconds: float) -> Pass:
        steps = {}
        wall = rss = 0.0
        bad = 0
        for index, (label, stage, args) in enumerate(self.steps()):
            if spans_dir is None:
                argv = [PY, "-m", "plmkit.cli", *args]
            else:
                spans = spans_dir / f"{index}.json"
                self.spans.append(spans)
                argv = [PY, BENCH / "traced_cli.py", spans, "--", *args]
            child = run_child(argv, self.work)
            wall += child.wall
            rss = max(rss, child.rss_mb)
            bad += child.rc != 0
            steps[label] = child.wall
            self.stdout[label], self.stderr[label] = child.out, child.err
        return Pass(wall, steps, rss, bad)

    def throughput(self, untraced: list) -> tuple[float, int]:
        """Samples per second of a pass built from each command's slow-side time."""
        pass_s = sum(
            ref.nearest_rank([p.steps[label] for p in untraced], SLOW_QUANTILE) for label in untraced[0].steps
        )
        return self.samples_per_pass / pass_s, len(untraced)

    def attempted(self, passes: int) -> int:
        return self.ops_per_pass * passes

    def samples(self, untraced: list) -> dict:
        return {"pass_commands_s": [p.steps for p in untraced]}

    def output_digest(self) -> str:
        h = hashlib.sha256()
        for name in self.outputs:
            h.update(self.path(name).read_bytes())
        for label in sorted(self.stdout):
            h.update(self.stdout[label].encode())
        return h.hexdigest()


class Pipeline(CliWorkload):
    """Small c, many rows: file parsing and writing, validation and CLI glue.

    ``restrict`` writes heavily beside ``couple``/``distance`` which read
    heavily, so a fileio change that helps one and hurts the other shows.
    """

    name = "cli-pipeline-c10"
    C, N_PER_CLASS, SEPARATION, SCALE, NOISE = 10, 100, 1.0, 1.5, 0.1
    PASS_S = 7.0  # nominal seconds per untraced pass: sets the pass count
    outputs = (
        "post.csv", "lab.csv", "pw.csv", "on_wlw.csv", "on_bc.csv", "off_bc.csv",
        "off_wlw.csv", "d_wlw.csv", "d_bc.csv", "conf.csv",
    )  # fmt: skip

    samples_per_pass = property(lambda self: 2 * self.n)  # on- and off-manifold sets
    ops_per_pass = property(lambda self: 10 * self.n)  # each sample through each command
    expected_failures = property(lambda self: len(self.injected))

    def prepare(self) -> dict:
        ids, _, posts = blob_posteriors(self.C, self.N_PER_CLASS, self.seed, self.SEPARATION, self.SCALE)
        mats = perturbed(posts, self.NOISE, self.seed)
        # about 1% of samples get one exact 0/1 entry: bc without a stabilizer must fail on them
        rng = np.random.default_rng([self.seed, 1])
        iu = np.triu_indices(self.C, k=1)
        self.injected = set()
        for k in rng.choice(self.n, self.n // 100, replace=False):
            pair = rng.integers(iu[0].size)
            i, j = iu[0][pair], iu[1][pair]
            mats[k, i, j] = float(rng.integers(2))
            mats[k, j, i] = 1.0 - mats[k, i, j]
            self.injected.add(ids[k])
        ref.write_pairwise(self.path("off.csv"), ids, mats)
        return {"off.csv": _sha256(self.path("off.csv"))}

    def steps(self):
        p, s = self.path, str(self.seed)
        synth = ["--c", self.C, "--n-per-class", self.N_PER_CLASS, "--seed", s,
                 "--separation", self.SEPARATION, "--scale", self.SCALE]  # fmt: skip
        return [
            ("synth", None, ["synth", p("post.csv"), p("lab.csv"), *synth]),
            ("restrict", "restrict_s", ["restrict", p("post.csv"), p("pw.csv")]),
            ("couple_wlw", "couple_s", ["couple", p("pw.csv"), p("on_wlw.csv"), "--method", "wlw"]),
            ("couple_bc_clip", "couple_s",
             ["couple", p("pw.csv"), p("on_bc.csv"), "--method", "bc", "--stabilize", "clip"]),
            ("couple_bc_none", "couple_s",
             ["couple", p("off.csv"), p("off_bc.csv"), "--method", "bc", "--stabilize", "none"]),
            ("couple_wlw_drop", "couple_s",
             ["couple", p("off.csv"), p("off_wlw.csv"), "--method", "wlw", "--stabilize", "drop"]),
            ("distance_wlw", "distance_s", ["distance", p("off.csv"), p("d_wlw.csv"), "--method", "wlw"]),
            ("distance_bc", "distance_s", ["distance", p("off.csv"), p("d_bc.csv"), "--method", "bc"]),
            ("calibrate", None, ["calibrate", p("d_bc.csv"), "--quantile", CALIBRATE_QUANTILE]),
            ("evaluate", None, ["evaluate", p("on_wlw.csv"), p("lab.csv"), p("conf.csv")]),
        ]  # fmt: skip

    def check(self, checks: Checks) -> None:
        p = self.path
        ids, truth = ref.read_posteriors(p("post.csv"))
        on = {}
        for name in ("on_wlw", "on_bc"):
            out_ids, probs = ref.read_posteriors(p(f"{name}.csv"))
            checks.add(f"{name} ids match synth", out_ids == ids)
            checks.close(f"{name} round-trips synth posteriors", _max_diff(probs, truth), 1e-7)
            on[name] = dict(zip(out_ids, probs))
        off = {name: dict(zip(*ref.read_posteriors(p(f"{name}.csv")))) for name in ("off_bc", "off_wlw")}

        failed = [line.split(":")[1].strip() for line in ref.comments(p("off_bc.csv")) if line.startswith("# failed:")]
        reported = [line for line in self.stderr["couple_bc_none"].splitlines() if line.startswith("failed: ")]
        checks.add(
            "# failed: count equals injected 0/1 samples",
            len(failed) == len(reported) == len(self.injected) and set(failed) == self.injected,
            f"{len(failed)} in the file, {len(reported)} on stderr, {len(self.injected)} injected",
        )
        checks.add("off_bc holds every other sample", len(off["off_bc"]) == self.n - len(self.injected))
        checks.add("off_wlw (drop) holds every sample", len(off["off_wlw"]) == self.n)

        # independent numpy reference on a seeded subset
        pw, offm = ref.read_pairwise(p("pw.csv")), ref.read_pairwise(p("off.csv"))
        distances = {m: dict((r[0], float(r[2])) for r in ref.read_rows(p(f"d_{m}.csv"))) for m in ("wlw", "bc")}
        sub = [ids[k] for k in np.random.default_rng([self.seed, 2]).choice(self.n, 40, replace=False)]
        sub += sorted(self.injected)[:5]
        err = dict.fromkeys(["on_wlw", "on_bc", "off_wlw", "off_bc", "d_wlw", "d_bc"], 0.0)
        for sid in sub:
            err["on_wlw"] = max(err["on_wlw"], _max_diff(on["on_wlw"][sid], ref.wlw(pw[sid])))
            err["on_bc"] = max(err["on_bc"], _max_diff(on["on_bc"][sid], ref.bc(ref.clip(pw[sid], TAU))))
            err["off_wlw"] = max(err["off_wlw"], _max_diff(off["off_wlw"][sid], ref.drop(offm[sid], RHO, ref.wlw)))
            if sid not in self.injected:
                err["off_bc"] = max(err["off_bc"], _max_diff(off["off_bc"][sid], ref.bc(offm[sid])))
            d_wlw, d_bc = ref.wlw_distance(offm[sid]), ref.bc_distance(offm[sid], TAU)
            err["d_wlw"] = max(err["d_wlw"], abs(distances["wlw"][sid] - d_wlw) / max(1.0, d_wlw))
            err["d_bc"] = max(err["d_bc"], abs(distances["bc"][sid] - d_bc) / max(1.0, d_bc))
        for name, value in err.items():
            checks.close(f"{name} matches numpy reference", value)
        for m in ("wlw", "bc"):
            values = list(distances[m].values())
            checks.add(f"d_{m} has a finite non-negative distance per sample",
                       len(values) == self.n and all(0.0 <= v < float("inf") for v in values))  # fmt: skip

        threshold = float(self.stdout["calibrate"])
        expected = ref.nearest_rank(distances["bc"].values(), CALIBRATE_QUANTILE)
        checks.add("calibrate equals nearest-rank quantile", threshold == expected, f"{threshold!r} vs {expected!r}")

        labels = dict((r[0], int(r[1])) for r in ref.read_rows(p("lab.csv")))
        hits = sum(int(np.argmax(q)) == labels[sid] for sid, q in on["on_wlw"].items())
        printed = float(self.stdout["evaluate"].splitlines()[0].split(":")[1])
        checks.add("evaluate accuracy equals recount", printed == hits / self.n, f"{printed!r}")


class Ensemble(CliWorkload):
    """Few rows, many small in-memory couplings (N x n per bootstrap).

    The only workload that reaches ensemble's RNG streams, recombination and
    summary, bootstrap's duplicate read, and correct's patching.
    """

    name = "cli-ensemble-c10"
    C, N_PER_CLASS, SEPARATION, SCALE = 10, 20, 1.0, 1.5
    NOISES = (0.0, 0.3, 1.0)
    N_BOOT = 20
    PASS_S = 5.0
    outputs = ("bs_wlw.csv", "bs_bc.csv", "report.csv")

    samples_per_pass = property(lambda self: self.n)
    ops_per_pass = property(lambda self: 3 * self.n)

    def prepare(self) -> dict:
        ids, labels, posts = blob_posteriors(self.C, self.N_PER_CLASS, self.seed, self.SEPARATION, self.SCALE)
        self.labels, self.posts = labels, posts
        ref.write_posteriors(self.path("post.csv"), ids, posts)
        ref.write_csv(self.path("lab.csv"), ["sample_id", "label"], zip(ids, map(str, labels)))
        for k, noise in enumerate(self.NOISES):
            ref.write_pairwise(self.path(f"src{k}.csv"), ids, perturbed(posts, noise, self.seed + k))
        rng = np.random.default_rng([self.seed, 3])
        iu = np.triu_indices(self.C, k=1)
        self.patches = []
        for k in range(3):
            chosen = sorted(rng.choice(iu[0].size, k + 1, replace=False))
            triples = [(int(iu[0][q]), int(iu[1][q]), float(rng.uniform(0.05, 0.95))) for q in chosen]
            ref.write_csv(self.path(f"patch{k}.csv"), ["i", "j", "prob_i"],
                          ((str(i), str(j), f"{q:.17g}") for i, j, q in triples))  # fmt: skip
            self.patches.append(triples)
        names = ["post.csv", "lab.csv"] + [f"src{k}.csv" for k in range(3)] + [f"patch{k}.csv" for k in range(3)]
        return {name: _sha256(self.path(name)) for name in names}

    def steps(self):
        p = self.path
        sources = [p(f"src{k}.csv") for k in range(3)]
        boot = ["--n", self.N_BOOT, "--seed", self.seed]
        patches = [arg for k in range(3) for arg in ("--patch", p(f"patch{k}.csv"))]
        return [
            ("bootstrap_wlw", "bootstrap_s", ["bootstrap", *sources, p("bs_wlw.csv"), *boot, "--method", "wlw"]),
            ("bootstrap_bc", "bootstrap_s", ["bootstrap", *sources, p("bs_bc.csv"), *boot, "--method", "bc"]),
            ("correct", "correct_s",
             ["correct", p("post.csv"), p("lab.csv"), p("report.csv"), *patches, "--ols"]),
        ]  # fmt: skip

    def check(self, checks: Checks) -> None:
        for method in ("wlw", "bc"):
            rows = ref.read_rows(self.path(f"bs_{method}.csv"))
            classes = [r for r in rows if r[1] != "excluded"]
            excluded = [r for r in rows if r[1] == "excluded"]
            stats = np.array([[float(x) for x in r[2:]] for r in classes])
            means = stats[:, 0].reshape(self.n, self.C) if stats.shape[0] == self.n * self.C else None
            checks.add(f"bootstrap {method}: one summary per sample and class",
                       len(classes) == self.n * self.C and len(excluded) == self.n)  # fmt: skip
            checks.add(f"bootstrap {method}: nothing excluded", all(r[2] == "0" for r in excluded))
            checks.add(f"bootstrap {method}: statistics within [0, 1]",
                       bool(np.all((stats >= 0.0) & (stats <= 1.0))))  # fmt: skip
            checks.close(f"bootstrap {method}: mean posteriors sum to 1",
                         _max_diff(means.sum(axis=1), np.ones(self.n)) if means is not None else float("inf"))  # fmt: skip

        report = ref.read_rows(self.path("report.csv"))
        ols = [c for c in ref.comments(self.path("report.csv")) if c.startswith("# ols ")]
        checks.add("correct: 3 patches x 2 methods plus 2 ols lines", len(report) == 6 and len(ols) == 2)
        # multiclass accuracy recomputed with the numpy reference
        base = self.posts[:, :, None] / (self.posts[:, :, None] + self.posts[:, None, :])
        base[:, np.arange(self.C), np.arange(self.C)] = 0.0
        patch_index = {str(self.path(f"patch{k}.csv")): k for k in range(3)}
        labels = np.array(self.labels)
        worst = 0.0
        for row in report:
            patch = self.patches[patch_index[row[0]]]
            mats = base.copy()
            for i, j, q in patch:
                mats[:, i, j], mats[:, j, i] = q, 1.0 - q
            couple = ref.wlw if row[1] == "wlw" else ref.bc
            preds = np.array([np.argmax(couple(m)) for m in mats])
            worst = max(worst, abs(float(row[3]) - float(np.mean(preds == labels))))
        checks.close("correct: multiclass accuracy matches numpy reference", worst)


class LibPredict(Workload):
    """In-memory c=40 matrices through abstaining_predict: no file I/O at all.

    The O(c^2) WLW quadratic form, the double coupling inside
    ``abstaining_predict`` and per-call validation dominate; per-call tail
    latency is what a caller serving one sample at a time sees.
    """

    name = "lib-predict-c40"
    setup_argv = [PY, "-c", "import plmkit"]
    min_passes = 1
    PASS_S = float("inf")  # one child process makes all the calls
    C, N_PER_CLASS, SEPARATION, SCALE = 40, 30, 1.0, 1.5
    HELD, NEAR, FAR = 200, 800, 200
    BLOCK = 50  # matrices per throughput sample
    MATRIX_S = 0.014  # nominal seconds per matrix (both methods), sets the call count
    NEAR_NOISE, FAR_NOISE = 0.05, 1.5

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.latencies = {"wlw": [], "bc": []}
        self.calls_made = 0
        self.block_s: list[float] = []
        self.last = None

    def prepare(self) -> dict:
        _, _, posts = blob_posteriors(self.C, self.N_PER_CLASS, self.seed, self.SEPARATION, self.SCALE)
        rng = np.random.default_rng([self.seed, 4])
        posts = posts[rng.permutation(len(posts))]
        held = perturbed(posts[: self.HELD], self.NEAR_NOISE, self.seed)
        near = perturbed(posts[self.HELD : self.HELD + self.NEAR], self.NEAR_NOISE, self.seed + 1)
        far = perturbed(posts[self.HELD + self.NEAR : self.HELD + self.NEAR + self.FAR], self.FAR_NOISE, self.seed + 2)
        self.held = held
        # every block holds the same near/far mix, so block times differ by host speed only
        blocks = (self.NEAR + self.FAR) // self.BLOCK
        near_idx = rng.permutation(self.NEAR).reshape(blocks, -1)
        far_idx = self.NEAR + rng.permutation(self.FAR).reshape(blocks, -1)
        order = np.concatenate([rng.permutation(np.concatenate(pair)) for pair in zip(near_idx, far_idx)])
        self.mats = np.concatenate([near, far])[order]
        np.savez(self.work / "lib.npz", held=self.held, mats=self.mats)
        return {"lib.npz": _sha256(self.work / "lib.npz")}

    def run_pass(self, spans_dir: Path | None, seconds: float) -> Pass:
        """One child; ``seconds`` 0 makes a single sweep over the matrices."""
        calls = int(seconds / self.MATRIX_S)
        argv = [PY, BENCH / "lib_child.py", self.work / "lib.npz", self.work / "out.npz", "--calls", calls]
        if spans_dir is not None:
            spans = spans_dir / "lib.json"
            self.spans.append(spans)
            argv += ["--spans", spans]
        child = run_child(argv, self.work)
        if child.rc != 0:
            return Pass(child.wall, {}, child.rss_mb, 1)
        with np.load(self.work / "out.npz") as data:
            self.last = {k: data[k] for k in data.files}
        if spans_dir is None:
            for name in self.latencies:
                self.latencies[name].extend(self.last[f"lat_{name}"])
            per_matrix = self.last["lat_wlw"] + self.last["lat_bc"]
            blocks = per_matrix[: per_matrix.size // self.BLOCK * self.BLOCK].reshape(-1, self.BLOCK)
            self.block_s.extend(blocks.sum(axis=1))
        self.failed_calls += int(self.last["failed"])
        self.calls_made += self.last["lat_wlw"].size + self.last["lat_bc"].size
        return Pass(float(self.last["total_s"]), {}, child.rss_mb, 0)

    def throughput(self, untraced: list) -> tuple[float, int]:
        """Predict calls per second of a block at the slow-side quantile of block times."""
        if not self.block_s:
            return 0.0, 0
        return 2 * self.BLOCK / ref.nearest_rank(self.block_s, SLOW_QUANTILE), len(self.block_s)

    def attempted(self, passes: int) -> int:
        return self.calls_made

    def samples(self, untraced: list) -> dict:
        return {"block_s": [float(b) for b in self.block_s]}

    def output_digest(self) -> str:
        h = hashlib.sha256()
        for name in ("post_wlw", "post_bc", "abstain_wlw", "abstain_bc", "held_wlw", "held_bc"):
            h.update(self.last[name].tobytes())
        return h.hexdigest()

    def check(self, checks: Checks) -> None:
        out = self.last
        checks.add("no predict call failed", int(out["failed"]) == 0, int(out["failed"]))
        reference = {
            "wlw": (ref.wlw, ref.wlw_distance),
            "bc": (lambda m: ref.bc(ref.clip(m, TAU)), lambda m: ref.bc_distance(m, TAU)),
        }
        sub = np.random.default_rng([self.seed, 5]).choice(len(self.mats), 50, replace=False)
        for name, (couple, distance) in reference.items():
            held = out[f"held_{name}"]
            threshold = float(out[f"threshold_{name}"])
            expected = ref.nearest_rank(held.tolist(), CALIBRATE_QUANTILE)
            checks.add(f"{name}: threshold equals nearest-rank quantile", threshold == expected,
                       f"{threshold!r} vs {expected!r}")  # fmt: skip
            ref_held = np.array([distance(m) for m in self.held])
            checks.close(f"{name}: held-out distances match numpy reference",
                         float(np.max(np.abs(held - ref_held) / np.maximum(1.0, ref_held))))  # fmt: skip
            ref_dist = np.array([distance(m) for m in self.mats])
            abstained = ~np.isnan(out[f"abstain_{name}"])
            clear = np.abs(ref_dist - threshold) > REF_TOL * max(1.0, threshold)
            mismatched = int(np.sum(clear & (abstained != (ref_dist > threshold))))
            checks.add(f"{name}: abstain decisions match numpy reference", mismatched == 0,
                       f"{mismatched} mismatched, {int(abstained.sum())} abstained")  # fmt: skip
            err = _max_diff(out[f"abstain_{name}"][abstained], ref_dist[abstained])
            err = max([err] + [_max_diff(out[f"post_{name}"][k], couple(self.mats[k])) for k in sub if not abstained[k]])
            checks.close(f"{name}: posteriors and abstain distances match numpy reference", err)


WORKLOADS = {w.name: w for w in (Pipeline, LibPredict, Ensemble)}

# -- metric names and units -----------------------------------------------------


def metric_units() -> tuple[dict, dict, dict]:
    """(gated, all end-to-end, per-layer) name -> unit, in print order.

    The gated and per-layer metrics are those of ``BENCHMARK.json``; the
    end-to-end metrics it does not gate are named in ``interactions.json``.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    table = json.loads((BENCH / "interactions.json").read_text(encoding="utf-8"))
    gated = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    reported = {name: m["unit"] for name, m in table["reported_end_to_end"].items()}
    return gated, {**gated, **reported}, {m["name"]: m["unit"] for m in spec["per_layer"]}


# -- host facts ---------------------------------------------------------------------


def _reference_loop_s() -> float:
    """Median of three timings of a fixed pure-Python loop (host speed probe)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the aggregate cpu line of /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def machine_facts() -> dict:
    import platform

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# -- one run ------------------------------------------------------------------------


def measure(workload, seconds: float, trace: bool, checks: Checks, e2e_units: dict) -> dict:
    passes = workload.pass_count(seconds)
    # a traced run alternates untraced and traced passes, half as many of each
    plan = [False, True] * max(1, passes // 2) if trace else [False] * passes
    # the setup starts are spread over the run: a group before each pass and after the last
    per_group = -(-SETUP_REPS // (len(plan) + 1))
    run_child(workload.setup_argv, workload.work)  # warms the file cache; not counted
    setup_runs = []

    untraced, traced = [], []
    totals = Totals()
    first_digest = None
    spans_dir = workload.work / "spans"
    spans_dir.mkdir()
    t_begin = time.perf_counter()
    for use_trace in plan:
        setup_runs += [run_child(workload.setup_argv, workload.work) for _ in range(per_group)]
        p = workload.run_pass(spans_dir if use_trace else None, 0.0 if trace else seconds)
        (traced if use_trace else untraced).append(p)
        if p.bad_exits:
            checks.add("every command exits 0", False, f"{p.bad_exits} bad exits in a pass")
            break
        if use_trace:
            for data in workload.traced_spans():
                totals.add(data["spans"], data["skipped"])
        if first_digest is None:
            first_digest = workload.output_digest()
            try:
                workload.check(checks)
            except (ValueError, KeyError, IndexError, ArithmeticError, OSError, np.linalg.LinAlgError) as exc:
                checks.add("outputs parse", False, repr(exc))
        elif workload.output_digest() != first_digest:
            checks.add("outputs identical across passes", False, f"pass {len(untraced) + len(traced)}")
    if len(untraced) + len(traced) >= 2 and not any(r["check"] == "outputs identical across passes" for r in checks.results):
        checks.add("outputs identical across passes", True, f"{len(untraced) + len(traced)} passes")
    elapsed = time.perf_counter() - t_begin
    setup_runs += [run_child(workload.setup_argv, workload.work) for _ in range(per_group)]
    bad_exits = sum(c.rc != 0 for c in setup_runs) + sum(p.bad_exits for p in untraced + traced)
    rss = max(c.rss_mb for c in setup_runs + untraced)
    setup_walls = [c.wall for c in setup_runs]

    samples_per_s, throughput_n = workload.throughput(untraced)
    passes = len(untraced) + len(traced)
    attempted = max(1, workload.attempted(passes))
    expected_failures = workload.expected_failures * passes
    unexpected = checks.failed + bad_exits + workload.failed_calls
    result = {
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "measured_s": elapsed,
        "bad_exits": bad_exits,
        "attempted": attempted,
        "unexpected_failures": unexpected,
        "expected_failures": expected_failures,
        "samples": {"setup_s": setup_walls, **workload.samples(untraced)},
    }

    e2e = dict.fromkeys(e2e_units)
    counts = dict.fromkeys(e2e_units, len(untraced))
    e2e.update(samples_per_s=samples_per_s, peak_rss_mb=rss, setup_s=ref.nearest_rank(setup_walls, SLOW_QUANTILE))
    counts.update(samples_per_s=throughput_n, setup_s=len(setup_walls), failed_share=attempted)
    e2e["failed_share"] = (expected_failures + unexpected) / attempted
    stage_labels: dict[str, list] = {}
    for label, stage, _ in workload.steps():
        if stage:
            stage_labels.setdefault(stage, []).append(label)
    for stage, labels in stage_labels.items():
        e2e[stage] = statistics.median(sum(p.steps[label] for label in labels) for p in untraced)
    for name, lat in workload.latencies.items():
        if lat:
            e2e[f"predict_{name}_p50_ms"] = 1e3 * statistics.median(lat)
            e2e[f"predict_{name}_p99_ms"] = 1e3 * ref.nearest_rank(lat, 0.99)
        counts[f"predict_{name}_p50_ms"] = counts[f"predict_{name}_p99_ms"] = len(lat)
    result["end_to_end"] = {
        k: {"value": v, "unit": e2e_units[k], "n": counts[k]} for k, v in e2e.items() if v is not None
    }
    result["not_applicable"] = [k for k, v in e2e.items() if v is None]

    if trace and traced:
        n_traced = len(traced)
        layer = totals.metrics(n_traced)
        traced_wall = sum(p.wall for p in traced) / n_traced
        layer["trace.wall_s"] = traced_wall
        layer["trace.unattributed_s"] = traced_wall - totals.self_total() / n_traced
        layer["trace.overhead_share"] = (
            statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in untraced) - 1.0
        )
        layer["trace.skipped_names"] = len(totals.skipped)
        result["per_layer"] = layer
        result["skipped"] = sorted(totals.skipped)
        checks.add("self times fit inside the traced wall time",
                   layer["trace.unattributed_s"] >= 0.0 and min(totals.self_s.values(), default=0.0) >= 0.0,
                   f"unattributed {layer['trace.unattributed_s']:.4f} s")  # fmt: skip
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    _require_plmkit_source()
    gated_units, e2e_units, layer_units = metric_units()

    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        steal0, ticks0 = _cpu_ticks()
        host = {"ref_loop_start_s": _reference_loop_s()}
        workload = WORKLOADS[args.workload](args.seed, work)
        inputs = workload.prepare()
        checks = Checks()
        result = measure(workload, args.seconds, bool(args.trace), checks, e2e_units)
        host["ref_loop_end_s"] = _reference_loop_s()
        host["ref_loop_drift"] = host["ref_loop_end_s"] / host["ref_loop_start_s"] - 1.0
        steal1, ticks1 = _cpu_ticks()
        host["steal_ticks"] = steal1 - steal0
        host["steal_share"] = (steal1 - steal0) / (ticks1 - ticks0) if ticks1 > ticks0 else 0.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        layer = result.get("per_layer", {})
        metrics = {k: {"value": layer.get(k, 0.0), "unit": u} for k, u in layer_units.items()}
    else:
        metrics = {k: {"value": result["end_to_end"][k]["value"], "unit": u} for k, u in gated_units.items()}
    for name, m in (result["end_to_end"].items() if not args.trace else metrics.items()):
        n = f"  (n={m['n']})" if "n" in m else ""
        print(f"{name:30s} {m['value']:>16.6g} {m['unit']}{n}")
    for name in result["not_applicable"] if not args.trace else ():
        print(f"{name:30s} {'n/a':>16s}")
    for r in checks.results:
        if not r["ok"]:
            print(f"CHECK FAILED: {r['check']}: {r['detail']}", file=sys.stderr)
    results = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": inputs,
        "machine": machine_facts(),
        "host": host,
        **result,
        "checks": checks.results,
    }
    print("results: " + json.dumps(results, sort_keys=True))
    correct = checks.failed == 0 and result["bad_exits"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["unexpected_failures"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
