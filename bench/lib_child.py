"""Library workload child: calibrate, then call abstaining_predict one at a time.

Usage: python3 bench/lib_child.py INPUT.npz OUTPUT.npz --calls K [--spans SPANS.json]

INPUT holds ``held`` (calibration matrices) and ``mats`` (prediction
matrices).  Matrices are cycled for ``K`` predictions per method, at least
one per matrix, so every matrix is predicted once; ``--calls 0`` makes
exactly one sweep.  The count does not depend on how fast the calls are.
Each method's call latencies and the results of the first sweep go to
OUTPUT.  Calls go through ``plmkit.abstention`` attributes, so the tracer
sees them when ``--spans`` is given.
"""

import argparse
import sys
import time

import numpy as np

from tracer import Tracer

QUANTILE = 0.95


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("input")
    ap.add_argument("output")
    ap.add_argument("--calls", type=int, required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()
    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()
    from plmkit import abstention
    from plmkit.core import CouplingConfig, Method, PairwiseLikelihoodMatrix, PlmError, Stabilization

    data = np.load(args.input)
    held = [PairwiseLikelihoodMatrix(m) for m in data["held"]]
    mats = [PairwiseLikelihoodMatrix(m) for m in data["mats"]]
    configs = {
        "wlw": CouplingConfig(method=Method.WU_LIN_WENG),
        "bc": CouplingConfig(method=Method.BAYES_COVARIANT, stabilization=Stabilization.CLIP),
    }
    c, n = mats[0].c, len(mats)
    out = {}
    t_start = time.perf_counter()
    thresholds = {}
    for name, config in configs.items():
        distances = [abstention.sureness(m, config) for m in held]
        thresholds[name] = abstention.calibrate_threshold(distances, QUANTILE)
        out[f"held_{name}"] = np.array(distances)
        out[f"threshold_{name}"] = thresholds[name]
        out[f"post_{name}"] = np.full((n, c), np.nan)
        out[f"abstain_{name}"] = np.full(n, np.nan)
    latencies = {name: [] for name in configs}
    failed = 0
    t_loop = time.perf_counter()
    for k in range(max(n, args.calls)):
        m = mats[k % n]
        for name, config in configs.items():
            t0 = time.perf_counter()
            try:
                result = abstention.abstaining_predict(m, config, thresholds[name])
            except PlmError:
                result = None
            latencies[name].append(time.perf_counter() - t0)
            if result is None:
                failed += 1
            elif k < n:
                if isinstance(result, abstention.Abstain):
                    out[f"abstain_{name}"][k] = result.distance
                else:
                    out[f"post_{name}"][k] = result.probs
    t_end = time.perf_counter()
    for name in configs:
        out[f"lat_{name}"] = np.array(latencies[name])
    out["failed"] = failed
    out["loop_s"] = t_end - t_loop
    out["total_s"] = t_end - t_start
    np.savez(args.output, **out)
    if tracer is not None:
        tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
