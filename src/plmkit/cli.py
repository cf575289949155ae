"""Command line interface: batch experiments over the CSV file formats.

Exit codes: 0 success, 1 input/format error, 2 numerical failure when
``--strict`` is set.  All outputs are deterministic given flags and seeds.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .abstention import SurenessScore, calibrate_threshold, sureness_stack
from .core import (
    CouplingConfig,
    Method,
    PlmError,
    Stabilization,
)
from .coupling import couple_stack, theta_map
from .datagen import BlobSpec, bayes_posterior_blobs, generate_blobs
from .ensemble import CorrectionPatch, correct_stack, recombine_stack, summarize
from .fileio import (
    FORMAT_VERSION,
    FormatError,
    read_distances,
    read_labels,
    read_pairwise,
    read_patch,
    read_posteriors,
    write_confusion,
    write_distances,
    write_features,
    write_labels,
    write_pairwise,
    write_posteriors,
    write_report,
    write_summaries,
)
from .metrics import accuracy, argmax_predict, confusion_matrix, worst_confused_pair

_METHODS = {"wlw": Method.WU_LIN_WENG, "bc": Method.BAYES_COVARIANT}
_STABILIZERS = {
    "none": Stabilization.NONE,
    "clip": Stabilization.CLIP,
    "drop": Stabilization.DROP_CLASSES,
}


def _config(args) -> CouplingConfig:
    return CouplingConfig(
        method=_METHODS[args.method],
        stabilization=_STABILIZERS[args.stabilize],
        tau=args.tau,
        rho=args.rho,
    )


def _add_coupling_flags(sub, default_stabilize="none"):
    sub.add_argument("--method", choices=sorted(_METHODS), default="wlw")
    sub.add_argument("--stabilize", choices=sorted(_STABILIZERS), default=default_stabilize)
    sub.add_argument("--tau", type=float, default=1e-3)
    sub.add_argument("--rho", type=float, default=1e-3)


def cmd_restrict(args) -> int:
    posteriors = read_posteriors(args.input)
    write_pairwise(args.output, [(sid, theta_map(p)) for sid, p in posteriors])
    return 0


def _stack(matrices) -> np.ndarray:
    """The (N, c, c) stack of a pairwise file, which holds a single c."""
    if not matrices:
        return np.zeros((0, 2, 2))
    return np.stack([m.entries for _, m in matrices])


def cmd_couple(args) -> int:
    matrices = read_pairwise(args.input)
    coupled = couple_stack(_stack(matrices), _config(args))
    results, failures = [], []
    for k, (sid, _) in enumerate(matrices):
        try:
            results.append((sid, coupled.posterior(k)))
        except PlmError as exc:
            failures.append((sid, str(exc)))
    write_posteriors(args.output, results, failures)
    for sid, msg in failures:
        print(f"failed: {sid}: {msg}", file=sys.stderr)
    return 2 if failures and args.strict else 0


def cmd_correct(args) -> int:
    posteriors = read_posteriors(args.posteriors)
    if not posteriors:
        raise FormatError(f"{args.posteriors}: no samples to correct")
    labels = read_labels(args.labels, c=posteriors[0][1].c)
    truth = labels.labels_by_id()
    probs = np.stack([p.probs for _, p in posteriors])
    rows = []
    for patch_path in args.patch:
        triples = read_patch(patch_path)
        patched = correct_stack(probs, CorrectionPatch(pairs=tuple(triples)))
        for mname, method in sorted(_METHODS.items()):
            coupled = couple_stack(patched, CouplingConfig(method=method))
            coupled.raise_first()
            winners = np.argmax(coupled.probs, axis=1).tolist()
            multi_acc = accuracy([(sid, w) for (sid, _), w in zip(posteriors, winners)], labels)
            pair_accs = []
            for i, j, q in triples:
                pair_samples = [sid for sid, _ in posteriors if truth[sid] in (i, j)]
                if pair_samples:
                    predicted = i if q >= 0.5 else j
                    hits = sum(1 for sid in pair_samples if truth[sid] == predicted)
                    pair_accs.append(hits / len(pair_samples))
            pair_acc = sum(pair_accs) / len(pair_accs) if pair_accs else float("nan")
            rows.append((patch_path, mname, pair_acc, multi_acc))
    fits = []
    if args.ols:
        for mname in sorted(_METHODS):
            pts = [(pa, ma) for _, m, pa, ma in rows if m == mname and np.isfinite(pa)]
            x, y = np.array(pts).reshape(-1, 2).T
            if np.unique(x).size < 2:
                # a line through fewer than two distinct x values is undefined
                fits.append((mname, None, None))
            else:
                slope, intercept = np.polyfit(x, y, 1)
                fits.append((mname, slope, intercept))
    write_report(args.output, rows, fits)
    return 0


def cmd_bootstrap(args) -> int:
    per_file = [dict(read_pairwise(path)) for path in args.inputs]
    ids = list(per_file[0])
    for path, d in zip(args.inputs, per_file):
        if set(d) != set(ids):
            raise FormatError(f"{path}: sample_ids differ from {args.inputs[0]}")
    config = CouplingConfig(method=_METHODS[args.method])
    summaries = []
    for s_index, sid in enumerate(ids):
        # per-sample seed offset keeps samples independent of processing order
        stack = recombine_stack([d[sid] for d in per_file], args.n, args.seed + s_index)
        summaries.append((sid, summarize(couple_stack(stack, config))))
    write_summaries(args.output, summaries)
    return 0


def cmd_distance(args) -> int:
    matrices = read_pairwise(args.input)
    config = CouplingConfig(method=_METHODS[args.method], tau=args.tau)
    coupled = sureness_stack(_stack(matrices), config)
    coupled.raise_first()
    scores = [
        SurenessScore(sample_id=sid, method=config.method, distance=float(d))
        for (sid, _), d in zip(matrices, coupled.residual)
    ]
    write_distances(args.output, scores)
    return 0


def cmd_calibrate(args) -> int:
    distances = [d for _, _, d in read_distances(args.input)]
    threshold = calibrate_threshold(distances, args.quantile)
    print(f"{threshold:.17g}")
    return 0


def cmd_evaluate(args) -> int:
    posteriors = read_posteriors(args.posteriors)
    labels = read_labels(args.labels, c=posteriors[0][1].c if posteriors else None)
    preds = [(sid, argmax_predict(p)) for sid, p in posteriors]
    acc = accuracy(preds, labels)
    counts = confusion_matrix(preds, labels)
    write_confusion(args.confusion, counts)
    worst = worst_confused_pair(counts)
    print(f"accuracy: {acc:.17g}")
    if worst is None:
        print("worst_confused_pair: none")
    else:
        i, j = worst
        print(f"worst_confused_pair: ({i},{j}) errors={counts[i, j] + counts[j, i]}")
    return 0


def cmd_synth(args) -> int:
    if args.dim is None:
        args.dim = args.c
    means = np.zeros((args.c, args.dim))
    for k in range(args.c):
        means[k, k % args.dim] += args.separation
    spec = BlobSpec(
        c=args.c,
        dim=args.dim,
        means=means,
        scale=args.scale,
        n_per_class=args.n_per_class,
        seed=args.seed,
    )
    features, batch = generate_blobs(spec)
    write_labels(args.labels, batch)
    posteriors = [
        (sid, bayes_posterior_blobs(spec, x))
        for (sid, _), x in zip(batch.samples, features)
    ]
    write_posteriors(args.posteriors, posteriors)
    if args.features:
        write_features(args.features, [sid for sid, _ in batch.samples], features)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plmkit",
        description="Pairwise-coupling meta-classification over CSV files.",
    )
    parser.add_argument(
        "--version", action="version", version=f"plmkit {__version__} (format {FORMAT_VERSION})"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("restrict", help="posterior file -> pairwise likelihood file")
    s.add_argument("input")
    s.add_argument("output")
    s.set_defaults(func=cmd_restrict)

    s = sub.add_parser("couple", help="pairwise likelihood file -> posterior file")
    s.add_argument("input")
    s.add_argument("output")
    _add_coupling_flags(s)
    s.add_argument("--strict", action="store_true", help="exit 2 if any sample fails")
    s.set_defaults(func=cmd_couple)

    s = sub.add_parser("correct", help="apply pair patches and report accuracies")
    s.add_argument("posteriors")
    s.add_argument("labels")
    s.add_argument("output")
    s.add_argument("--patch", action="append", required=True, help="patch CSV (repeatable)")
    s.add_argument("--ols", action="store_true", help="append OLS slope/intercept per method")
    s.set_defaults(func=cmd_correct)

    s = sub.add_parser("bootstrap", help="recombine pairwise files into an ensemble summary")
    s.add_argument("inputs", nargs="+", help="two or more pairwise files")
    s.add_argument("output")
    s.add_argument("--n", type=int, default=100)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--method", choices=sorted(_METHODS), default="wlw")
    s.set_defaults(func=cmd_bootstrap)

    s = sub.add_parser("distance", help="manifold distances for a pairwise file")
    s.add_argument("input")
    s.add_argument("output")
    s.add_argument("--method", choices=sorted(_METHODS), default="bc")
    s.add_argument("--tau", type=float, default=1e-3)
    s.set_defaults(func=cmd_distance)

    s = sub.add_parser("calibrate", help="quantile threshold from a distance file")
    s.add_argument("input")
    s.add_argument("--quantile", type=float, default=0.95)
    s.set_defaults(func=cmd_calibrate)

    s = sub.add_parser("evaluate", help="accuracy and confusion matrix of a posterior file")
    s.add_argument("posteriors")
    s.add_argument("labels")
    s.add_argument("confusion", help="output confusion-matrix CSV")
    s.set_defaults(func=cmd_evaluate)

    s = sub.add_parser("synth", help="generate a Gaussian-blob dataset")
    s.add_argument("posteriors", help="output posterior CSV (exact blob posteriors)")
    s.add_argument("labels", help="output labels CSV")
    s.add_argument("--features", help="optional output feature CSV")
    s.add_argument("--c", type=int, default=3)
    s.add_argument("--dim", type=int, default=None)
    s.add_argument("--scale", type=float, default=1.0)
    s.add_argument("--separation", type=float, default=3.0)
    s.add_argument("--n-per-class", type=int, default=100)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PlmError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
