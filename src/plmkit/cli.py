"""Command line interface: batch experiments over the CSV file formats.

Exit codes: 0 success, 1 input/format error, 2 numerical failure when
``--strict`` is set.  All outputs are deterministic given flags and seeds.
"""

from __future__ import annotations

import argparse
import gc
import sys

import numpy as np

from . import __version__
from .core import (
    CouplingConfig,
    Method,
    PlmError,
    Stabilization,
)
from .coupling import couple_stack, theta_map_stack
from .fileio import (
    FORMAT_VERSION,
    FormatError,
    read_distances,
    read_labels,
    read_pairwise_stack,
    read_patch,
    read_posterior_stack,
    write_confusion,
    write_distance_stack,
    write_features,
    write_labels,
    write_pairwise_stack,
    write_posterior_stack,
    write_report,
    write_summary_stack,
)

# abstention, datagen, ensemble and metrics are imported by the commands that
# use them: every process start pays to load (and, without cached bytecode,
# compile) each module it imports

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
    ids, probs = read_posterior_stack(args.input)
    write_pairwise_stack(args.output, ids, theta_map_stack(probs))
    return 0


def cmd_couple(args) -> int:
    ids, stack = read_pairwise_stack(args.input)
    coupled = couple_stack(stack, _config(args))
    ok = np.array([error is None for error in coupled.errors], dtype=bool)
    failures = [(sid, str(error)) for sid, error in zip(ids, coupled.errors) if error is not None]
    write_posterior_stack(
        args.output, [sid for sid, good in zip(ids, ok) if good], coupled.probs[ok], failures
    )
    for sid, msg in failures:
        print(f"failed: {sid}: {msg}", file=sys.stderr)
    return 2 if failures and args.strict else 0


def cmd_correct(args) -> int:
    from .ensemble import CorrectionPatch, correct_stack
    from .metrics import accuracy

    ids, probs = read_posterior_stack(args.posteriors)
    if not ids:
        raise FormatError(f"{args.posteriors}: no samples to correct")
    labels = read_labels(args.labels, c=probs.shape[1])
    truth = labels.labels_by_id()
    rows = []
    for patch_path in args.patch:
        triples = read_patch(patch_path)
        patched = correct_stack(probs, CorrectionPatch(pairs=tuple(triples)))
        for mname, method in sorted(_METHODS.items()):
            coupled = couple_stack(patched, CouplingConfig(method=method))
            coupled.raise_first()
            winners = np.argmax(coupled.probs, axis=1).tolist()
            multi_acc = accuracy(list(zip(ids, winners)), labels)
            pair_accs = []
            for i, j, q in triples:
                pair_samples = [sid for sid in ids if truth[sid] in (i, j)]
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
            # a line through fewer than two distinct x values is undefined;
            # np.unique would load numpy.ma to say so
            if not (x != x[:1]).any():
                fits.append((mname, None, None))
            else:
                slope, intercept = np.polyfit(x, y, 1)
                fits.append((mname, slope, intercept))
    write_report(args.output, rows, fits)
    return 0


# matrices recombined and coupled at once: bounds bootstrap's memory for any input size
_BOOTSTRAP_BLOCK = 1000


def cmd_bootstrap(args) -> int:
    from .ensemble import recombine_stack, summarize_stack

    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    parsed = {path: read_pairwise_stack(path) for path in dict.fromkeys(args.inputs)}
    files = [parsed[path] for path in args.inputs]
    ids, first = files[0]
    aligned = []
    for path, (file_ids, stack) in zip(args.inputs, files):
        if set(file_ids) != set(ids):
            raise FormatError(f"{path}: sample_ids differ from {args.inputs[0]}")
        if stack.shape[1] != first.shape[1]:
            raise FormatError(
                f"{path}: class count c={stack.shape[1]} differs from "
                f"c={first.shape[1]} of {args.inputs[0]}"
            )
        row = {sid: k for k, sid in enumerate(file_ids)}
        aligned.append(stack[[row[sid] for sid in ids]])
    sources = np.stack(aligned, axis=1)  # (N, files, c, c)
    config = CouplingConfig(method=_METHODS[args.method])
    c = sources.shape[-1]
    # per sample: mean, sd, min, nine deciles and max of each class; rows excluded
    stats, excluded = np.zeros((len(ids), 13, c)), np.zeros(len(ids), dtype=np.int64)
    per_block = max(1, _BOOTSTRAP_BLOCK // args.n)
    for start in range(0, len(ids), per_block):
        part = slice(start, start + per_block)
        block = sources[part]
        # sample s draws from the streams of seed + s, so its summary does
        # not depend on the block it is processed in
        seeds = range(args.seed + start, args.seed + start + len(block))
        coupled = couple_stack(recombine_stack(block, args.n, seeds).reshape(-1, c, c), config)
        failed = np.array([e is not None for e in coupled.errors]).reshape(len(block), args.n)
        stats[part], excluded[part] = summarize_stack(
            coupled.probs.reshape(len(block), args.n, c), failed
        )
    write_summary_stack(args.output, ids, stats, excluded)
    return 0


def cmd_distance(args) -> int:
    from .abstention import sureness_stack

    ids, stack = read_pairwise_stack(args.input)
    method = _METHODS[args.method]
    coupled = sureness_stack(stack, CouplingConfig(method=method, tau=args.tau))
    coupled.raise_first()
    write_distance_stack(args.output, ids, [method.value] * len(ids), coupled.residual)
    return 0


def cmd_calibrate(args) -> int:
    from .abstention import calibrate_threshold

    distances = [d for _, _, d in read_distances(args.input)]
    threshold = calibrate_threshold(distances, args.quantile)
    print(f"{threshold:.17g}")
    return 0


def cmd_evaluate(args) -> int:
    from .metrics import accuracy, confusion_matrix, worst_confused_pair

    ids, probs = read_posterior_stack(args.posteriors)
    labels = read_labels(args.labels, c=probs.shape[1] if ids else None)
    # ties go to the lowest index
    preds = [(sid, int(np.argmax(p))) for sid, p in zip(ids, probs)]
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
    from .datagen import BlobSpec, bayes_posterior_stack, generate_blobs

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
    ids = [sid for sid, _ in batch.samples]
    write_labels(args.labels, batch)
    write_posterior_stack(args.posteriors, ids, bayes_posterior_stack(spec, features))
    if args.features:
        write_features(args.features, ids, features)
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
    s.add_argument("--n", type=int, default=100, help="recombinations per sample (at least 1)")
    s.add_argument(
        "--seed",
        type=int,
        default=0,
        help="sample s draws from the streams of seed + s, so runs whose seeds "
        "differ by d share the streams of all but d samples",
    )
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


def run() -> int:
    """Process entry point: ``main`` on ``sys.argv`` after freezing the heap.

    ``gc.freeze`` moves every object alive now (numpy's and plmkit's import-time
    objects) to the permanent generation, so no collection, the final one at
    interpreter shutdown included, traverses them again.  It is called here and
    not in ``main``, which in-process callers run many times.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
