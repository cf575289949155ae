"""Command line interface: batch experiments over the CSV file formats.

Exit codes: 0 success, 1 input/format error, 2 numerical failure or argparse usage error.
``restrict``, ``couple``, ``bootstrap`` and ``correct`` report a sample that
fails and go on (``couple --strict`` exits 2 on one, ``correct`` when every
sample fails).  All outputs are deterministic given flags and seeds.
"""

from __future__ import annotations

import argparse
import gc
import sys

import numpy as np

from . import __version__
from .core import (
    BinaryPrediction,
    CouplingConfig,
    LabeledBatch,
    Method,
    PlmError,
    Stabilization,
    require_int,
    require_seed,
)
from .coupling import couple_stack, theta_map_stack
from .fileio import (
    FORMAT_VERSION,
    FormatError,
    failure_lines,
    read_distance_stack,
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

_METHODS = sorted(m.value for m in Method)


def _write_kept(write, path, ids: list[str], errors, *arrays) -> list:
    """Write the samples whose error is None, with their rows of ``arrays``,
    then a ``# failed:`` comment and a stderr line for each other sample;
    returns those (sample_id, message) failures."""
    ok = np.array([error is None for error in errors], dtype=bool)
    failures = [(sid, str(error)) for sid, error in zip(ids, errors) if error is not None]
    kept = [sid for sid, good in zip(ids, ok) if good]
    write(path, kept, *(array[ok] if failures else array for array in arrays), failures)
    sys.stderr.writelines(f"{line}\n" for line in failure_lines(failures))
    return failures


def cmd_restrict(args) -> int:
    ids, probs = read_posterior_stack(args.input)
    failed: dict[int, PlmError] = {}
    stack = theta_map_stack(probs, failed)
    _write_kept(write_pairwise_stack, args.output, ids, [*map(failed.get, range(len(ids)))], stack)
    return 0


def cmd_couple(args) -> int:
    config = CouplingConfig(args.method, args.stabilize, args.tau, args.rho)
    ids, stack = read_pairwise_stack(args.input)
    if not ids:  # a file without rows has no class count
        raise FormatError(f"{args.input}: no samples to couple")
    coupled = couple_stack(stack, config)
    failures = _write_kept(write_posterior_stack, args.output, ids, coupled.errors, coupled.probs)
    return 2 if failures and args.strict else 0


def cmd_correct(args) -> int:
    from .abstention import sureness_stack
    from .ensemble import CorrectionPatch, correct_stack
    from .metrics import accuracy, pairwise_accuracy

    ids, probs = read_posterior_stack(args.posteriors)
    if not ids:
        raise FormatError(f"{args.posteriors}: no samples to correct")
    labels = read_labels(args.labels, c=probs.shape[1])
    # a sample with a pair without mass is left out of every row and reported
    failed: dict[int, PlmError] = {}
    stack = theta_map_stack(probs, failed)
    if len(failed) == len(ids):
        raise failed[0]
    failures = [(ids[n], str(error)) for n, error in failed.items()]
    dropped = {sid for sid, _ in failures}
    ids, stack = [sid for sid in ids if sid not in dropped], np.delete(stack, list(failed), axis=0)
    labels = LabeledBatch([s for s in labels.samples if s[0] not in dropped], labels.c)
    truth = labels.labels_by_id()
    rows = []
    for patch_path in args.patch:
        triples = read_patch(patch_path, c=probs.shape[1])
        patched = correct_stack(stack, CorrectionPatch(pairs=tuple(triples)))
        # the patch's own accuracy on its pairs; a sample without a label is
        # rejected by accuracy() below
        pair_accs = []
        for i, j, q in triples:
            prediction = BinaryPrediction(i, j, q)
            pair_preds = [(sid, prediction) for sid in ids if truth.get(sid) in (i, j)]
            if pair_preds:
                pair_accs.append(pairwise_accuracy(pair_preds, labels))
        pair_acc = sum(pair_accs) / len(pair_accs) if pair_accs else float("nan")
        for mname in _METHODS:
            # each method coupled as its distance is measured: BC after a clip
            coupled = sureness_stack(patched, CouplingConfig(method=mname))
            coupled.raise_first()
            winners = np.argmax(coupled.probs, axis=1).tolist()
            multi_acc = accuracy(list(zip(ids, winners)), labels)
            rows.append((patch_path, mname, pair_acc, multi_acc))
    fits = []
    if args.ols:
        for mname in _METHODS:
            pts = [(pa, ma) for _, m, pa, ma in rows if m == mname and np.isfinite(pa)]
            x, y = np.array(pts).reshape(-1, 2).T
            # a line through fewer than two distinct x values is undefined;
            # np.unique would load numpy.ma to say so
            if not (x != x[:1]).any():
                fits.append((mname, None, None))
            else:
                slope, intercept = np.polyfit(x, y, 1)
                fits.append((mname, slope, intercept))
    write_report(args.output, rows, fits, failures)
    sys.stderr.writelines(f"{line}\n" for line in failure_lines(failures))
    return 0


# matrices recombined and coupled at once: bounds bootstrap's memory for any input size
_BOOTSTRAP_BLOCK = 1000
_ALL_FAILED = "every matrix failed to couple"


def cmd_bootstrap(args) -> int:
    from .ensemble import recombine_stack, summarize_stack

    require_int("--n", args.n, 1)
    require_seed("--seed", args.seed)
    if len(args.inputs) < 2:
        raise ValueError("need at least two source matrices")
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
    config = CouplingConfig(method=args.method)
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
        stats[part], excluded[part] = summarize_stack(coupled.probs.reshape(len(block), args.n, c))
    errors = [_ALL_FAILED if count == args.n else None for count in excluded.tolist()]
    _write_kept(write_summary_stack, args.output, ids, errors, stats, excluded)
    return 0


def cmd_distance(args) -> int:
    from .abstention import sureness_stack

    config = CouplingConfig(method=args.method, tau=args.tau)
    ids, stack = read_pairwise_stack(args.input)
    coupled = sureness_stack(stack, config)
    coupled.raise_first()
    write_distance_stack(args.output, ids, [args.method] * len(ids), coupled.residual)
    return 0


def cmd_calibrate(args) -> int:
    from .abstention import calibrate_threshold

    _, _, distances = read_distance_stack(args.input)
    threshold = calibrate_threshold(distances, args.quantile)
    print(f"{threshold:.17g}")
    return 0


def cmd_evaluate(args) -> int:
    from .metrics import accuracy, confusion_matrix, worst_confused_pair

    ids, probs = read_posterior_stack(args.posteriors)
    labels = read_labels(args.labels, c=probs.shape[1] if ids else None)
    preds = list(zip(ids, np.argmax(probs, axis=1).tolist()))  # ties go to the lowest index
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

    dim = args.c if args.dim is None else args.dim
    # class k's mean is `separation` along axis k mod dim; BlobSpec rejects a bad c or dim
    means = [[args.separation if k % dim == d else 0.0 for d in range(dim)] for k in range(args.c)]
    spec = BlobSpec(
        c=args.c,
        dim=dim,
        means=means,
        scale=args.scale,
        n_per_class=args.n_per_class,
        seed=args.seed,
    )
    features, batch = generate_blobs(spec)
    probs = bayes_posterior_stack(spec, features)  # raises before any file is written
    ids = [sid for sid, _ in batch.samples]
    write_labels(args.labels, batch)
    write_posterior_stack(args.posteriors, ids, probs)
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
    s.add_argument("--method", choices=_METHODS, default="wlw")
    s.add_argument("--stabilize", choices=sorted(m.value for m in Stabilization), default="none")
    s.add_argument("--tau", type=float, default=CouplingConfig.tau)
    s.add_argument("--rho", type=float, default=CouplingConfig.rho)
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
    s.add_argument("--method", choices=_METHODS, default="wlw")
    s.set_defaults(func=cmd_bootstrap)

    s = sub.add_parser("distance", help="manifold distances for a pairwise file")
    s.add_argument("input")
    s.add_argument("output")
    s.add_argument("--method", choices=_METHODS, default="bc")
    s.add_argument("--tau", type=float, default=CouplingConfig.tau)
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
