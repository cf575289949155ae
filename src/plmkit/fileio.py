"""CSV file formats shared by the CLI commands.

All files are UTF-8 with Unix newlines and ``.`` decimal separators, start
with a ``# plm-v1`` comment line, and re-parse under the same definitions.
Floats are written with 17 significant digits so round-trips are lossless.
"""

from __future__ import annotations

import csv

import numpy as np

from .core import LabeledBatch, PairwiseLikelihoodMatrix, PlmError, Posterior

FORMAT_VERSION = "plm-v1"


class FormatError(PlmError):
    """Malformed input file; message carries the offending line number."""


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _rows(path) -> list[tuple[int, list[str]]]:
    """Parsed CSV rows with 1-based line numbers, comments and blanks skipped."""
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            out.append((lineno, next(csv.reader([line]))))
    return out


def _writer(path):
    fh = open(path, "w", newline="\n", encoding="utf-8")
    fh.write(f"# {FORMAT_VERSION}\n")
    return fh, csv.writer(fh, lineterminator="\n")


# -- posterior files: sample_id,p_0,...,p_{c-1} ------------------------------

def write_posteriors(path, posteriors: list[tuple[str, Posterior]], failures=()) -> None:
    """Rows per posterior, then one ``# failed:`` comment per sample that failed."""
    fh, w = _writer(path)
    with fh:
        c = posteriors[0][1].c if posteriors else 0
        w.writerow(["sample_id"] + [f"p_{k}" for k in range(c)])
        for sid, p in posteriors:
            w.writerow([sid] + [_fmt(x) for x in p.probs])
        for sid, msg in failures:
            fh.write(f"# failed: {sid}: {msg}\n")


def read_posteriors(path) -> list[tuple[str, Posterior]]:
    rows = _rows(path)
    if not rows:
        raise FormatError(f"{path}: missing header row")
    lineno, header = rows[0]
    if header[:1] != ["sample_id"]:
        raise FormatError(f"{path}:{lineno}: expected header sample_id,p_0,...")
    c = len(header) - 1
    if c < 2 and len(rows) > 1:
        raise FormatError(f"{path}:{lineno}: need at least two probability columns")
    out = []
    seen = set()
    for lineno, row in rows[1:]:
        if len(row) != c + 1:
            raise FormatError(f"{path}:{lineno}: expected {c + 1} fields, got {len(row)}")
        if row[0] in seen:
            raise FormatError(f"{path}:{lineno}: duplicate sample_id {row[0]!r}")
        seen.add(row[0])
        try:
            probs = np.array([float(x) for x in row[1:]])
            out.append((row[0], Posterior(probs)))
        except (ValueError, PlmError) as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
    return out


# -- pairwise long files: sample_id,i,j,r_ij with i < j ----------------------

def write_pairwise(path, matrices: list[tuple[str, PairwiseLikelihoodMatrix]]) -> None:
    fh, w = _writer(path)
    with fh:
        w.writerow(["sample_id", "i", "j", "r_ij"])
        for sid, m in matrices:
            for i in range(m.c):
                for j in range(i + 1, m.c):
                    w.writerow([sid, i, j, _fmt(m.entries[i, j])])


def read_pairwise(path) -> list[tuple[str, PairwiseLikelihoodMatrix]]:
    """Reassemble full matrices; the lower triangle is set to complements.

    Every sample must have the class count of the first one, so a file is
    one (N, c, c) stack.
    """
    rows = _rows(path)
    if not rows:
        raise FormatError(f"{path}: missing header row")
    lineno, header = rows[0]
    if header != ["sample_id", "i", "j", "r_ij"]:
        raise FormatError(f"{path}:{lineno}: expected header sample_id,i,j,r_ij")
    triples: dict[str, dict[tuple[int, int], float]] = {}
    first_line: dict[str, int] = {}
    for lineno, row in rows[1:]:
        if len(row) != 4:
            raise FormatError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
        sid = row[0]
        try:
            i, j, r = int(row[1]), int(row[2]), float(row[3])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
        if not (0 <= i < j):
            raise FormatError(f"{path}:{lineno}: need 0 <= i < j, got ({i},{j})")
        if not (0.0 <= r <= 1.0):
            raise FormatError(f"{path}:{lineno}: r_ij = {r} outside [0, 1]")
        if sid not in triples:
            triples[sid] = {}
            first_line[sid] = lineno
        if (i, j) in triples[sid]:
            raise FormatError(f"{path}:{lineno}: duplicate pair ({i},{j}) for sample {sid!r}")
        triples[sid][(i, j)] = r
    out = []
    for sid, pairs in triples.items():
        c = max(j for _, j in pairs) + 1
        expected = {(i, j) for i in range(c) for j in range(i + 1, c)}
        if set(pairs) != expected:
            raise FormatError(f"{path}: sample {sid!r} has incomplete pair set for c={c}")
        if out and c != out[0][1].c:
            raise FormatError(
                f"{path}:{first_line[sid]}: sample {sid!r} has c={c}, "
                f"but the first sample has c={out[0][1].c}"
            )
        m = np.zeros((c, c))
        for (i, j), r in pairs.items():
            m[i, j] = r
            m[j, i] = 1.0 - r
        out.append((sid, PairwiseLikelihoodMatrix(m)))
    return out


# -- label files: sample_id,label --------------------------------------------

def write_labels(path, batch: LabeledBatch) -> None:
    fh, w = _writer(path)
    with fh:
        w.writerow(["sample_id", "label"])
        for sid, label in batch.samples:
            w.writerow([sid, label])


def read_labels(path, c: int | None = None) -> LabeledBatch:
    rows = _rows(path)
    if not rows:
        raise FormatError(f"{path}: missing header row")
    lineno, header = rows[0]
    if header != ["sample_id", "label"]:
        raise FormatError(f"{path}:{lineno}: expected header sample_id,label")
    samples = []
    for lineno, row in rows[1:]:
        if len(row) != 2:
            raise FormatError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
        try:
            samples.append((row[0], int(row[1])))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
    if c is None:
        c = max(label for _, label in samples) + 1 if samples else 2
    try:
        return LabeledBatch(samples=tuple(samples), c=c)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# -- patch files: i,j,prob_i -------------------------------------------------

def read_patch(path) -> list[tuple[int, int, float]]:
    rows = _rows(path)
    if not rows:
        raise FormatError(f"{path}: missing header row")
    lineno, header = rows[0]
    if header != ["i", "j", "prob_i"]:
        raise FormatError(f"{path}:{lineno}: expected header i,j,prob_i")
    out = []
    for lineno, row in rows[1:]:
        if len(row) != 3:
            raise FormatError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
        try:
            out.append((int(row[0]), int(row[1]), float(row[2])))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
    return out


# -- distance files: sample_id,method,distance -------------------------------

def write_distances(path, scores: list) -> None:
    fh, w = _writer(path)
    with fh:
        w.writerow(["sample_id", "method", "distance"])
        for s in scores:
            w.writerow([s.sample_id, s.method.value, _fmt(s.distance)])


def read_distances(path) -> list[tuple[str, str, float]]:
    rows = _rows(path)
    if not rows:
        raise FormatError(f"{path}: missing header row")
    lineno, header = rows[0]
    if header != ["sample_id", "method", "distance"]:
        raise FormatError(f"{path}:{lineno}: expected header sample_id,method,distance")
    out = []
    for lineno, row in rows[1:]:
        if len(row) != 3:
            raise FormatError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
        try:
            distance = float(row[2])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
        if not (np.isfinite(distance) and distance >= 0.0):
            raise FormatError(f"{path}:{lineno}: distance {row[2]!r} is not finite and non-negative")
        out.append((row[0], row[1], distance))
    return out


# -- ensemble summary files --------------------------------------------------

SUMMARY_HEADER = (
    ["sample_id", "class", "mean", "sd", "min"]
    + [f"d{k}" for k in range(10, 100, 10)]
    + ["max"]
)


def write_summaries(path, summaries: list) -> None:
    """Rows per sample per class, plus one excluded-count footer row per sample."""
    fh, w = _writer(path)
    with fh:
        w.writerow(SUMMARY_HEADER)
        for sid, s in summaries:
            for k in range(s.mean.size):
                w.writerow(
                    [sid, k, _fmt(s.mean[k]), _fmt(s.sd[k]), _fmt(s.minimum[k])]
                    + [_fmt(s.deciles[d, k]) for d in range(9)]
                    + [_fmt(s.maximum[k])]
                )
            w.writerow([sid, "excluded", s.n_excluded] + [""] * (len(SUMMARY_HEADER) - 3))


# -- correction reports: patch,method,pairwise_accuracy,multiclass_accuracy --

def write_report(path, rows: list, fits: list) -> None:
    """One row per (patch, method), then one ``# ols`` comment per fitted method.

    A fit whose slope is ``None`` is written as undefined.
    """
    fh, w = _writer(path)
    with fh:
        w.writerow(["patch", "method", "pairwise_accuracy", "multiclass_accuracy"])
        for patch, method, pair_acc, multi_acc in rows:
            w.writerow([patch, method, _fmt(pair_acc), _fmt(multi_acc)])
        for method, slope, intercept in fits:
            if slope is None:
                fh.write(f"# ols {method}: undefined (pairwise_accuracy has no spread)\n")
            else:
                fh.write(f"# ols {method}: slope={_fmt(slope)} intercept={_fmt(intercept)}\n")


# -- feature files: sample_id,x_0,...,x_{dim-1} ------------------------------

def write_features(path, sample_ids: list[str], features: np.ndarray) -> None:
    fh, w = _writer(path)
    with fh:
        w.writerow(["sample_id"] + [f"x_{d}" for d in range(features.shape[1])])
        for sid, x in zip(sample_ids, features):
            w.writerow([sid] + [_fmt(v) for v in x])


# -- confusion matrix files --------------------------------------------------

def write_confusion(path, counts: np.ndarray) -> None:
    fh, w = _writer(path)
    with fh:
        c = counts.shape[0]
        w.writerow(["true\\pred"] + list(range(c)))
        for i in range(c):
            w.writerow([i] + [int(x) for x in counts[i]])
