"""CSV file formats shared by the CLI commands.

All files are UTF-8 with Unix newlines and ``.`` decimal separators, start
with a ``# plm-v1`` comment line, and re-parse under the same definitions.
Floats are written with 17 significant digits so round-trips are lossless.

The two bulk formats, pairwise and posterior files, are read and written
whole, straight to and from arrays: the numbers of every data line are
converted in one ``np.loadtxt`` call, the checks run as masks over all rows,
and an error message is formatted only for the first failing line.
"""

from __future__ import annotations

import csv
import io
import warnings

import numpy as np

from .core import (
    LabeledBatch,
    PairwiseLikelihoodMatrix,
    PlmError,
    Posterior,
    from_upper,
    posterior_violations,
    triu_index,
)

FORMAT_VERSION = "plm-v1"


class FormatError(PlmError):
    """Malformed input file; message carries the offending line number."""


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _lines(path) -> tuple[list[int], list[str]]:
    """The lines that are neither blank nor comments, with their 1-based numbers.

    A comment is a line whose stripped text starts with ``#``; a ``#``
    anywhere else is data.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.readlines()
    numbers = [n for n, line in enumerate(lines, 1) if (s := line.strip()) and s[0] != "#"]
    return numbers, [lines[n - 1] for n in numbers]


def _fields(line: str) -> list[str]:
    """The CSV fields of a single line; a quote never continues onto the next line."""
    return next(csv.reader([line]))


def _rows(path) -> list[tuple[int, list[str]]]:
    """Parsed CSV rows with 1-based line numbers, comments and blanks skipped."""
    return [(n, _fields(line)) for n, line in zip(*_lines(path))]


def _header(path, lines: list[str]) -> list[str]:
    if not lines:
        raise FormatError(f"{path}: missing header row")
    return _fields(lines[0])


def _writer(path):
    fh = open(path, "w", newline="\n", encoding="utf-8")
    fh.write(f"# {FORMAT_VERSION}\n")
    return fh, csv.writer(fh, lineterminator="\n")


def _id_field(sid: str) -> str:
    """A sample_id as written in the first field of a row.

    Quoted as the csv module quotes it, and also when it would make its line
    read as a comment.  A line break cannot be read back, so it is rejected.
    """
    if "\n" in sid or "\r" in sid:
        raise ValueError(f"sample_id {sid!r} contains a line break")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([sid, ""])
    field = buf.getvalue()[:-2]
    if field.lstrip().startswith("#"):
        field = '"' + sid.replace('"', '""') + '"'
    return field


# -- bulk parsing: sample_id, then numbers -------------------------------------

def _load(texts: list[str], dtype: np.dtype) -> np.ndarray:
    """Raises ValueError or DeprecationWarning where a line does not parse.

    Older numpy releases read a non-integer in an integer field, such as
    ``2.7`` or ``nan``, as a float cast to int and say so only with a
    DeprecationWarning; here that warning is an error, so such a line is
    rejected on every numpy.
    """
    if not texts:
        return np.zeros(0, dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(
            texts, dtype=dtype, delimiter=",", comments=None, quotechar=None, ndmin=1
        )


def _records(lines: list[str], dtype: np.dtype) -> np.ndarray:
    """One record per line, for the longest prefix of ``lines`` that parses.

    ``dtype`` is structured: an object ``sample_id`` field, then numbers.  A
    line without a double quote is split on commas, which is what CSV means
    there.  A line with one goes through the csv module on its own, so a
    quote never spans lines; if that leaves no number field, or a comma
    inside one, the line ends the prefix.
    """
    texts, quoted = lines, {}
    if '"' in "".join(lines):
        texts = list(lines)
        for k, line in enumerate(lines):
            if '"' in line:
                fields = _fields(line)
                if len(fields) < 2 or any("," in field for field in fields[1:]):
                    del texts[k:]
                    break
                # the id may hold commas: parse an empty one and put it back after
                texts[k] = ",".join(["", *fields[1:]])
                quoted[k] = fields[0]
    try:
        records = _load(texts, dtype)
    except (ValueError, DeprecationWarning):
        good, bad = 0, len(texts)  # texts[:good] parse, texts[:bad] do not
        while bad - good > 1:
            mid = (good + bad) // 2
            try:
                _load(texts[:mid], dtype)
                good = mid
            except (ValueError, DeprecationWarning):
                bad = mid
        records = _load(texts[:good], dtype)
    for k, sid in quoted.items():
        if k < len(records):
            records["sample_id"][k] = sid
    return records


def _unparsed(fields: list[str], converters) -> str:
    """Why a line the bulk parse stopped at is not a row: its field count or a number."""
    if len(fields) != len(converters) + 1:
        return f"expected {len(converters) + 1} fields, got {len(fields)}"
    for convert, text in zip(converters, fields[1:]):
        try:
            convert(text)
        except ValueError as exc:
            return str(exc)
    # int() and float() read these; np.loadtxt does not
    return (
        f"cannot read numbers {fields[1:]!r}: digit separators, non-ASCII digits "
        "and integers beyond 64 bits are not supported"
    )


def _first(mask: np.ndarray, default: int) -> int:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else default


# -- posterior files: sample_id,p_0,...,p_{c-1} ------------------------------

def write_posterior_stack(path, ids: list[str], probs: np.ndarray, failures=()) -> None:
    """One row per posterior of an (N, c) stack, then one ``# failed:`` comment
    per sample that failed."""
    fields = [_id_field(sid) for sid in ids]
    fh, w = _writer(path)
    with fh:
        c = probs.shape[1]
        w.writerow(["sample_id"] + [f"p_{k}" for k in range(c)])
        row = "{}" + ",{:.17g}" * c + "\n"
        fh.writelines(row.format(field, *p) for field, p in zip(fields, probs.tolist()))
        for sid, msg in failures:
            fh.write(f"# failed: {sid}: {msg}\n")


def write_posteriors(path, posteriors: list[tuple[str, Posterior]], failures=()) -> None:
    """Rows per posterior, then one ``# failed:`` comment per sample that failed."""
    probs = np.array([p.probs for _, p in posteriors]) if posteriors else np.zeros((0, 0))
    write_posterior_stack(path, [sid for sid, _ in posteriors], probs, failures)


def read_posterior_stack(path) -> tuple[list[str], np.ndarray]:
    """The sample_ids and the (N, c) stack of a posterior file.

    Every row must be a valid posterior and every sample_id unique.
    """
    numbers, lines = _lines(path)
    header = _header(path, lines)
    if header[:1] != ["sample_id"]:
        raise FormatError(f"{path}:{numbers[0]}: expected header sample_id,p_0,...")
    c = len(header) - 1
    if c < 2 and len(lines) > 1:
        raise FormatError(f"{path}:{numbers[0]}: need at least two probability columns")
    numbers, lines = numbers[1:], lines[1:]
    records = _records(lines, np.dtype([("sample_id", object), ("p", np.float64, (c,))]))
    ids = records["sample_id"].tolist()
    probs = np.ascontiguousarray(records["p"])
    seen: dict[str, int] = {}
    repeat = next((k for k, sid in enumerate(ids) if seen.setdefault(sid, k) != k), len(ids))
    violations = posterior_violations(probs)
    k = min(repeat, len(ids), *violations)  # the first bad line, if any
    if k == len(lines):
        return ids, probs
    if k < len(ids):
        reason = f"duplicate sample_id {ids[k]!r}" if k == repeat else violations[k]
    else:
        fields = _fields(lines[k])
        if len(fields) == c + 1 and fields[0] in seen:
            reason = f"duplicate sample_id {fields[0]!r}"
        else:
            reason = _unparsed(fields, [float] * c)
    raise FormatError(f"{path}:{numbers[k]}: {reason}")


def read_posteriors(path) -> list[tuple[str, Posterior]]:
    ids, probs = read_posterior_stack(path)
    return [(sid, Posterior(p)) for sid, p in zip(ids, probs)]


# -- pairwise long files: sample_id,i,j,r_ij with i < j ----------------------

_PAIR_DTYPE = np.dtype(
    [("sample_id", object), ("i", np.int64), ("j", np.int64), ("r_ij", np.float64)]
)


def write_pairwise_stack(path, ids: list[str], stack: np.ndarray) -> None:
    """One row per upper-triangle entry of each matrix of an (N, c, c) stack."""
    rows, cols = triu_index(stack.shape[-1])
    pairs = [f",{i},{j}," for i, j in zip(rows.tolist(), cols.tolist())]
    cells = iter(stack[:, rows, cols].ravel().tolist())
    fields = [_id_field(sid) for sid in ids]
    fh, w = _writer(path)
    with fh:
        w.writerow(["sample_id", "i", "j", "r_ij"])
        fh.writelines(f"{field}{pair}{next(cells):.17g}\n" for field in fields for pair in pairs)


def write_pairwise(path, matrices: list[tuple[str, PairwiseLikelihoodMatrix]]) -> None:
    stack = np.array([m.entries for _, m in matrices]) if matrices else np.zeros((0, 2, 2))
    write_pairwise_stack(path, [sid for sid, _ in matrices], stack)


def _repeated(*keys: np.ndarray) -> np.ndarray:
    """Mask of the rows whose tuple of keys appeared on an earlier row."""
    order = np.lexsort(keys[::-1])  # stable: equal keys keep their row order
    same = np.logical_and.reduce([np.diff(key[order]) == 0 for key in keys])
    out = np.zeros(order.size, dtype=bool)
    out[order[1:][same]] = True
    return out


def read_pairwise_stack(path) -> tuple[list[str], np.ndarray]:
    """The sample_ids and the (N, c, c) stack of a pairwise file.

    The lower triangles are set to complements.  Every sample must list each
    pair of the class count of the first one exactly once.  A file with no
    rows gives an empty (0, 2, 2) stack.
    """
    numbers, lines = _lines(path)
    if _header(path, lines) != ["sample_id", "i", "j", "r_ij"]:
        raise FormatError(f"{path}:{numbers[0]}: expected header sample_id,i,j,r_ij")
    numbers, lines = numbers[1:], lines[1:]
    records = _records(lines, _PAIR_DTYPE)
    ids = records["sample_id"].tolist()
    index = {sid: k for k, sid in enumerate(dict.fromkeys(ids))}  # in order of first row
    sample = np.fromiter(map(index.__getitem__, ids), np.int64, len(ids))
    i, j, r = records["i"], records["j"], records["r_ij"]
    ij_bad = (i < 0) | (i >= j)
    r_bad = ~((r >= 0.0) & (r <= 1.0))
    k = _first(ij_bad | r_bad | _repeated(sample, i, j), len(ids))  # the first bad line, if any
    if k < len(lines):
        if k == len(ids):
            reason = _unparsed(_fields(lines[k]), [int, int, float])
        elif ij_bad[k]:
            reason = f"need 0 <= i < j, got ({i[k]},{j[k]})"
        elif r_bad[k]:
            reason = f"r_ij = {float(r[k])} outside [0, 1]"
        else:
            reason = f"duplicate pair ({i[k]},{j[k]}) for sample {ids[k]!r}"
        raise FormatError(f"{path}:{numbers[k]}: {reason}")

    # every row is a distinct pair 0 <= i < j, so a sample is complete when
    # it has c(c-1)/2 rows for c = max j + 1 (exact in floats wherever a file
    # could have that many rows)
    top = np.zeros(len(index), dtype=np.int64)
    np.maximum.at(top, sample, j)
    complete = np.bincount(sample, minlength=len(index)) == top * (top + 1.0) / 2
    s = _first(~complete | (top != top[:1]), len(index))
    if s < len(index):
        sid, c = list(index)[s], int(top[s]) + 1
        if not complete[s]:
            raise FormatError(f"{path}: sample {sid!r} has incomplete pair set for c={c}")
        raise FormatError(
            f"{path}:{numbers[ids.index(sid)]}: sample {sid!r} has c={c}, "
            f"but the first sample has c={int(top[0]) + 1}"
        )
    c = int(top[0]) + 1 if len(index) else 2
    upper = np.zeros((len(index), c * (c - 1) // 2))
    upper[sample, i * (2 * c - i - 1) // 2 + (j - i - 1)] = r
    return list(index), from_upper(upper, c)


def read_pairwise(path) -> list[tuple[str, PairwiseLikelihoodMatrix]]:
    """Reassemble full matrices; the lower triangle is set to complements.

    Every sample must have the class count of the first one, so a file is
    one (N, c, c) stack.
    """
    ids, stack = read_pairwise_stack(path)
    return [(sid, PairwiseLikelihoodMatrix(m)) for sid, m in zip(ids, stack)]


# -- label files: sample_id,label --------------------------------------------

def write_labels(path, batch: LabeledBatch) -> None:
    fields = [_id_field(sid) for sid, _ in batch.samples]
    fh, w = _writer(path)
    with fh:
        w.writerow(["sample_id", "label"])
        fh.writelines(f"{field},{label}\n" for field, (_, label) in zip(fields, batch.samples))


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
    fields = [_id_field(s.sample_id) for s in scores]
    fh, w = _writer(path)
    with fh:
        w.writerow(["sample_id", "method", "distance"])
        for field, s in zip(fields, scores):
            fh.write(f"{field},{s.method.value},{_fmt(s.distance)}\n")


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


def write_summary_stack(path, ids: list[str], stats: np.ndarray, excluded: np.ndarray) -> None:
    """Rows per sample per class, plus one excluded-count footer row per sample.

    ``stats`` is (N, 13, c): per sample, the statistics of the header's
    columns from ``mean`` to ``max`` for each class; ``excluded`` is (N,).
    """
    fields = [_id_field(sid) for sid in ids]
    row = "{},{}" + ",{:.17g}" * (len(SUMMARY_HEADER) - 2) + "\n"
    footer = "{},excluded,{}" + "," * (len(SUMMARY_HEADER) - 3) + "\n"
    values = np.swapaxes(stats, 1, 2).tolist()
    fh, w = _writer(path)
    with fh:
        w.writerow(SUMMARY_HEADER)
        for field, sample, n_excluded in zip(fields, values, excluded.tolist()):
            fh.writelines(row.format(field, k, *v) for k, v in enumerate(sample))
            fh.write(footer.format(field, n_excluded))


def write_summaries(path, summaries: list) -> None:
    """Rows per sample per class, plus one excluded-count footer row per sample."""
    stats = [np.vstack([s.mean, s.sd, s.minimum, s.deciles, s.maximum]) for _, s in summaries]
    excluded = np.array([s.n_excluded for _, s in summaries], dtype=np.int64)
    stats = np.array(stats) if stats else np.zeros((0, len(SUMMARY_HEADER) - 2, 0))
    write_summary_stack(path, [sid for sid, _ in summaries], stats, excluded)


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
    fields = [_id_field(sid) for sid in sample_ids]
    fh, w = _writer(path)
    with fh:
        w.writerow(["sample_id"] + [f"x_{d}" for d in range(features.shape[1])])
        row = "{}" + ",{:.17g}" * features.shape[1] + "\n"
        fh.writelines(row.format(field, *x) for field, x in zip(fields, features.tolist()))


# -- confusion matrix files --------------------------------------------------

def write_confusion(path, counts: np.ndarray) -> None:
    fh, w = _writer(path)
    with fh:
        c = counts.shape[0]
        w.writerow(["true\\pred"] + list(range(c)))
        for i in range(c):
            w.writerow([i] + [int(x) for x in counts[i]])
