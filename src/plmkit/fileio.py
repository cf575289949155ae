"""CSV file formats shared by the CLI commands.

All files are UTF-8 with Unix newlines and ``.`` decimal separators, start
with a ``# plm-v1`` comment line, and re-parse under the same definitions.
Floats are written with 17 significant digits so round-trips are lossless.

Every format is a table: a header, a record dtype, a row template and its
own checks.  One reader parses any of them whole: one ``np.loadtxt`` call
converts every data line, the checks run as masks over all rows, and only
the first failing line's message is formatted.  One writer formats rows in
blocks, each with one ``%`` operation.  Comment lines are notes for people.
"""

from __future__ import annotations

import csv
import functools
import warnings
from itertools import islice

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


def _series(first: str, prefix: str, n: int) -> list[str]:
    """A header: one named column, then ``prefix`` + 0, ..., n - 1."""
    return [first, *(f"{prefix}{k}" for k in range(n))]


# -- reading: the rows of a table, parsed whole --------------------------------

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


def _columns(dtype: np.dtype) -> list[tuple[str, int | None, str]]:
    """(field name, index in a subarray field or None, kind) of each CSV column."""
    return [
        (name, m if dtype[name].shape else None, dtype[name].base.kind)
        for name in dtype.names
        for m in range(int(np.prod(dtype[name].shape)))
    ]


def _load(texts: list[str], dtype: np.dtype) -> np.ndarray:
    """Raises ValueError or DeprecationWarning where a line does not parse.

    Older numpy reads ``2.7`` or ``nan`` in an integer field as a float cast
    to int, with only a DeprecationWarning; made an error here, it rejects
    such a line on every numpy.
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

    ``dtype`` is structured, one column per CSV field: object columns hold
    strings, the others numbers.  A line without a double quote is split on
    commas, which is what CSV means there.  A line with one goes through the
    csv module on its own, so a quote never spans lines; if that gives the
    wrong field count, or a comma inside a number, the line ends the prefix.
    """
    columns = _columns(dtype)
    kinds = [kind for _, _, kind in columns]
    texts, quoted = lines, {}
    if '"' in "".join(lines):
        texts = list(lines)
        for k, line in enumerate(lines):
            if '"' in line:
                fields = _fields(line)
                numbers = [f for f, kind in zip(fields, kinds) if kind != "O"]
                if len(fields) != len(columns) or any("," in f for f in numbers):
                    del texts[k:]
                    break
                # strings may hold commas: parse them empty and put them back after
                texts[k] = ",".join("" if kind == "O" else f for f, kind in zip(fields, kinds))
                quoted[k] = fields
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
    for k, fields in quoted.items():
        for field, (name, m, kind) in zip(fields, columns):
            if kind == "O" and k < len(records):
                records[name][k if m is None else (k, m)] = field
    return records


def _unparsed(fields: list[str], dtype: np.dtype) -> str:
    """Why a line the bulk parse stopped at is not a row: its field count or a number."""
    columns = _columns(dtype)
    if len(fields) != len(columns):
        return f"expected {len(columns)} fields, got {len(fields)}"
    for text, (_, _, kind) in zip(fields, columns):
        try:
            {"i": int, "f": float}.get(kind, str)(text)
        except ValueError as exc:
            return str(exc)
    # int() and float() read these; np.loadtxt does not
    numbers = [text for text, (_, _, kind) in zip(fields, columns) if kind != "O"]
    return (
        f"cannot read numbers {numbers!r}: digit separators, non-ASCII digits "
        "and integers beyond 64 bits are not supported"
    )


def _first(mask: np.ndarray, default: int) -> int:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else default


def _repeated(*keys: np.ndarray) -> np.ndarray:
    """Mask of the rows whose tuple of keys appeared on an earlier row."""
    order = np.lexsort(keys[::-1])  # stable: equal keys keep their row order
    same = np.logical_and.reduce([np.diff(key[order]) == 0 for key in keys])
    out = np.zeros(order.size, dtype=bool)
    out[order[1:][same]] = True
    return out


def _repeated_ids(ids: list[str]) -> np.ndarray:
    """Mask of the rows whose sample_id appeared on an earlier row."""
    first: dict[str, int] = {}
    return np.array([first.setdefault(sid, k) != k for k, sid in enumerate(ids)], dtype=bool)


def _raise(path, *errors) -> None:
    """Raise for the earliest line among the (line, reason) errors that are
    not None; on one line, for the first listed."""
    found = [error for error in errors if error is not None]
    if found:
        raise FormatError("{}:{}: {}".format(path, *min(found, key=lambda error: error[0])))


class _Table:
    """Data rows of a table file: their line numbers, their text, and the
    records of the longest prefix of them that parses under ``dtype``."""

    def __init__(self, path, head: int, numbers: list[int], lines: list[str], dtype: np.dtype):
        self.path, self.head, self.numbers, self.lines = path, head, numbers, lines
        self.dtype = dtype

    @functools.cached_property
    def records(self) -> np.ndarray:
        # parsed on first use, so a reader can reject its header's columns first
        return _records(self.lines, self.dtype)

    def rows(self, mask: np.ndarray, dtype: np.dtype) -> _Table:
        """The rows picked by a mask over the records, parsed under ``dtype``."""
        picked = np.flatnonzero(mask).tolist()
        numbers, lines = [self.numbers[k] for k in picked], [self.lines[k] for k in picked]
        return _Table(self.path, self.head, numbers, lines, dtype)

    def error(self, *checks) -> tuple[int, str] | None:
        """(line, reason) of the first line that does not parse or fails a
        check: a mask over the records and a function from a row to the reason."""
        n = len(self.records)
        k = min((_first(mask, n) for mask, _ in checks), default=n)
        if k < n:
            return self.numbers[k], next(why(k) for mask, why in checks if mask[k])
        if k < len(self.lines):
            return self.numbers[k], _unparsed(_fields(self.lines[k]), self.dtype)
        return None

    def check(self, *checks) -> None:
        _raise(self.path, self.error(*checks))


def _read_table(path, header: str, dtype) -> _Table:
    """The data rows of a table file whose header row is ``header``.

    ``dtype`` is the rows' record dtype, or a function of the header's
    fields that returns it, or None where they are not the format's header.
    """
    numbers, lines = _lines(path)
    if not lines:
        raise FormatError(f"{path}: missing header row")
    fields = _fields(lines[0])
    dtype = dtype(fields) if callable(dtype) else (dtype if fields == header.split(",") else None)
    if dtype is None:
        raise FormatError(f"{path}:{numbers[0]}: expected header {header}")
    return _Table(path, numbers[0], numbers[1:], lines[1:], dtype)


def _vectors(name: str, n: int) -> np.dtype:
    return np.dtype([("sample_id", object), (name, np.float64, (n,))])


def _pair_check(i: np.ndarray, j: np.ndarray):
    return (i < 0) | (i >= j), lambda k: f"need 0 <= i < j, got ({i[k]},{j[k]})"


# -- writing: the rows of a table, formatted in blocks -------------------------

_BLOCK = 1 << 14  # numbers formatted at once, which bounds a writer's memory


def _quoted(texts, name: str = "sample_id") -> list[str]:
    """String fields as in a row template: quoted as the csv module quotes
    them and where a line would read as a comment, with ``%`` doubled.  A line
    break cannot be read back, so it is rejected before anything is written."""
    out = []
    for text in texts:
        if "\n" in text or "\r" in text:
            raise ValueError(f"{name} {text!r} contains a line break")
        if '"' in text or "," in text or text.lstrip().startswith("#"):
            text = '"' + text.replace('"', '""') + '"'
        out.append(text.replace("%", "%%"))
    return out


def _write_table(path, header: list[str], templates, values: np.ndarray, comments=()) -> None:
    """The format line, the header row, the rows, then the comment lines: the
    g-th template, %-formatted with the g-th row of ``values``, is the text of
    the g-th group of rows."""
    step = max(1, _BLOCK // max(1, values.shape[1]))
    templates = iter(templates)
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(f"# {FORMAT_VERSION}\n{','.join(header)}\n")
        for start in range(0, len(values), step):
            block = "".join(islice(templates, step))
            fh.write(block % tuple(values[start : start + step].ravel().tolist()))
        fh.writelines(comments)


def _write_vectors(path, prefix: str, ids: list[str], values: np.ndarray, comments=()) -> None:
    """One row per sample: its field, then its vector of the (N, n) ``values``."""
    row = ",%.17g" * values.shape[1] + "\n"
    header = _series("sample_id", prefix, values.shape[1])
    _write_table(path, header, (field + row for field in _quoted(ids)), values, comments)


# -- posterior files: sample_id,p_0,...,p_{c-1} ------------------------------

def write_posterior_stack(path, ids: list[str], probs: np.ndarray, failures=()) -> None:
    """One row per posterior of an (N, c) stack, then one ``# failed:`` comment
    per sample that failed."""
    _write_vectors(path, "p_", ids, probs, [f"# failed: {sid}: {msg}\n" for sid, msg in failures])


def write_posteriors(path, posteriors: list[tuple[str, Posterior]], failures=()) -> None:
    """Rows per posterior, then one ``# failed:`` comment per sample that failed."""
    probs = np.array([p.probs for _, p in posteriors]) if posteriors else np.zeros((0, 0))
    write_posterior_stack(path, [sid for sid, _ in posteriors], probs, failures)


def read_posterior_stack(path) -> tuple[list[str], np.ndarray]:
    """The sample_ids and the (N, c) stack of a posterior file.

    Every row must be a valid posterior and every sample_id unique.
    """
    table = _read_table(
        path, "sample_id,p_0,...",
        lambda header: _vectors("p", len(header) - 1) if header[:1] == ["sample_id"] else None,
    )  # fmt: skip
    if table.dtype["p"].shape[0] < 2 and table.lines:
        raise FormatError(f"{path}:{table.head}: need at least two probability columns")
    ids = table.records["sample_id"].tolist()
    probs = np.ascontiguousarray(table.records["p"])
    violations = posterior_violations(probs)
    invalid = np.zeros(len(ids), dtype=bool)
    invalid[list(violations)] = True
    table.check(
        (_repeated_ids(ids), lambda k: f"duplicate sample_id {ids[k]!r}"), (invalid, violations.get)
    )
    return ids, probs


def read_posteriors(path) -> list[tuple[str, Posterior]]:
    ids, probs = read_posterior_stack(path)
    return [(sid, Posterior(p)) for sid, p in zip(ids, probs)]


# -- pairwise long files: sample_id,i,j,r_ij with i < j ----------------------

_PAIR_DTYPE = np.dtype([("sample_id", object), ("i", "i8"), ("j", "i8"), ("r_ij", float)])


def write_pairwise_stack(path, ids: list[str], stack: np.ndarray) -> None:
    """One row per upper-triangle entry of each matrix of an (N, c, c) stack."""
    rows, cols = triu_index(stack.shape[-1])
    # a sample's rows: its field before each pair's suffix
    pairs = ["", *(f",{i},{j},%.17g\n" for i, j in zip(rows.tolist(), cols.tolist()))]
    templates = (field.join(pairs) for field in _quoted(ids))
    _write_table(path, list(_PAIR_DTYPE.names), templates, stack[:, rows, cols])


def write_pairwise(path, matrices: list[tuple[str, PairwiseLikelihoodMatrix]]) -> None:
    stack = np.array([m.entries for _, m in matrices]) if matrices else np.zeros((0, 2, 2))
    write_pairwise_stack(path, [sid for sid, _ in matrices], stack)


def read_pairwise_stack(path) -> tuple[list[str], np.ndarray]:
    """The sample_ids and the (N, c, c) stack of a pairwise file.

    The lower triangles are set to complements.  Every sample must list each
    pair of the class count of the first one exactly once.  A file with no
    rows gives an empty (0, 2, 2) stack.
    """
    table = _read_table(path, "sample_id,i,j,r_ij", _PAIR_DTYPE)
    ids = table.records["sample_id"].tolist()
    index = {sid: k for k, sid in enumerate(dict.fromkeys(ids))}  # in order of first row
    sample = np.fromiter(map(index.__getitem__, ids), np.int64, len(ids))
    i, j, r = table.records["i"], table.records["j"], table.records["r_ij"]
    table.check(
        _pair_check(i, j),
        (~((r >= 0.0) & (r <= 1.0)), lambda k: f"r_ij = {float(r[k])} outside [0, 1]"),
        (_repeated(sample, i, j), lambda k: f"duplicate pair ({i[k]},{j[k]}) for sample {ids[k]!r}"),
    )

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
            f"{path}:{table.numbers[ids.index(sid)]}: sample {sid!r} has c={c}, "
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

_LABEL_DTYPE = np.dtype([("sample_id", object), ("label", "i8")])


def write_labels(path, batch: LabeledBatch) -> None:
    ids, labels = zip(*batch.samples) if batch.samples else ((), ())
    templates = (field + ",%d\n" for field in _quoted(ids))
    _write_table(path, list(_LABEL_DTYPE.names), templates, np.array(labels, np.int64)[:, None])


def read_labels(path, c: int | None = None) -> LabeledBatch:
    """The samples of a label file; ``c`` defaults to the largest label plus one."""
    table = _read_table(path, "sample_id,label", _LABEL_DTYPE)
    table.check()
    labels = table.records["label"].tolist()
    if c is None:
        c = max(labels) + 1 if labels else 2
    try:
        return LabeledBatch(samples=tuple(zip(table.records["sample_id"].tolist(), labels)), c=c)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# -- patch files: i,j,prob_i -------------------------------------------------

def read_patch(path) -> list[tuple[int, int, float]]:
    """(i, j, prob_i) per row: distinct pairs 0 <= i < j, probabilities in [0, 1]."""
    table = _read_table(path, "i,j,prob_i", np.dtype([("i", "i8"), ("j", "i8"), ("prob_i", float)]))
    i, j, q = table.records["i"], table.records["j"], table.records["prob_i"]
    table.check(
        _pair_check(i, j),
        (~((q >= 0.0) & (q <= 1.0)), lambda k: f"prob_i = {float(q[k])} outside [0, 1]"),
        (_repeated(i, j), lambda k: f"duplicate pair ({i[k]},{j[k]})"),
    )
    return list(zip(i.tolist(), j.tolist(), q.tolist()))


# -- distance files: sample_id,method,distance -------------------------------

_DISTANCE_DTYPE = np.dtype([("sample_id", object), ("method", object), ("distance", float)])


def write_distance_stack(path, ids: list[str], methods: list[str], distances: np.ndarray) -> None:
    """One row per sample: its id, the method of its distance, the distance."""
    fields = zip(_quoted(ids), _quoted(methods, "method"))
    templates = (f"{field},{method},%.17g\n" for field, method in fields)
    _write_table(path, list(_DISTANCE_DTYPE.names), templates, np.reshape(distances, (-1, 1)))


def write_distances(path, scores: list) -> None:
    ids, methods = [s.sample_id for s in scores], [s.method.value for s in scores]
    write_distance_stack(path, ids, methods, np.array([s.distance for s in scores], float))


def read_distances(path) -> list[tuple[str, str, float]]:
    """(sample_id, method, distance) per row; every distance finite and non-negative."""
    table = _read_table(path, "sample_id,method,distance", _DISTANCE_DTYPE)
    d = table.records["distance"]
    why = "distance {!r} is not finite and non-negative".format
    table.check((~(np.isfinite(d) & (d >= 0.0)), lambda k: why(_fields(table.lines[k])[2])))
    return list(zip(*(table.records[name].tolist() for name in _DISTANCE_DTYPE.names)))


# -- ensemble summary files --------------------------------------------------

SUMMARY_HEADER = (
    ["sample_id", "class", "mean", "sd", "min"]
    + [f"d{k}" for k in range(10, 100, 10)]
    + ["max"]
)
_STATS = len(SUMMARY_HEADER) - 2  # mean, sd, min, nine deciles, max
# a row read as text, a class row, a footer row
_SUMMARY_TEXT = np.dtype([("sample_id", object), ("class", object), ("stats", object, (_STATS,))])
_SUMMARY_CLASS = np.dtype([("sample_id", object), ("class", "i8"), ("stats", float, (_STATS,))])
_SUMMARY_FOOTER = np.dtype(
    [("sample_id", object), ("class", object), ("excluded", "i8"), ("empty", object, (_STATS - 1,))]
)


def write_summary_stack(path, ids: list[str], stats: np.ndarray, excluded: np.ndarray) -> None:
    """Rows per sample per class, plus one excluded-count footer row per sample.

    ``stats`` is (N, 13, c): per sample, the statistics of the header's
    columns from ``mean`` to ``max`` for each class; ``excluded`` is (N,).
    """
    c = stats.shape[2]
    # a sample's rows: its field before each class row's suffix and the footer's
    rows = ["", *(f",{k}" + ",%.17g" * _STATS + "\n" for k in range(c))]
    footer = ",excluded,{}" + "," * (_STATS - 1) + "\n"
    templates = (
        field.join([*rows, footer.format(n)]) for field, n in zip(_quoted(ids), excluded.tolist())
    )
    values = np.swapaxes(stats, 1, 2).reshape(len(stats), c * _STATS)
    _write_table(path, SUMMARY_HEADER, templates, values)


def write_summaries(path, summaries: list) -> None:
    """Rows per sample per class, plus one excluded-count footer row per sample."""
    stats = [np.vstack([s.mean, s.sd, s.minimum, s.deciles, s.maximum]) for _, s in summaries]
    excluded = np.array([s.n_excluded for _, s in summaries], dtype=np.int64)
    stats = np.array(stats) if stats else np.zeros((0, _STATS, 0))
    write_summary_stack(path, [sid for sid, _ in summaries], stats, excluded)


def read_summary_stack(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The sample_ids, (N, 13, c) statistics and (N,) excluded counts of a
    summary file: the inverse of ``write_summary_stack``.

    A sample is c class rows, classes 0 to c - 1 in order, then its
    ``excluded`` footer row; c is the count of the first sample's class
    rows.  A file with no rows gives (0, 13, 0) statistics.
    """
    table = _read_table(path, ",".join(SUMMARY_HEADER), _SUMMARY_TEXT)
    sid, footer = table.records["sample_id"], table.records["class"] == "excluded"
    rows, feet = table.rows(~footer, _SUMMARY_CLASS), table.rows(footer, _SUMMARY_FOOTER)
    n, c = len(sid), _first(footer | (sid != sid[:1]), len(sid))
    slot = np.arange(n) % (c + 1)  # a row's place in its sample: class k, or c for the footer
    place = np.full(n, c)
    place[np.flatnonzero(~footer)[: len(rows.records)]] = rows.records["class"]
    counts, empty = feet.records["excluded"], feet.records["empty"]

    def expected(k):
        s = k % (c + 1)
        return f"expected {'the excluded row' if s == c else f'class {s}'} of sample {sid[k - s]!r}"

    _raise(
        path,
        rows.error(),
        feet.error(
            (counts < 0, lambda k: f"excluded count {counts[k]} is not a non-negative integer"),
            ((empty != "").any(axis=1), lambda k: "expected empty fields after the excluded count"),
        ),
        table.error(
            ((place != slot) | (sid != sid[np.arange(n) - slot]), expected),
            (_repeated_ids(list(sid)) & (slot == 0), lambda k: f"duplicate sample_id {sid[k]!r}"),
        ),
        (table.numbers[-1], expected(n)) if n % (c + 1) else None,
    )
    stats = rows.records["stats"].reshape(n // (c + 1), c, _STATS)
    return sid[:: c + 1].tolist(), np.ascontiguousarray(np.swapaxes(stats, 1, 2)), counts.copy()


# -- correction reports: patch,method,pairwise_accuracy,multiclass_accuracy --

_REPORT_DTYPE = np.dtype([
    ("patch", object), ("method", object),
    ("pairwise_accuracy", float), ("multiclass_accuracy", float),
])  # fmt: skip


def write_report(path, rows: list, fits: list) -> None:
    """One row per (patch, method), then one ``# ols`` comment per fitted method.

    A fit whose slope is ``None`` is written as undefined.
    """
    patches, methods = [row[0] for row in rows], [row[1] for row in rows]
    fields = zip(_quoted(patches, "patch"), _quoted(methods, "method"))
    templates = (f"{patch},{method},%.17g,%.17g\n" for patch, method in fields)
    values = np.array([row[2:] for row in rows], dtype=np.float64).reshape(-1, 2)
    ols = [
        f"# ols {method}: undefined (pairwise_accuracy has no spread)\n"
        if slope is None
        else f"# ols {method}: slope={slope:.17g} intercept={intercept:.17g}\n"
        for method, slope, intercept in fits
    ]
    _write_table(path, list(_REPORT_DTYPE.names), templates, values, ols)


def read_report(path) -> list[tuple[str, str, float, float]]:
    """(patch, method, pairwise_accuracy, multiclass_accuracy) per row."""
    table = _read_table(path, ",".join(_REPORT_DTYPE.names), _REPORT_DTYPE)
    table.check()
    return list(zip(*(table.records[name].tolist() for name in _REPORT_DTYPE.names)))


# -- feature files: sample_id,x_0,...,x_{dim-1} ------------------------------

def write_features(path, sample_ids: list[str], features: np.ndarray) -> None:
    _write_vectors(path, "x_", sample_ids, features)


def read_features(path) -> tuple[list[str], np.ndarray]:
    """The sample_ids and the (N, dim) features of a feature file; sample_ids are unique."""
    table = _read_table(
        path, "sample_id,x_0,...",
        lambda header: _vectors("x", len(header) - 1)
        if len(header) > 1 and header == _series("sample_id", "x_", len(header) - 1) else None,
    )  # fmt: skip
    ids = table.records["sample_id"].tolist()
    table.check((_repeated_ids(ids), lambda k: f"duplicate sample_id {ids[k]!r}"))
    return ids, np.ascontiguousarray(table.records["x"])


# -- confusion matrix files: true\pred,0,...,c-1 -----------------------------

def write_confusion(path, counts: np.ndarray) -> None:
    """Row i counts the samples of true class i by predicted class."""
    c = counts.shape[0]
    templates = (f"{i}" + ",%d" * c + "\n" for i in range(c))
    _write_table(path, _series("true\\pred", "", c), templates, np.asarray(counts, np.int64))


def read_confusion(path) -> np.ndarray:
    """The (c, c) counts of a confusion-matrix file; row i is true class i."""
    table = _read_table(
        path, "true\\pred,0,...",
        lambda header: np.dtype([("true", np.int64), ("counts", np.int64, (len(header) - 1,))])
        if header == _series("true\\pred", "", len(header) - 1) else None,
    )  # fmt: skip
    true, counts = table.records["true"], table.records["counts"]
    c, row = counts.shape[1], np.arange(len(true))
    table.check(
        (row >= c, lambda k: f"more than {c} rows"),
        (true != row, lambda k: f"expected row {k}, got row {true[k]}"),
        ((counts < 0).any(axis=1), lambda k: "counts must be non-negative"),
    )
    if len(true) < c:
        line = table.numbers[-1] if table.numbers else table.head
        raise FormatError(f"{path}:{line}: expected {c} rows, got {len(true)}")
    return np.ascontiguousarray(counts)
