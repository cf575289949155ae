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

import warnings
from itertools import islice

import numpy as np

from . import core
from .core import LabeledBatch, PlmError, from_upper, posterior_violations, triu_index

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
    anywhere else is data.  A line ends at ``\n``, ``\r`` or ``\r\n``, so
    none holds a line break before its end.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.readlines()
    numbers = [n for n, line in enumerate(lines, 1) if (s := line.strip()) and s[0] != "#"]
    return numbers, [lines[n - 1] for n in numbers]


def _load(texts: list[str], dtype: np.dtype) -> np.ndarray:
    """One row per line of ``texts``: a record under a structured ``dtype``, the
    line's fields under a plain one; raises ValueError or DeprecationWarning
    where a line does not parse.

    numpy reads a quoted field as the csv module does, with no limit on its
    length, but a quote left open at a line's end runs on into the next line
    and joins the two into one row; the row count makes that an error too.
    Older numpy reads ``2.7`` or ``nan`` in an integer field as a float cast
    to int, with only a DeprecationWarning; made an error here, it rejects
    such a line on every numpy.  One line of ``_lines`` always splits into
    its fields under ``object``.
    """
    if not texts:
        return np.zeros(0, dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        rows = np.loadtxt(texts, dtype=dtype, delimiter=",", comments=None, quotechar='"', ndmin=2)
    if len(rows) != len(texts):
        raise ValueError("a quote left open at a line's end joined lines")
    return rows[:, 0] if dtype.names else rows  # a record array comes back as one column


def _records(lines: list[str], dtype: np.dtype) -> np.ndarray:
    """One record per line, for the longest prefix of ``lines`` that parses
    with each quote closed on its own line.

    ``dtype`` is structured, one column per CSV field: object columns hold
    strings, the others numbers.  Where the lines do not parse at once, a
    bisection finds the longest prefix that does.  The line after it either
    fails alone and ends the records, or follows a line that left a quote
    open, which the prefix's end closed as the line's end would; then the
    records go on from it, and the search for their end gallops from one
    line (1, 2, 4, ... lines, then a bisection inside the last step).  A
    restart thus costs what its own lines cost, and n lines that each leave
    a quote open pass O(n log n) lines to ``np.loadtxt``.
    """
    parts, start, size = [], 0, len(lines)
    while True:
        n = len(lines) - start
        good, bad, part = 0, n + 1, _load([], dtype)  # the next good lines parse, the next bad do not
        while bad - good > 1:
            try:
                part, good = _load(lines[start : start + size], dtype), size
            except (ValueError, DeprecationWarning):
                bad = size
            size = min(2 * good, n) if bad > n else (good + bad) // 2  # gallop until a prefix fails
        parts.append(part)
        if good in (0, n):
            return np.concatenate(parts) if len(parts) > 1 else part
        start, size = start + good, 1


def _unparsed(line: str, dtype: np.dtype) -> str:
    """Why a line the bulk parse stopped at is not a row: its field count or a number."""
    fields = _load([line], np.dtype(object))[0].tolist()
    # the kind of each CSV column: a subarray field has one per entry
    kinds = [dtype[n].base.kind for n in dtype.names for _ in range(int(np.prod(dtype[n].shape)))]
    if len(fields) != len(kinds):
        return f"expected {len(kinds)} fields, got {len(fields)}"
    for text, kind in zip(fields, kinds):
        try:
            {"i": int, "f": float}.get(kind, str)(text)
        except ValueError as exc:
            return str(exc)
    # int() and float() read these; np.loadtxt does not
    numbers = [text for text, kind in zip(fields, kinds) if kind != "O"]
    return (
        f"cannot read numbers {numbers!r}: digit separators, non-ASCII digits "
        "and integers beyond 64 bits are not supported"
    )


def _first(mask: np.ndarray, default: int) -> int:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else default


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
        self.dtype, self.records = dtype, _records(lines, dtype)

    def rows(self, mask: np.ndarray, dtype: np.dtype) -> _Table:
        """The rows picked by a mask over the records, parsed under ``dtype``."""
        picked = np.flatnonzero(mask).tolist()
        numbers, lines = [self.numbers[k] for k in picked], [self.lines[k] for k in picked]
        return _Table(self.path, self.head, numbers, lines, dtype)

    def error(self, *checks) -> tuple[int, str] | None:
        """(line, reason) of the first line that does not parse or fails a
        check: a mask over the records and a function from a row to the reason."""
        found = core.first_violation(*checks)
        if found is not None:
            return self.numbers[found[0]], found[1]
        n = len(self.records)
        if n < len(self.lines):
            return self.numbers[n], _unparsed(self.lines[n], self.dtype)
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
    fields = _load(lines[:1], np.dtype(object))[0].tolist()
    dtype = dtype(fields) if callable(dtype) else (dtype if fields == header.split(",") else None)
    if dtype is None:
        raise FormatError(f"{path}:{numbers[0]}: expected header {header}")
    return _Table(path, numbers[0], numbers[1:], lines[1:], dtype)


# -- writing: the rows of a table, formatted in blocks -------------------------

_BLOCK = 1 << 14  # numbers formatted at once, which bounds a writer's memory


def _one_line(text: str, name: str) -> str:
    """``text``, which must hold no line break: the readers split files into
    lines, so its tail would read as a row.  Raised before anything is written."""
    if "\n" in text or "\r" in text:
        raise ValueError(f"{name} {text!r} contains a line break")
    return text


def _quoted(texts, name: str = "sample_id") -> list[str]:
    """String fields as in a row template: quoted as the csv module quotes
    them and where a line would read as a comment, with ``%`` doubled."""
    out = []
    for text in texts:
        _one_line(text, name)
        if '"' in text or "," in text or text.lstrip().startswith("#"):
            text = '"' + text.replace('"', '""') + '"'
        out.append(text.replace("%", "%%"))
    return out


def _write_table(path, header: list[str], templates, values: np.ndarray, comments=()) -> None:
    """The format line, the header row, the rows, then one ``# `` line per
    comment text: the g-th template, %-formatted with the g-th row of
    ``values``, is the text of the g-th group of rows."""
    comments = [f"# {_one_line(text, 'comment')}\n" for text in comments]
    step = max(1, _BLOCK // max(1, values.shape[1]))
    templates = iter(templates)
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(f"# {FORMAT_VERSION}\n{','.join(header)}\n")
        for start in range(0, len(values), step):
            block = "".join(islice(templates, step))
            fh.write(block % tuple(values[start : start + step].ravel().tolist()))
        fh.writelines(comments)


def failure_lines(failures) -> list[str]:
    """The ``failed: <id>: <message>`` text of each failure, in files and on stderr."""
    return [f"failed: {sid}: {msg}" for sid, msg in failures]


def _write_vectors(path, prefix: str, ids: list[str], values: np.ndarray, comments=()) -> None:
    """One row per sample: its field, then its vector of the (N, n) ``values``."""
    row = ",%.17g" * values.shape[1] + "\n"
    header = _series("sample_id", prefix, values.shape[1])
    _write_table(path, header, (field + row for field in _quoted(ids)), values, comments)


def _read_vectors(path, prefix: str, one_column=None, check=None) -> tuple[list[str], np.ndarray]:
    """The sample_ids and (N, n) vectors, n >= 1, of a file in ``_write_vectors``'s
    layout; ``one_column`` is why a file with rows and n = 1 is rejected.  Every
    sample_id is unique, and ``check`` maps the vectors to each bad row's reason."""
    table = _read_table(
        path, f"sample_id,{prefix}0,...",
        lambda header: np.dtype([("sample_id", object), ("v", np.float64, (len(header) - 1,))])
        if len(header) > 1 and header == _series("sample_id", prefix, len(header) - 1) else None,
    )  # fmt: skip
    if one_column and table.dtype["v"].shape[0] == 1 and table.lines:
        raise FormatError(f"{path}:{table.head}: {one_column}")
    ids = table.records["sample_id"].tolist()
    values = np.ascontiguousarray(table.records["v"])
    reasons = check(values) if check else {}
    invalid = np.zeros(len(ids), dtype=bool)
    invalid[list(reasons)] = True
    table.check(core.unique_ids(ids), (invalid, reasons.get))
    return ids, values


# -- posterior files: sample_id,p_0,...,p_{c-1} ------------------------------

def write_posterior_stack(path, ids: list[str], probs: np.ndarray, failures=()) -> None:
    """One row per posterior of an (N, c) stack, then one ``# failed:`` comment
    per sample that failed."""
    _write_vectors(path, "p_", ids, probs, failure_lines(failures))


def read_posterior_stack(path) -> tuple[list[str], np.ndarray]:
    """The sample_ids and the (N, c) stack of a posterior file.

    Every row must be a valid posterior and every sample_id unique.
    """
    return _read_vectors(path, "p_", "need at least two probability columns", posterior_violations)


# -- pairwise long files: sample_id,i,j,r_ij with i < j ----------------------

_PAIR_DTYPE = np.dtype([("sample_id", object), ("i", "i8"), ("j", "i8"), ("r_ij", float)])


def write_pairwise_stack(path, ids: list[str], stack: np.ndarray, failures=()) -> None:
    """One row per upper-triangle entry of each matrix of an (N, c, c) stack,
    then one ``# failed:`` comment per sample that failed."""
    rows, cols = triu_index(stack.shape[-1])
    # a sample's rows: its field before each pair's suffix
    pairs = ["", *(f",{i},{j},%.17g\n" for i, j in zip(rows.tolist(), cols.tolist()))]
    templates = (field.join(pairs) for field in _quoted(ids))
    header, values = list(_PAIR_DTYPE.names), stack[:, rows, cols]
    _write_table(path, header, templates, values, failure_lines(failures))


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
    table.check(*core.pair_checks(i, j, r, "r_ij", sample, ids))

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


# -- label files: sample_id,label --------------------------------------------

_LABEL_DTYPE = np.dtype([("sample_id", object), ("label", "i8")])


def write_labels(path, batch: LabeledBatch) -> None:
    ids, labels = zip(*batch.samples) if batch.samples else ((), ())
    templates = (field + ",%d\n" for field in _quoted(ids))
    _write_table(path, list(_LABEL_DTYPE.names), templates, np.array(labels, np.int64)[:, None])


def read_labels(path, c: int | None = None) -> LabeledBatch:
    """The samples of a label file: unique sample_ids, labels in [0, c), where
    ``c`` defaults to the largest label plus one."""
    table = _read_table(path, "sample_id,label", _LABEL_DTYPE)
    ids, labels = table.records["sample_id"].tolist(), table.records["label"]
    if c is None:
        c = int(labels.max()) + 1 if labels.size else 2
    table.check(core.unique_ids(ids), core.class_range(ids, labels, c))
    return LabeledBatch(samples=tuple(zip(ids, labels.tolist())), c=c)


# -- patch files: i,j,prob_i -------------------------------------------------

def read_patch(path, c: int | None = None) -> list[tuple[int, int, float]]:
    """(i, j, prob_i) per row: the rows of a valid ``CorrectionPatch``, whose
    pairs name classes below ``c`` if it is given.  As in the library, the
    rows are checked as a patch first and against ``c`` after."""
    table = _read_table(path, "i,j,prob_i", np.dtype([("i", "i8"), ("j", "i8"), ("prob_i", float)]))
    i, j, q = table.records["i"], table.records["j"], table.records["prob_i"]
    table.check(*core.pair_checks(i, j, q, "prob_i"))
    if c is not None:
        table.check(core.class_bound(i, j, c))
    return list(zip(i.tolist(), j.tolist(), q.tolist()))


# -- distance files: sample_id,method,distance -------------------------------

_DISTANCE_DTYPE = np.dtype([("sample_id", object), ("method", object), ("distance", float)])


def write_distance_stack(path, ids: list[str], methods: list[str], distances: np.ndarray) -> None:
    """One row per sample: its id, the method of its distance, the distance."""
    fields = zip(_quoted(ids), _quoted(methods, "method"))
    templates = (f"{field},{method},%.17g\n" for field, method in fields)
    _write_table(path, list(_DISTANCE_DTYPE.names), templates, np.reshape(distances, (-1, 1)))


def read_distance_stack(path) -> tuple[list[str], list[str], np.ndarray]:
    """The sample_ids, methods and (N,) distances of a distance file: the inverse
    of ``write_distance_stack``.  Every distance is finite and non-negative."""
    table = _read_table(path, "sample_id,method,distance", _DISTANCE_DTYPE)
    d = table.records["distance"]
    # a reason quotes the distance as written: the line's last field
    table.check(core.distance_range(d, lambda k: table.lines[k].rstrip("\r\n").rsplit(",", 1)[1]))
    ids, methods = (table.records[name].tolist() for name in ("sample_id", "method"))
    return ids, methods, np.ascontiguousarray(d)


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


def write_summary_stack(
    path, ids: list[str], stats: np.ndarray, excluded: np.ndarray, failures=()
) -> None:
    """Rows per sample per class, plus one excluded-count footer row per sample,
    then one ``# failed:`` comment per sample that could not be summarized.

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
    _write_table(path, SUMMARY_HEADER, templates, values, failure_lines(failures))


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
    repeated, why_repeated = core.unique_ids(list(sid))

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
            (repeated & (slot == 0), why_repeated),
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


def write_report(path, rows: list, fits: list, failures=()) -> None:
    """One row per (patch, method), then one ``# ols`` comment per fitted method
    and one ``# failed:`` comment per sample left out.

    A fit whose slope is ``None`` is written as undefined.
    """
    patches, methods = [row[0] for row in rows], [row[1] for row in rows]
    fields = zip(_quoted(patches, "patch"), _quoted(methods, "method"))
    templates = (f"{patch},{method},%.17g,%.17g\n" for patch, method in fields)
    values = np.array([row[2:] for row in rows], dtype=np.float64).reshape(-1, 2)
    ols = [
        f"ols {method}: undefined (pairwise_accuracy has no spread)"
        if slope is None
        else f"ols {method}: slope={slope:.17g} intercept={intercept:.17g}"
        for method, slope, intercept in fits
    ]
    _write_table(path, list(_REPORT_DTYPE.names), templates, values, ols + failure_lines(failures))


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
    return _read_vectors(path, "x_")


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
