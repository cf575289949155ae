"""Independent reference implementations used only to check the library.

Nothing here reuses the package's solvers: the quadratic objective is
minimized by exhaustive simplex-grid search refined with a self-contained
projected gradient loop, and the log-odds projection is solved as a generic
least-squares problem.
"""

import csv
import io
import warnings

import numpy as np

from plmkit import core
from plmkit.core import SUM_TOL, SYM_TOL


def delta2_ref(m: np.ndarray, p: np.ndarray) -> float:
    total = 0.0
    c = m.shape[0]
    for i in range(c):
        for j in range(c):
            if i != j:
                total += (m[i, j] * p[j] - m[j, i] * p[i]) ** 2
    return total


def quadratic_form(m: np.ndarray) -> np.ndarray:
    c = m.shape[0]
    q = np.zeros((c, c))
    for i in range(c):
        for j in range(c):
            if i == j:
                continue
            q[i, i] += m[j, i] ** 2
            q[j, j] += m[i, j] ** 2
            q[i, j] -= m[i, j] * m[j, i]
            q[j, i] -= m[i, j] * m[j, i]
    return q


def simplex_grid(c: int, divisions: int) -> np.ndarray:
    """All points with coordinates k/divisions summing to 1, shape (n, c).

    Stars-and-bars: bar positions chosen among divisions + c - 1 slots give
    the coordinate counts between consecutive bars.
    """
    import itertools

    if c == 1:
        return np.ones((1, 1))
    bars = np.fromiter(
        itertools.chain.from_iterable(
            itertools.combinations(range(divisions + c - 1), c - 1)
        ),
        dtype=np.int64,
    ).reshape(-1, c - 1)
    edges = np.hstack(
        [
            np.full((bars.shape[0], 1), -1, dtype=np.int64),
            bars,
            np.full((bars.shape[0], 1), divisions + c - 1, dtype=np.int64),
        ]
    )
    counts = np.diff(edges, axis=1) - 1
    return counts / divisions


def project_simplex_bisect(v: np.ndarray) -> np.ndarray:
    """Simplex projection by bisection on the shift lambda (no sorting)."""
    lo = v.min() - 1.0
    hi = v.max()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(v - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    w = np.maximum(v - lam, 0.0)
    return w / w.sum()


def pgd_refine(q: np.ndarray, p0: np.ndarray, improve_tol: float = 1e-14) -> np.ndarray:
    p = p0.copy()
    obj = float(p @ q @ p)
    step = 1.0
    for _ in range(200_000):
        grad = 2.0 * (q @ p)
        t = step
        improved = False
        while t > 1e-18:
            cand = project_simplex_bisect(p - t * grad)
            cand_obj = float(cand @ q @ cand)
            if cand_obj < obj:
                improved = True
                break
            t *= 0.5
        if not improved:
            break
        gain = obj - cand_obj
        p, obj, step = cand, cand_obj, min(t * 2.0, 1.0)
        if gain < improve_tol:
            break
    return p


_GRIDS: dict[tuple[int, int], np.ndarray] = {}


def wlw_oracle(m: np.ndarray, divisions: int = 100) -> tuple[np.ndarray, float]:
    """Grid search over the simplex followed by projected gradient refinement."""
    c = m.shape[0]
    key = (c, divisions)
    if key not in _GRIDS:
        _GRIDS[key] = simplex_grid(c, divisions)
    grid = _GRIDS[key]
    q = quadratic_form(m)
    vals = np.einsum("nc,cd,nd->n", grid, q, grid, optimize=True)
    p = pgd_refine(q, grid[int(np.argmin(vals))])
    return p, float(p @ q @ p)


def bc_lstsq_oracle(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Generic least-squares fit of additive potentials to log-odds coordinates."""
    c = m.shape[0]
    rows, y = [], []
    for i in range(c):
        for j in range(i + 1, c):
            row = np.zeros(c)
            row[j] = 1.0
            row[i] = -1.0
            rows.append(row)
            y.append(np.log(1.0 / m[i, j] - 1.0))
    a = np.array(rows)
    y = np.array(y)
    v, *_ = np.linalg.lstsq(a, y, rcond=None)
    p = np.exp(v - v.max())
    return p / p.sum(), float(np.linalg.norm(y - a @ v))


def posterior_violations_ref(probs: np.ndarray) -> dict:
    """Per-row simplex checks, every invariant tested on every row."""
    finite = np.isfinite(probs).all(axis=1)
    in_range = ((probs >= 0.0) & (probs <= 1.0)).all(axis=1)
    sums = probs.sum(axis=1)
    out = {}
    for row in np.nonzero(~(finite & in_range & (np.abs(sums - 1.0) <= SUM_TOL)))[0]:
        if not finite[row]:
            out[int(row)] = "posterior contains non-finite entries"
        elif not in_range[row]:
            out[int(row)] = "posterior entries must lie in [0, 1]"
        else:
            out[int(row)] = f"posterior sums to {sums[row]:.12g}, outside tolerance {SUM_TOL}"
    return out


def pairwise_violations_ref(stack: np.ndarray) -> dict:
    """Per-entry pairwise checks: masks of the whole stack, then messages."""
    c = stack.shape[-1]
    diag_bad = np.diagonal(stack, axis1=1, axis2=2) != 0.0
    off = ~np.eye(c, dtype=bool)
    range_bad = off & ((stack < 0.0) | (stack > 1.0))
    s = stack + np.swapaxes(stack, 1, 2)
    sum_bad = np.triu(np.abs(s - 1.0) > SYM_TOL, k=1)
    bad = diag_bad.any(axis=1) | range_bad.any(axis=(1, 2)) | sum_bad.any(axis=(1, 2))
    out = {}
    for row in np.nonzero(bad)[0]:
        m = stack[row]
        violations = [
            f"diagonal entry ({k},{k}) is {m[k, k]:.12g}, expected exactly 0"
            for k in np.nonzero(diag_bad[row])[0]
        ]
        violations += [
            f"entry ({i},{j}) = {m[i, j]:.12g} outside [0, 1]"
            for i, j in zip(*np.nonzero(range_bad[row]))
        ]
        violations += [
            f"complement violation at ({i},{j}): r_ij + r_ji = {s[row, i, j]:.12g}, expected 1"
            for i, j in zip(*np.nonzero(sum_bad[row]))
        ]
        out[int(row)] = violations
    return out


def clip_stack_ref(stack: np.ndarray, tau: float) -> np.ndarray:
    """Clip the upper triangles through fancy indexing; a lower entry becomes
    the complement of its clipped upper entry where the clip moved that entry,
    and is clipped itself elsewhere."""
    c = stack.shape[-1]
    rows, cols = np.triu_indices(c, k=1)
    m = stack.copy()
    orig = m[:, rows, cols]
    upper = np.clip(orig, tau, 1.0 - tau)
    m[:, rows, cols] = upper
    lower = np.clip(m[:, cols, rows], tau, 1.0 - tau)
    m[:, cols, rows] = np.where(upper != orig, 1.0 - upper, lower)
    m[:, np.arange(c), np.arange(c)] = 0.0
    return m


def random_posterior(rng: np.random.Generator, c: int, min_entry: float = 1e-3) -> np.ndarray:
    """Uniform draw from the simplex, rejected until every entry clears min_entry."""
    while True:
        p = rng.dirichlet(np.ones(c))
        if p.min() >= min_entry:
            return p


def random_offmanifold(rng: np.random.Generator, c: int) -> np.ndarray:
    """Valid pairwise matrix with independent uniform upper-triangle entries."""
    m = np.zeros((c, c))
    for i in range(c):
        for j in range(i + 1, c):
            r = rng.uniform(0.05, 0.95)
            m[i, j] = r
            m[j, i] = 1.0 - r
    return m


def bayes_posterior_ref(means: np.ndarray, scale: float, x: np.ndarray) -> np.ndarray:
    """Blob posterior of one point, as it was computed one point at a time."""
    d2 = np.sum((means - x[None, :]) ** 2, axis=1)
    logp = -d2 / (2.0 * scale**2)
    w = np.exp(logp - logp.max())
    return w / w.sum()


def perturb_manifold_ref(probs: np.ndarray, noise_scale: float, seed: int) -> np.ndarray:
    """The (c, c) matrix of perturb_manifold in its full-matrix formulation:
    log-odds and noise as c x c matrices, the noise antisymmetrized, then the
    upper triangle kept and the lower triangle derived from it."""
    c = probs.size
    off, iu = ~np.eye(c, dtype=bool), np.triu_indices(c, k=1)
    base = np.zeros((c, c))
    base[iu] = probs[iu[0]] / (probs[iu[0]] + probs[iu[1]])
    base[iu[::-1]] = 1.0 - base[iu]
    if noise_scale == 0.0:
        return base
    theta = np.where(off, np.log(1.0 / np.maximum(base, 1e-300) - 1.0), 0.0)
    noise = np.zeros((c, c))
    noise[iu] = noise_scale * np.random.Generator(np.random.PCG64(seed)).standard_normal(len(iu[0]))
    r = 1.0 / (1.0 + np.exp(theta + noise - noise.T))
    out = np.zeros((c, c))
    out[iu], out[iu[::-1]] = r[iu], 1.0 - r[iu]
    return out


def worst_confused_pair_ref(confusion: np.ndarray):
    """The pair (i, j), i < j, with the most errors either way, scanned in
    lexicographic order so that a tie keeps the first; None without errors."""
    best, best_errors = None, 0
    c = confusion.shape[0]
    for i in range(c):
        for j in range(i + 1, c):
            errors = int(confusion[i, j]) + int(confusion[j, i])
            if errors > best_errors:
                best, best_errors = (i, j), errors
    return best


# the three per-sample counting loops the metrics had before they shared one
# np.add.at pass, kept as written; confusion_matrix_ref indexes with each
# prediction, so it takes int predictions only


def _labels_of(predictions: list, labels, cover: bool) -> list[int]:
    """The label of each prediction's sample: sample_ids are unique and
    labelled, and with ``cover`` every labelled sample is predicted."""
    truth = labels.labels_by_id()
    ids = [sid for sid, _ in predictions]
    core.require(core.unique_ids(ids))
    if not truth.keys() >= set(ids) or (cover and len(ids) != len(truth)):
        raise ValueError("prediction sample_ids do not match label sample_ids")
    return [truth[sid] for sid in ids]


def accuracy_ref(predictions: list, labels) -> float:
    """Fraction of correct predictions, matched to labels by sample_id."""
    truth = _labels_of(predictions, labels, cover=True)
    if not predictions:
        raise ValueError("empty prediction list")
    correct = sum(1 for (_, pred), label in zip(predictions, truth) if pred == label)
    return correct / len(predictions)


def pairwise_accuracy_ref(binary_preds: list, labels) -> float:
    """Fraction of samples where the higher-probability class matches the label."""
    truth = _labels_of(binary_preds, labels, cover=False)
    if not binary_preds:
        raise ValueError("empty prediction list")
    correct = 0
    for (sid, bp), label in zip(binary_preds, truth):
        if label not in (bp.class_a, bp.class_b):
            raise ValueError(
                f"sample {sid!r} has label {label}, not in pair ({bp.class_a},{bp.class_b})"
            )
        correct += (bp.class_a if bp.prob_a >= 0.5 else bp.class_b) == label
    return correct / len(binary_preds)


def confusion_matrix_ref(predictions: list, labels) -> np.ndarray:
    """Count matrix with entry (true, predicted)."""
    truth = _labels_of(predictions, labels, cover=True)
    ids, preds = [sid for sid, _ in predictions], np.array([pred for _, pred in predictions])
    core.require(core.class_range(ids, preds, labels.c, "prediction"))
    counts = np.zeros((labels.c, labels.c), dtype=np.int64)
    for (_, pred), label in zip(predictions, truth):
        counts[label, pred] += 1
    return counts


def summary_ref(probs: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """(13, c) per-class mean, sd, min, deciles d10..d90 and max of the ok rows
    of an (n, c) block, one sample at a time with numpy's reductions."""
    arr = probs[ok]
    return np.vstack(
        [
            arr.mean(axis=0),
            arr.std(axis=0, ddof=0),
            arr.min(axis=0),
            np.quantile(arr, np.linspace(0.1, 0.9, 9), axis=0),
            arr.max(axis=0),
        ]
    )


# -- plm-v1 writers as they were written row by row through csv.writer ---------
# Byte oracles for fileio's table writer; a string field is quoted as csv
# quotes it, and also where it would make its line read as a comment.


def id_field_ref(sid: str) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([sid, ""])
    field = buf.getvalue()[:-2]
    if field.lstrip().startswith("#"):
        field = '"' + sid.replace('"', '""') + '"'
    return field


def _rows_ref(path, header, rows, comments=()) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("# plm-v1\n")
        csv.writer(fh, lineterminator="\n").writerow(header)
        fh.writelines(rows)
        fh.writelines(comments)


def _g(x) -> str:
    return f"{float(x):.17g}"


def posterior_rows(path, ids, probs, failures=()) -> None:
    _rows_ref(
        path,
        ["sample_id"] + [f"p_{k}" for k in range(probs.shape[1])],
        [",".join([id_field_ref(sid), *map(_g, p)]) + "\n" for sid, p in zip(ids, probs)],
        [f"# failed: {sid}: {msg}\n" for sid, msg in failures],
    )


def pairwise_rows(path, ids, stack, failures=()) -> None:
    c = stack.shape[-1]
    _rows_ref(
        path,
        ["sample_id", "i", "j", "r_ij"],
        [
            f"{id_field_ref(sid)},{i},{j},{_g(m[i, j])}\n"
            for sid, m in zip(ids, stack)
            for i in range(c)
            for j in range(i + 1, c)
        ],
        [f"# failed: {sid}: {msg}\n" for sid, msg in failures],
    )


def label_rows(path, samples) -> None:
    rows = [f"{id_field_ref(sid)},{label}\n" for sid, label in samples]
    _rows_ref(path, ["sample_id", "label"], rows)


def distance_rows(path, rows) -> None:
    """From (sample_id, method, distance) per row."""
    _rows_ref(
        path,
        ["sample_id", "method", "distance"],
        [f"{id_field_ref(sid)},{method},{_g(d)}\n" for sid, method, d in rows],
    )


def summary_rows(path, rows) -> None:
    """From (sample_id, (13, c) statistics, excluded count) per sample."""
    header = ["sample_id", "class", "mean", "sd", "min"] + [f"d{k}" for k in range(10, 100, 10)]
    lines = []
    for sid, stats, excluded in rows:
        field = id_field_ref(sid)
        for k in range(stats.shape[1]):
            lines.append(",".join([field, str(k), *(_g(x) for x in stats[:, k])]) + "\n")
        lines.append(",".join([field, "excluded", str(excluded)] + [""] * 12) + "\n")
    _rows_ref(path, header + ["max"], lines)


def feature_rows(path, ids, features) -> None:
    _rows_ref(
        path,
        ["sample_id"] + [f"x_{d}" for d in range(features.shape[1])],
        [",".join([id_field_ref(sid), *map(_g, row)]) + "\n" for sid, row in zip(ids, features)],
    )


def confusion_rows(path, counts) -> None:
    c = counts.shape[0]
    _rows_ref(
        path,
        ["true\\pred"] + list(range(c)),
        [",".join(str(int(x)) for x in [i, *counts[i]]) + "\n" for i in range(c)],
    )


def report_rows(path, rows, fits) -> None:
    """From (patch, method, pairwise accuracy, multiclass accuracy) rows and
    (method, slope or None, intercept) fits; patch and method go through csv."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    for patch, method, pair_acc, multi_acc in rows:
        w.writerow([patch, method, _g(pair_acc), _g(multi_acc)])
    _rows_ref(
        path,
        ["patch", "method", "pairwise_accuracy", "multiclass_accuracy"],
        [buf.getvalue()],
        [
            f"# ols {method}: undefined (pairwise_accuracy has no spread)\n"
            if slope is None
            else f"# ols {method}: slope={_g(slope)} intercept={_g(intercept)}\n"
            for method, slope, intercept in fits
        ],
    )


def patch_rows(path, triples) -> None:
    _rows_ref(path, ["i", "j", "prob_i"], [f"{i},{j},{_g(q)}\n" for i, j, q in triples])


# -- plm-v1 table rows as read before numpy parsed quotes ----------------------


def _load_ref(texts, dtype):
    if not texts:
        return np.zeros(0, dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(texts, dtype=dtype, delimiter=",", comments=None, quotechar=None, ndmin=1)


def records_ref(lines: list[str], dtype: np.dtype) -> np.ndarray:
    """fileio's records of the longest prefix of ``lines`` that parses, as read
    with no quote handling in numpy: a line with a double quote is split by the
    csv module alone, its string fields parsed empty and put back after, and a
    wrong field count or a comma inside a number ends the prefix there."""
    columns = [
        (name, m if dtype[name].shape else None, dtype[name].base.kind)
        for name in dtype.names
        for m in range(int(np.prod(dtype[name].shape)))
    ]
    texts, quoted = list(lines), {}
    for k, line in enumerate(lines):
        if '"' in line:
            try:
                fields = next(csv.reader([line]))
            except csv.Error:  # a field beyond the csv module's limit
                fields = []
            numbers = [f for f, (_, _, kind) in zip(fields, columns) if kind != "O"]
            if len(fields) != len(columns) or any("," in f for f in numbers):
                del texts[k:]
                break
            texts[k] = ",".join("" if kind == "O" else f for f, (_, _, kind) in zip(fields, columns))
            quoted[k] = fields
    try:
        records = _load_ref(texts, dtype)
    except (ValueError, DeprecationWarning):
        good, bad = 0, len(texts)  # texts[:good] parse, texts[:bad] do not
        while bad - good > 1:
            mid = (good + bad) // 2
            try:
                _load_ref(texts[:mid], dtype)
                good = mid
            except (ValueError, DeprecationWarning):
                bad = mid
        records = _load_ref(texts[:good], dtype)
    for k, fields in quoted.items():
        for field, (name, m, kind) in zip(fields, columns):
            if kind == "O" and k < len(records):
                records[name][k if m is None else (k, m)] = field
    return records
