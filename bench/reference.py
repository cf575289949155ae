"""Independent numpy reference for the output checks, and plain CSV helpers.

Nothing here calls plmkit: the checks must not share code paths with what
they check.  WLW uses the closed-form quadratic form
``Q = 2 (diag(colsum(M*M)) - M*M^T)`` (Wu, Lin & Weng, JMLR 2004) with a
direct solve of the sum-to-one stationarity system; BC is the column mean of
the log-odds matrix, exponentiated.
"""

from __future__ import annotations

import math

import numpy as np


def wlw(m: np.ndarray) -> np.ndarray:
    c = m.shape[0]
    q = 2.0 * (np.diag((m * m).sum(axis=0)) - m * m.T)
    aug = np.ones((c + 1, c + 1))
    aug[:c, :c] = q
    aug[c, c] = 0.0
    rhs = np.zeros(c + 1)
    rhs[c] = 1.0
    p = np.linalg.solve(aug, rhs)[:c]
    if p.min() < -1e-9:
        raise ArithmeticError("direct WLW solve left the simplex")
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def bc(m: np.ndarray) -> np.ndarray:
    off = ~np.eye(m.shape[0], dtype=bool)
    with np.errstate(divide="ignore"):
        logm = np.log(np.where(off, m, 1.0))
    v = (logm.T - logm).mean(axis=0)
    w = np.exp(v - v.max())
    return w / w.sum()


def clip(m: np.ndarray, tau: float) -> np.ndarray:
    iu = np.triu_indices(m.shape[0], k=1)
    out = m.copy()
    upper = np.clip(m[iu], tau, 1.0 - tau)
    out[iu] = upper
    out[(iu[1], iu[0])] = 1.0 - upper
    return out


def drop(m: np.ndarray, rho: float, couple) -> np.ndarray:
    """Couple the classes that lose no pairwise contest below ``rho``."""
    c = m.shape[0]
    off = ~np.eye(c, dtype=bool)
    keep = np.flatnonzero(~np.any((m < rho) & off, axis=1))
    p = np.zeros(c)
    p[keep] = 1.0 if keep.size == 1 else couple(m[np.ix_(keep, keep)])
    return p


def wlw_distance(m: np.ndarray) -> float:
    """Sum of squared pair residuals at the WLW minimizer."""
    p = wlw(m)
    resid = m * p[None, :] - m.T * p[:, None]
    return float((resid**2).sum())


def bc_distance(m: np.ndarray, tau: float) -> float:
    """Norm of the upper-triangle log-odds residual after clip and projection."""
    mc = clip(m, tau)
    off = ~np.eye(m.shape[0], dtype=bool)
    with np.errstate(divide="ignore"):
        theta = np.log(np.where(off, 1.0 / mc - 1.0, 1.0))
    v = theta.mean(axis=0)
    resid = theta - (v[None, :] - v[:, None])
    return float(np.linalg.norm(resid[np.triu_indices(m.shape[0], k=1)]))


def nearest_rank(values, quantile: float) -> float:
    """Nearest-rank quantile: the smallest value with ``quantile`` of them at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(quantile * len(ordered)) - 1)]


# -- plm-v1 CSV, read and written without plmkit.fileio -----------------------


def read_rows(path) -> list[list[str]]:
    """Data rows after the header; comment and blank lines skipped."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip() and line[0] != "#"]
    return rows[1:]


def comments(path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if line.startswith("#")]


def read_posteriors(path) -> tuple[list[str], np.ndarray]:
    rows = read_rows(path)
    return [r[0] for r in rows], np.array([[float(x) for x in r[1:]] for r in rows])


def read_pairwise(path) -> dict[str, np.ndarray]:
    """Full matrices, lower triangle set to complements."""
    entries: dict[str, list] = {}
    for sid, i, j, r in read_rows(path):
        entries.setdefault(sid, []).append((int(i), int(j), float(r)))
    out = {}
    for sid, triples in entries.items():
        c = max(j for _, j, _ in triples) + 1
        m = np.zeros((c, c))
        for i, j, r in triples:
            m[i, j], m[j, i] = r, 1.0 - r
        out[sid] = m
    return out


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# plm-v1\n" + ",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def write_pairwise(path, ids, matrices) -> None:
    rows = (
        (sid, str(i), str(j), f"{m[i, j]:.17g}")
        for sid, m in zip(ids, matrices)
        for i in range(m.shape[0])
        for j in range(i + 1, m.shape[0])
    )
    write_csv(path, ["sample_id", "i", "j", "r_ij"], rows)


def write_posteriors(path, ids, probs: np.ndarray) -> None:
    header = ["sample_id"] + [f"p_{k}" for k in range(probs.shape[1])]
    write_csv(path, header, ([sid] + [f"{x:.17g}" for x in row] for sid, row in zip(ids, probs)))
