"""Span tracing by wrapping plmkit's public module attributes.

Nothing inside ``src/`` is edited.  Each entry of ``WRAPS`` names a module
namespace, an attribute that code in that namespace (or the benchmark) calls
through, and the layer span the call is recorded as.  Calls made through
another namespace are not seen, which is why a function imported into
several modules is listed once per importer.

A span is ``[id, parent_id, key, start, end, failed, counters]``.  Self time
is a span's duration minus the durations of the spans whose parent it is.
Names that a refactor has removed or renamed are skipped and listed, never
fatal, so the traced run keeps working while the code moves.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

# -- counters recorded at the same boundary as the span ----------------------


def _pairs(m) -> int:
    return m.c * (m.c - 1) // 2


def _read_rows_pairwise(args, result):
    return {"rows": sum(_pairs(m) for _, m in result), "bytes": os.path.getsize(args[0])}


def _read_rows(args, result):
    return {"rows": len(result), "bytes": os.path.getsize(args[0])}


def _write_counter(rows_of):
    def counter(args, result):
        return {"rows": rows_of(args[1]), "bytes": os.path.getsize(args[0])}

    return counter


def _coupled_pairs(args, result):
    return {"pairs": _pairs(args[0])}


def _built(args, result):
    return {"built": len(result)}


def _excluded(args, result):
    return {"excluded": result.n_excluded, "built": result.n_samples + result.n_excluded}


def _abstained(args, result):
    return {"abstained": int(type(result).__name__ == "Abstain")}


_CMDS = ("restrict", "couple", "correct", "bootstrap", "distance", "calibrate", "evaluate", "synth")

# (module namespace, attribute, span key, counter)
WRAPS = [
    *[("cli", f"cmd_{name}", "cli.cmd", None) for name in _CMDS],
    ("cli", "read_pairwise", "fileio.read", _read_rows_pairwise),
    *[
        ("cli", name, "fileio.read", _read_rows)
        for name in ("read_posteriors", "read_labels", "read_patch", "read_distances")
    ],
    ("cli", "write_pairwise", "fileio.write", _write_counter(lambda ms: sum(_pairs(m) for _, m in ms))),
    ("cli", "write_posteriors", "fileio.write", _write_counter(len)),
    ("cli", "write_distances", "fileio.write", _write_counter(len)),
    ("cli", "write_labels", "fileio.write", _write_counter(len)),
    ("cli", "write_summaries", "fileio.write", _write_counter(lambda ss: sum(s.mean.size + 1 for _, s in ss))),
    ("cli", "write_confusion", "fileio.write", _write_counter(lambda counts: counts.shape[0])),
    ("coupling", "require_valid_pairwise", "core.validate", None),
    ("cli", "couple", "coupling.dispatch", None),
    ("ensemble", "couple", "coupling.dispatch", None),
    ("abstention", "couple", "coupling.dispatch", None),
    ("coupling", "couple_wlw", "coupling.wlw", _coupled_pairs),
    ("abstention", "couple_wlw", "coupling.wlw", _coupled_pairs),
    ("coupling", "couple_bc", "coupling.bc", _coupled_pairs),
    ("coupling", "theta_of", "coupling.theta_of", None),
    ("abstention", "theta_of", "coupling.theta_of", None),
    ("coupling", "stabilize_clip", "coupling.stabilize", None),
    ("coupling", "stabilize_drop", "coupling.stabilize", None),
    ("abstention", "stabilize_clip", "coupling.stabilize", None),
    ("cli", "theta_map", "coupling.theta_map", None),
    ("ensemble", "theta_map", "coupling.theta_map", None),
    ("cli", "distance_wlw", "abstention.distance", None),
    ("cli", "distance_bc", "abstention.distance", None),
    ("abstention", "distance_wlw", "abstention.distance", None),
    ("abstention", "distance_bc", "abstention.distance", None),
    ("abstention", "sureness", "abstention.sureness", None),
    ("cli", "calibrate_threshold", "abstention.calibrate", None),
    ("abstention", "calibrate_threshold", "abstention.calibrate", None),
    ("abstention", "abstaining_predict", "abstention.predict", _abstained),
    ("cli", "bootstrap_recombine", "ensemble.recombine", _built),
    ("cli", "ensemble_summary", "ensemble.summary", _excluded),
    ("cli", "partial_correct", "ensemble.partial_correct", None),
    ("cli", "generate_blobs", "datagen.blobs", None),
    ("cli", "bayes_posterior_blobs", "datagen.posterior", None),
    ("cli", "accuracy", "metrics.accuracy", None),
    ("cli", "confusion_matrix", "metrics.confusion", None),
]


class Tracer:
    """Collects spans in memory; ``dump`` writes them out once at the end."""

    def __init__(self):
        self.spans: list[list] = []
        self.skipped: list[str] = []
        self._stack: list[int] = []

    def install(self) -> None:
        """Replace each attribute in ``WRAPS`` with a recording wrapper."""
        from plmkit.core import PlmError

        for module_name, attr, key, counter in WRAPS:
            label = f"plmkit.{module_name}.{attr}"
            try:
                module = importlib.import_module(f"plmkit.{module_name}")
            except ImportError:
                self.skipped.append(label)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.skipped.append(label)
                continue
            setattr(module, attr, self._wrap(fn, key, counter, label, PlmError))

    def _wrap(self, fn, key, counter, label, plm_error):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            span = [span_id, stack[-1] if stack else None, key, 0.0, 0.0, False, None]
            spans.append(span)
            stack.append(span_id)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except plm_error:
                span[5] = True
                raise
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    span[6] = counter(args, result)
                except (AttributeError, IndexError, TypeError, OSError):
                    self.skipped.append(f"{label} (counter)")
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "skipped": sorted(set(self.skipped))}, fh)


# -- aggregation into per-layer metrics ---------------------------------------

TIME_KEYS = {
    "fileio.read_s": "fileio.read",
    "fileio.write_s": "fileio.write",
    "core.validate_s": "core.validate",
    "coupling.wlw_s": "coupling.wlw",
    "coupling.bc_s": "coupling.bc",
    "coupling.theta_of_s": "coupling.theta_of",
    "coupling.stabilize_s": "coupling.stabilize",
    "coupling.theta_map_s": "coupling.theta_map",
    "coupling.dispatch_s": "coupling.dispatch",
    "abstention.distance_s": ("abstention.distance", "abstention.sureness"),
    "abstention.calibrate_s": "abstention.calibrate",
    "abstention.predict_s": "abstention.predict",
    "ensemble.recombine_s": "ensemble.recombine",
    "ensemble.summary_s": "ensemble.summary",
    "ensemble.partial_correct_s": "ensemble.partial_correct",
    "datagen.blobs_s": "datagen.blobs",
    "datagen.posterior_s": "datagen.posterior",
    "metrics.accuracy_s": "metrics.accuracy",
    "metrics.confusion_s": "metrics.confusion",
    "cli.self_s": "cli.cmd",
}
# every span key lands in exactly one self-time metric, so the self times add up
_TIMED = [k for keys in TIME_KEYS.values() for k in (keys if isinstance(keys, tuple) else (keys,))]
assert sorted(_TIMED) == sorted({key for _, _, key, _ in WRAPS}), "WRAPS and TIME_KEYS disagree"
CALL_KEYS = {
    "fileio.read_calls": "fileio.read",
    "core.validate_calls": "core.validate",
    "coupling.wlw_calls": "coupling.wlw",
    "coupling.bc_calls": "coupling.bc",
    "abstention.sureness_calls": "abstention.sureness",
}
# (metric, span key, counter name)
SUM_KEYS = [
    ("fileio.rows_read", "fileio.read", "rows"),
    ("fileio.rows_written", "fileio.write", "rows"),
    ("fileio.bytes_read", "fileio.read", "bytes"),
    ("fileio.bytes_written", "fileio.write", "bytes"),
    ("ensemble.matrices_built", "ensemble.recombine", "built"),
]


class Totals:
    """Self times, call counts and counter sums accumulated over span files."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[tuple[str, str], float] = {}
        self.outer_failures = 0
        self.skipped: set[str] = set()

    def add(self, spans: list, skipped=()) -> None:
        self.skipped.update(skipped)
        child_s = [0.0] * len(spans)
        for span_id, parent, _key, start, end, _failed, _ in spans:
            if parent is not None:
                child_s[parent] += end - start
        for span_id, parent, key, start, end, failed, counters in spans:
            dur = end - start
            self.self_s[key] = self.self_s.get(key, 0.0) + dur - child_s[span_id]
            self.incl_s[key] = self.incl_s.get(key, 0.0) + dur
            self.calls[key] = self.calls.get(key, 0) + 1
            for name, value in (counters or {}).items():
                self.counters[key, name] = self.counters.get((key, name), 0) + value
            # a coupling failure is counted once, at the outermost coupling span
            if failed and key.startswith("coupling.") and (
                parent is None or not spans[parent][2].startswith("coupling.")
            ):
                self.outer_failures += 1

    def self_total(self) -> float:
        return sum(self.self_s.values())

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per traced pass; shares and rates are pass-independent."""
        out = {}
        for metric, keys in TIME_KEYS.items():
            keys = keys if isinstance(keys, tuple) else (keys,)
            out[metric] = sum(self.self_s.get(k, 0.0) for k in keys) / passes
        for metric, key in CALL_KEYS.items():
            out[metric] = self.calls.get(key, 0) / passes
        for metric, key, name in SUM_KEYS:
            out[metric] = self.counters.get((key, name), 0) / passes
        out["coupling.couple_failed"] = self.outer_failures / passes
        pairs = sum(self.counters.get((k, "pairs"), 0) for k in ("coupling.wlw", "coupling.bc"))
        busy = sum(self.incl_s.get(k, 0.0) for k in ("coupling.wlw", "coupling.bc"))
        out["coupling.pairs_per_s"] = pairs / busy if busy else 0.0
        predicts = self.calls.get("abstention.predict", 0)
        abstained = self.counters.get(("abstention.predict", "abstained"), 0)
        out["abstention.abstain_share"] = abstained / predicts if predicts else 0.0
        built = self.counters.get(("ensemble.summary", "built"), 0)
        excluded = self.counters.get(("ensemble.summary", "excluded"), 0)
        out["ensemble.excluded_share"] = excluded / built if built else 0.0
        return out
