import csv
import functools
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plmkit import CorrectionPatch, LabeledBatch, Method, fileio
from plmkit.ensemble import correct_stack
from plmkit.fileio import (
    FormatError,
    read_confusion,
    read_distance_stack,
    read_features,
    read_labels,
    read_pairwise_stack,
    read_patch,
    read_posterior_stack,
    read_report,
    read_summary_stack,
    write_confusion,
    write_distance_stack,
    write_features,
    write_labels,
    write_pairwise_stack,
    write_posterior_stack,
    write_report,
    write_summary_stack,
)
import oracles
from oracles import summary_rows

ONE_ULP_BELOW_1 = float(np.nextafter(1.0, 0.0))
SUBNORMAL = 5e-324
EDGE = [0.0, 1.0, SUBNORMAL, 1e-310, ONE_ULP_BELOW_1, 1.0 - ONE_ULP_BELOW_1]

sample_ids = st.lists(
    st.text(alphabet='ab1 ,"#_é%{}', max_size=6), min_size=1, max_size=6, unique=True
)


def _entries(n):
    return st.lists(
        st.one_of(st.sampled_from(EDGE), st.floats(min_value=0.0, max_value=1.0)),
        min_size=n,
        max_size=n,
    )


class TestRoundTrip:
    """Every file a writer produces, its reader returns bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(min_value=2, max_value=12), sample_ids)
    def test_pairwise(self, tmp_path_factory, data, c, ids):
        rows, cols = np.triu_indices(c, k=1)
        stack = np.zeros((len(ids), c, c))
        for k in range(len(ids)):
            upper = np.array(data.draw(_entries(rows.size)))
            stack[k, rows, cols] = upper
            stack[k, cols, rows] = 1.0 - upper
        path = tmp_path_factory.mktemp("rt") / "pair.csv"
        write_pairwise_stack(path, ids, stack)
        got_ids, got = read_pairwise_stack(path)
        assert got_ids == ids
        assert got.tobytes() == stack.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(min_value=2, max_value=12), sample_ids)
    def test_posterior(self, tmp_path_factory, data, c, ids):
        probs = np.zeros((len(ids), c))
        for k in range(len(ids)):
            # edge entries and small floats; one entry takes the rest of the mass
            rest = data.draw(
                st.lists(
                    st.one_of(
                        st.sampled_from([0.0, SUBNORMAL, 1e-310, 1.0 - ONE_ULP_BELOW_1]),
                        st.floats(min_value=0.0, max_value=1.0 / c),
                    ),
                    min_size=c - 1,
                    max_size=c - 1,
                )
            )
            probs[k, :-1] = rest
            probs[k, -1] = 1.0 - sum(rest)
            probs[k] = np.roll(probs[k], data.draw(st.integers(0, c - 1)))
        path = tmp_path_factory.mktemp("rt") / "post.csv"
        failures = [(ids[0], "a message, with a comma")]
        write_posterior_stack(path, ids, probs, failures)
        got_ids, got = read_posterior_stack(path)
        assert got_ids == ids
        assert got.tobytes() == probs.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.data(), sample_ids, st.integers(min_value=1, max_value=12))
    def test_labels(self, tmp_path_factory, data, ids, c):
        labels = data.draw(st.lists(st.integers(0, c - 1), min_size=len(ids), max_size=len(ids)))
        batch = LabeledBatch(samples=tuple(zip(ids, labels)), c=c)
        path = tmp_path_factory.mktemp("rt") / "lab.csv"
        write_labels(path, batch)
        assert read_labels(path, c=c) == batch

    @settings(max_examples=100, deadline=None)
    @given(st.data(), sample_ids)
    def test_distances(self, tmp_path_factory, data, ids):
        values = st.one_of(
            st.sampled_from([0.0, SUBNORMAL, 1e-310, 1.0, 1.7976931348623157e308]),
            st.floats(min_value=0.0, allow_infinity=False),
        )
        distances = data.draw(st.lists(values, min_size=len(ids), max_size=len(ids)))
        methods = data.draw(
            st.lists(st.sampled_from(list(Method)), min_size=len(ids), max_size=len(ids))
        )
        path = tmp_path_factory.mktemp("rt") / "dist.csv"
        write_distance_stack(path, ids, [m.value for m in methods], np.array(distances))
        got_ids, got_methods, got = read_distance_stack(path)
        assert got_ids == ids and got_methods == [m.value for m in methods]
        assert got.tobytes() == np.array(distances).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(min_value=2, max_value=8))
    def test_patch(self, tmp_path_factory, data, c):
        every_pair = list(zip(*np.triu_indices(c, k=1)))
        pairs = data.draw(st.lists(st.sampled_from(every_pair), unique=True))
        probs = data.draw(_entries(len(pairs)))
        triples = [(int(i), int(j), q) for (i, j), q in zip(pairs, probs)]
        path = tmp_path_factory.mktemp("rt") / "patch.csv"
        oracles.patch_rows(path, triples)
        got = read_patch(path)
        assert [row[:2] for row in got] == [row[:2] for row in triples]
        assert np.array([q for *_, q in got]).tobytes() == np.array(probs).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(min_value=0, max_value=5), sample_ids)
    def test_summary(self, tmp_path_factory, data, c, ids):
        stats = np.array(data.draw(_entries(len(ids) * 13 * c))).reshape(len(ids), 13, c)
        excluded = np.array(
            data.draw(st.lists(st.integers(0, 2**63 - 1), min_size=len(ids), max_size=len(ids)))
        )
        path = tmp_path_factory.mktemp("rt") / "summary.csv"
        write_summary_stack(path, ids, stats, excluded)
        got_ids, got, got_excluded = read_summary_stack(path)
        assert got_ids == ids
        assert got.shape == stats.shape and got.tobytes() == stats.tobytes()
        assert got_excluded.tolist() == excluded.tolist()

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(min_value=1, max_value=5), sample_ids)
    def test_features(self, tmp_path_factory, data, dim, ids):
        values = st.one_of(
            st.sampled_from([-0.0, SUBNORMAL, -1e-310, 1.7976931348623157e308]),
            st.floats(allow_nan=False, allow_infinity=False),
        )
        size = len(ids) * dim
        features = np.array(data.draw(st.lists(values, min_size=size, max_size=size)))
        features = features.reshape(len(ids), dim)
        path = tmp_path_factory.mktemp("rt") / "feat.csv"
        write_features(path, ids, features)
        got_ids, got = read_features(path)
        assert got_ids == ids
        assert got.shape == features.shape and got.tobytes() == features.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(min_value=0, max_value=6))
    def test_confusion(self, tmp_path_factory, data, c):
        entries = data.draw(st.lists(st.integers(0, 2**63 - 1), min_size=c * c, max_size=c * c))
        counts = np.array(entries, dtype=np.int64).reshape(c, c)
        path = tmp_path_factory.mktemp("rt") / "conf.csv"
        write_confusion(path, counts)
        got = read_confusion(path)
        assert got.dtype == np.int64 and got.shape == (c, c) and got.tobytes() == counts.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.data(), sample_ids)
    def test_report(self, tmp_path_factory, data, patches):
        accuracy = st.one_of(st.sampled_from(EDGE + [float("nan")]), st.floats(0.0, 1.0))
        method = st.sampled_from(["bc", "wlw"])
        rows = [(p, data.draw(method), data.draw(accuracy), data.draw(accuracy)) for p in patches]
        # the fits are comment lines, which the reader skips
        fits = [("bc", None, None), ("wlw", 0.5, -1e-300)][: data.draw(st.integers(0, 2))]
        path = tmp_path_factory.mktemp("rt") / "report.csv"
        write_report(path, rows, fits)
        got = read_report(path)
        assert [row[:2] for row in got] == [row[:2] for row in rows]
        accuracies = np.array([row[2:] for row in rows]).reshape(-1, 2)
        assert np.array([row[2:] for row in got]).reshape(-1, 2).tobytes() == accuracies.tobytes()

    def test_hash_led_ids(self, tmp_path):
        write_labels(tmp_path / "lab.csv", LabeledBatch(samples=(("#a", 0), ("b", 1)), c=2))
        assert read_labels(tmp_path / "lab.csv").samples == (("#a", 0), ("b", 1))
        write_distance_stack(tmp_path / "dist.csv", ["#a", "b"], ["bc", "bc"], np.full(2, 0.5))
        assert read_distance_stack(tmp_path / "dist.csv")[0] == ["#a", "b"]
        write_features(tmp_path / "feat.csv", [" #a", "b"], np.zeros((2, 1)))
        assert read_features(tmp_path / "feat.csv")[0] == [" #a", "b"]
        stats = np.full((2, 13, 2), 0.5)
        write_summary_stack(tmp_path / "s.csv", ["#a", "b"], stats, np.array([1, 0]))
        assert read_summary_stack(tmp_path / "s.csv")[0] == ["#a", "b"]
        write_report(tmp_path / "r.csv", [("#p.csv", "bc", 0.5, 0.25)], [])
        assert read_report(tmp_path / "r.csv") == [("#p.csv", "bc", 0.5, 0.25)]

    def test_exact_edges(self, tmp_path):
        probs = np.array([[1.0, 0.0, 0.0], [ONE_ULP_BELOW_1, 1.0 - ONE_ULP_BELOW_1, 0.0]])
        write_posterior_stack(tmp_path / "p.csv", ["# not a comment", ' "q", 1 '], probs)
        assert read_posterior_stack(tmp_path / "p.csv")[0] == ["# not a comment", ' "q", 1 ']
        assert read_posterior_stack(tmp_path / "p.csv")[1].tobytes() == probs.tobytes()

    def test_empty(self, tmp_path):
        write_pairwise_stack(tmp_path / "pair.csv", [], np.zeros((0, 4, 4)))
        ids, stack = read_pairwise_stack(tmp_path / "pair.csv")
        assert ids == [] and stack.shape == (0, 2, 2)
        write_posterior_stack(tmp_path / "post.csv", [], np.zeros((0, 3)))
        ids, probs = read_posterior_stack(tmp_path / "post.csv")
        assert ids == [] and probs.shape == (0, 3)


class TestReaders:
    def test_hash_inside_a_field_is_data(self, tmp_path):
        path = tmp_path / "pair.csv"
        path.write_text("sample_id,i,j,r_ij\n  # comment\na#1,0,1,0.25\n")
        ids, stack = read_pairwise_stack(path)
        assert ids == ["a#1"]
        assert stack[0, 1, 0] == 0.75

    def test_rows_in_any_order(self, tmp_path):
        path = tmp_path / "pair.csv"
        path.write_text(
            "sample_id,i,j,r_ij\nb,1,2,0.5\na,0,1,0.25\nb,0,2,0.5\na,1,2,0.75\n"
            "b,0,1,0.5\na,0,2,0.5\n"
        )
        ids, stack = read_pairwise_stack(path)
        assert ids == ["b", "a"]
        assert stack[1, 0, 1] == 0.25 and stack[1, 2, 1] == 0.25

    @pytest.mark.parametrize("field", ["1_0", "١"])
    def test_spelling_np_loadtxt_rejects(self, tmp_path, field):
        path = tmp_path / "pair.csv"
        path.write_text(f"sample_id,i,j,r_ij\n\na,0,{field},0.5\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}:3: cannot read numbers")):
            read_pairwise_stack(path)


# Messages pinned to those of the line-by-line reader this one replaced.
# Comment and blank lines sit between rows, so line numbers differ from row indices.
PRE = "# plm-v1\n\n"
HEAD = "sample_id,i,j,r_ij\n"
OK = "# first sample\ns#0,0,1,0.25\n   \ns#0,0,2,0.5\n  # indented comment\ns#0,1,2,0.75\n"
POST = "sample_id,p_0,p_1\n"
LAB = "sample_id,label\n"
PATCH = "i,j,prob_i\n"
DIST = "sample_id,method,distance\n"
SUM = ",".join(fileio.SUMMARY_HEADER) + "\n"
CONF = "true\\pred,0,1\n"
REPORT = "patch,method,pairwise_accuracy,multiclass_accuracy\n"
SPELLING = "digit separators, non-ASCII digits and integers beyond 64 bits are not supported"
# the csv module's default field limit; no reader has one, so a longer field
# is read as any other
LIMIT = csv.field_size_limit()
TOO_LONG = "x" * (LIMIT + 1)


def _class_row(sid, k):
    return f"{sid},{k}," + ",".join(["0.5"] * 13) + "\n"


def _footer(sid, excluded=0):
    return f"{sid},excluded,{excluded}" + "," * 12 + "\n"


def _sample(sid, c):
    return "".join(_class_row(sid, k) for k in range(c)) + _footer(sid)


MALFORMED = [
    ("wrong header", read_pairwise_stack, PRE + "# c\nsample_id,i,j,r\n",
     "{path}:4: expected header sample_id,i,j,r_ij"),
    ("short row", read_pairwise_stack, PRE + HEAD + OK + "\na,0,1\n",
     "{path}:11: expected 4 fields, got 3"),
    ("long row", read_pairwise_stack, PRE + HEAD + OK + "\na,0,1,0.5,\n",
     "{path}:11: expected 4 fields, got 5"),
    ("non-integer i", read_pairwise_stack, PRE + HEAD + OK + "# x\na,x,1,0.5\n",
     "{path}:11: invalid literal for int() with base 10: 'x'"),
    ("fractional j", read_pairwise_stack, PRE + HEAD + OK + "\na,0,2.7,0.5\n",
     "{path}:11: invalid literal for int() with base 10: '2.7'"),
    ("float-spelled i", read_pairwise_stack, PRE + HEAD + OK + "\na,0.0,1,0.5\n",
     "{path}:11: invalid literal for int() with base 10: '0.0'"),
    ("nan j", read_pairwise_stack, PRE + HEAD + OK + "\na,0,nan,0.5\n",
     "{path}:11: invalid literal for int() with base 10: 'nan'"),
    ("i >= j", read_pairwise_stack, PRE + HEAD + OK + "\na,1,1,0.5\n",
     "{path}:11: need 0 <= i < j, got (1,1)"),
    ("r above 1", read_pairwise_stack, PRE + HEAD + OK + "\na,0,1,1.5\n",
     "{path}:11: r_ij = 1.5 outside [0, 1]"),
    ("r nan", read_pairwise_stack, PRE + HEAD + OK + "\na,0,1,nan\n",
     "{path}:11: r_ij = nan outside [0, 1]"),
    ("duplicate pair", read_pairwise_stack, PRE + HEAD + OK + "\n# again\ns#0,0,2,0.5\n",
     "{path}:12: duplicate pair (0,2) for sample 's#0'"),
    ("incomplete pair set", read_pairwise_stack, PRE + HEAD + OK + "\nb,0,1,0.5\nb,1,2,0.5\n",
     "{path}: sample 'b' has incomplete pair set for c=3"),
    ("mixed c", read_pairwise_stack, PRE + HEAD + OK + "\n# two classes\nb,0,1,0.5\n",
     "{path}:12: sample 'b' has c=2, but the first sample has c=3"),
    ("unbalanced quote", read_pairwise_stack, PRE + HEAD + OK + '\n"b,0,1,0.5\nb,0,1,0.5\n',
     "{path}:11: expected 4 fields, got 1"),
    ("posterior sum", read_posterior_stack, PRE + POST + "a,0.5,0.5\n\n# x\nb,0.5,0.6\n",
     "{path}:7: posterior sums to 1.1, outside tolerance 1e-09"),
    ("duplicate sample_id", read_posterior_stack,
     PRE + POST + "a,0.5,0.5\n# x\n\nb,0.25,0.75\na,0.5,0.5\n",
     "{path}:8: duplicate sample_id 'a'"),
    ("posterior short row", read_posterior_stack, PRE + POST + "a,0.5,0.5\n\nb,0.5\n",
     "{path}:6: expected 3 fields, got 2"),
    ("posterior not a number", read_posterior_stack, PRE + POST + "# x\na,0.5,0.5\nb,half,0.5\n",
     "{path}:6: could not convert string to float: 'half'"),
    ("posterior wrong header", read_posterior_stack, PRE + "# x\nid,p_0,p_1\n",
     "{path}:4: expected header sample_id,p_0,..."),
    ("posterior column names", read_posterior_stack, PRE + "sample_id,foo,bar\na,0.5,0.5\n",
     "{path}:3: expected header sample_id,p_0,..."),
    ("posterior columns out of order", read_posterior_stack, PRE + "sample_id,p_1,p_0\na,0.5,0.5\n",
     "{path}:3: expected header sample_id,p_0,..."),
    ("labels wrong header", read_labels, PRE + "# x\nsample_id,lab\n",
     "{path}:4: expected header sample_id,label"),
    ("labels missing header", read_labels, PRE + "# x\n", "{path}: missing header row"),
    ("labels long row", read_labels, PRE + LAB + "a,0\n\nb,1,2\n",
     "{path}:6: expected 2 fields, got 3"),
    ("labels short row", read_labels, PRE + LAB + "a,0\n# x\nb\n",
     "{path}:6: expected 2 fields, got 1"),
    ("labels not a number", read_labels, PRE + LAB + "a,0\nb,x\n",
     "{path}:5: invalid literal for int() with base 10: 'x'"),
    ("labels fractional", read_labels, PRE + LAB + "\na,2.7\n",
     "{path}:5: invalid literal for int() with base 10: '2.7'"),
    ("labels quoted long row", read_labels, PRE + LAB + '"a,b",0\n"c,d",1,"e"\n',
     "{path}:5: expected 2 fields, got 3"),
    ("labels duplicate sample_id", read_labels, PRE + LAB + "a,0\nb,1\n\na,1\n",
     "{path}:7: duplicate sample_id 'a'"),
    ("labels negative", read_labels, PRE + LAB + "a,0\nb,-1\n",
     "{path}:5: label -1 for sample 'b' outside [0, 1)"),
    ("labels out of range", functools.partial(read_labels, c=3), PRE + LAB + "a,0\nb,5\n",
     "{path}:5: label 5 for sample 'b' outside [0, 3)"),
    ("labels out of range before a repeat", functools.partial(read_labels, c=2),
     PRE + LAB + "a,0\n# x\nb,2\na,1\n", "{path}:6: label 2 for sample 'b' outside [0, 2)"),
    ("patch wrong header", read_patch, PRE + "i,j,prob\n", "{path}:3: expected header i,j,prob_i"),
    ("patch short row", read_patch, PRE + PATCH + "0,1,0.5\n\n0,2\n",
     "{path}:6: expected 3 fields, got 2"),
    ("patch non-integer i", read_patch, PRE + PATCH + "x,1,0.5\n",
     "{path}:4: invalid literal for int() with base 10: 'x'"),
    ("patch not a number", read_patch, PRE + PATCH + "# x\n0,1,half\n",
     "{path}:5: could not convert string to float: 'half'"),
    ("distances wrong header", read_distance_stack, PRE + "sample_id,distance\n",
     "{path}:3: expected header sample_id,method,distance"),
    ("distances long row", read_distance_stack, PRE + DIST + "a,bc,0.5\na,bc,0.5,1\n",
     "{path}:5: expected 3 fields, got 4"),
    ("distances not a number", read_distance_stack, PRE + DIST + "\na,bc,far\n",
     "{path}:5: could not convert string to float: 'far'"),
    ("distance negative", read_distance_stack, PRE + DIST + "a,bc,0.5\n# x\nb,wlw,-0.5\n",
     "{path}:6: distance '-0.5' is not finite and non-negative"),
    ("distance quoted negative", read_distance_stack, PRE + DIST + '"a,""b""",bc,-1\n',
     "{path}:4: distance '-1' is not finite and non-negative"),
    ("distance nan", read_distance_stack, PRE + DIST + "a,bc,nan\n",
     "{path}:4: distance 'nan' is not finite and non-negative"),
    ("distance infinite", read_distance_stack, PRE + DIST + "a,bc,0\nb,bc,inf\n",
     "{path}:5: distance 'inf' is not finite and non-negative"),
    # the checks of the table reader: patch pairs, and the formats that had no reader
    ("patch i >= j", read_patch, PRE + PATCH + "0,1,0.5\n\n2,1,0.5\n",
     "{path}:6: need 0 <= i < j, got (2,1)"),
    ("patch prob_i above 1", read_patch, PRE + PATCH + "0,1,1.5\n", "{path}:4: prob_i = 1.5 outside [0, 1]"),
    ("patch duplicate pair", read_patch, PRE + PATCH + "0,1,0.5\n0,2,0.5\n# x\n0,1,0.25\n",
     "{path}:7: duplicate pair (0,1)"),
    ("patch class beyond c", functools.partial(read_patch, c=3), PRE + PATCH + "0,1,0.5\n\n0,5,0.5\n",
     "{path}:6: patch pair (0,5) references class >= c=3"),
    ("summary wrong header", read_summary_stack, PRE + "sample_id,class,mean\n",
     "{path}:3: expected header " + ",".join(fileio.SUMMARY_HEADER)),
    ("summary short row", read_summary_stack, PRE + SUM + "a,0,0.5\n", "{path}:4: expected 15 fields, got 3"),
    ("summary not a number", read_summary_stack, PRE + SUM + _class_row("a", 0).replace("0.5", "x", 1),
     "{path}:4: could not convert string to float: 'x'"),
    ("summary class rows out of order", read_summary_stack,
     PRE + SUM + _sample("a", 2) + _class_row("b", 1) + _class_row("b", 0) + _footer("b"),
     "{path}:7: expected class 0 of sample 'b'"),
    ("summary missing footer", read_summary_stack,
     PRE + SUM + _class_row("a", 0) + _class_row("a", 1) + "# x\n" + _sample("b", 2),
     "{path}:7: expected the excluded row of sample 'a'"),
    ("summary missing last footer", read_summary_stack,
     PRE + SUM + _sample("a", 2) + _class_row("b", 0) + _class_row("b", 1),
     "{path}:8: expected the excluded row of sample 'b'"),
    ("summary early footer", read_summary_stack, PRE + SUM + _sample("a", 2) + _sample("b", 1),
     "{path}:8: expected class 1 of sample 'b'"),
    ("summary row of another sample", read_summary_stack,
     PRE + SUM + _sample("a", 2) + _class_row("b", 0) + _class_row("c", 1) + _footer("b"),
     "{path}:8: expected class 1 of sample 'b'"),
    ("summary duplicate sample_id", read_summary_stack, PRE + SUM + _sample("a", 1) + _sample("a", 1),
     "{path}:6: duplicate sample_id 'a'"),
    ("summary negative count", read_summary_stack, PRE + SUM + _class_row("a", 0) + _footer("a", -1),
     "{path}:5: excluded count -1 is not a non-negative integer"),
    ("summary fractional count", read_summary_stack, PRE + SUM + _class_row("a", 0) + _footer("a", 1.5),
     "{path}:5: invalid literal for int() with base 10: '1.5'"),
    ("summary footer not empty", read_summary_stack,
     PRE + SUM + _class_row("a", 0) + "a,excluded,0,1" + "," * 11 + "\n",
     "{path}:5: expected empty fields after the excluded count"),
    ("features wrong header", read_features, PRE + "sample_id,x_1\n", "{path}:3: expected header sample_id,x_0,..."),
    ("features duplicate sample_id", read_features, PRE + "sample_id,x_0\na,1\nb,2\na,3\n",
     "{path}:6: duplicate sample_id 'a'"),
    ("confusion wrong header", read_confusion, PRE + "true,0,1\n", "{path}:3: expected header true\\pred,0,..."),
    ("confusion rows out of order", read_confusion, PRE + CONF + "1,0,0\n0,0,0\n",
     "{path}:4: expected row 0, got row 1"),
    ("confusion negative count", read_confusion, PRE + CONF + "0,0,-1\n1,0,0\n",
     "{path}:4: counts must be non-negative"),
    ("confusion missing row", read_confusion, PRE + CONF + "0,0,1\n", "{path}:4: expected 2 rows, got 1"),
    ("confusion extra row", read_confusion, PRE + CONF + "0,0,1\n1,0,0\n2,0,0\n", "{path}:6: more than 2 rows"),
    ("report wrong header", read_report, PRE + "patch,method\n",
     "{path}:3: expected header patch,method,pairwise_accuracy,multiclass_accuracy"),
    # int() and float() read these spellings; np.loadtxt does not, in any format
    ("posterior digit separator", read_posterior_stack, PRE + POST + "a,0.5,0.5\nb,0.5,1_0\n",
     "{path}:5: cannot read numbers ['0.5', '1_0']: " + SPELLING),
    ("labels digit separator", read_labels, PRE + LAB + "a,1_0\n", "{path}:4: cannot read numbers ['1_0']: " + SPELLING),
    ("patch non-ASCII digit", read_patch, PRE + PATCH + "0,١,0.5\n",
     "{path}:4: cannot read numbers ['0', '١', '0.5']: " + SPELLING),
    ("distance digit separator", read_distance_stack, PRE + DIST + "a,bc,1_0.5\n",
     "{path}:4: cannot read numbers ['1_0.5']: " + SPELLING),
    ("summary count beyond 64 bits", read_summary_stack, PRE + SUM + _class_row("a", 0) + _footer("a", 2**64),
     f"{{path}}:5: cannot read numbers ['{2**64}']: " + SPELLING),
    ("features non-ASCII digit", read_features, PRE + "sample_id,x_0\na,١\n",
     "{path}:4: cannot read numbers ['١']: " + SPELLING),
    ("confusion digit separator", read_confusion, PRE + CONF + "0,0,1_0\n1,0,0\n",
     "{path}:4: cannot read numbers ['0', '0', '1_0']: " + SPELLING),
    ("report non-ASCII digit", read_report, PRE + REPORT + "p.csv,bc,0.5,١\n",
     "{path}:4: cannot read numbers ['0.5', '١']: " + SPELLING),
    # a line whose field is beyond the csv module's limit is split and named as any other
    ("quoted field beyond the csv limit", read_pairwise_stack, PRE + HEAD + OK + f'\n"{TOO_LONG}",0,1\n',
     "{path}:11: expected 4 fields, got 3"),
    ("quoted header field beyond the csv limit", read_labels, PRE + f'"{TOO_LONG}",label\n',
     "{path}:3: expected header sample_id,label"),
    ("distance beside an unquoted field beyond the csv limit", read_distance_stack,
     PRE + DIST + f"{TOO_LONG},bc,-1\n", "{path}:4: distance '-1' is not finite and non-negative"),
    ("missing distance beside an unquoted field beyond the csv limit", read_distance_stack,
     PRE + DIST + f"{TOO_LONG},bc\n", "{path}:4: expected 3 fields, got 2"),
]  # fmt: skip


@pytest.mark.parametrize(
    "reader, text, message", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED]
)
def test_malformed_input(tmp_path, reader, text, message):
    path = tmp_path / "in.csv"
    path.write_text(text)
    with pytest.raises(FormatError) as exc:
        reader(path)
    assert str(exc.value) == message.format(path=path)


def test_integer_float_fallback_is_rejected(tmp_path, monkeypatch):
    """Older numpy reads ``2.7`` in an integer field as 2 with only a
    DeprecationWarning; the reader still rejects the line as ``int()`` does."""
    loadtxt = np.loadtxt

    def lenient(texts, **kwargs):
        # only a record's integer field is cast; a line split into text fields is not
        if kwargs["dtype"].names and any(",2.7," in text for text in texts):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
            texts = [text.replace(",2.7,", ",2,") for text in texts]
        return loadtxt(texts, **kwargs)

    monkeypatch.setattr(fileio.np, "loadtxt", lenient)
    path = tmp_path / "in.csv"
    path.write_text(PRE + HEAD + OK + "\na,0,2.7,0.5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # Python's default outside __main__
        with pytest.raises(FormatError, match=re.escape(":11: invalid literal for int() with base 10: '2.7'")):
            read_pairwise_stack(path)


# Tables for the quote property: per format its reader, header and a valid
# row's fields after the sample_id.  Drawn fields hold doubled, stray and
# unterminated quotes, quoted numbers, commas, "#", "%" and a carriage return.
QUOTE_TABLES = {
    "pairwise": (read_pairwise_stack, HEAD, ["0", "1", "0.5"]),
    "posterior": (read_posterior_stack, "sample_id,p_0,p_1,p_2\n", ["0.2", "0.3", "0.5"]),
    "labels": (read_labels, LAB, ["1"]),
    "distance": (read_distance_stack, DIST, ["bc", "0.5"]),
    "report": (read_report, REPORT, ["bc", "0.5", "0.25"]),
    "summary": (read_summary_stack, SUM, ["0", *["0.5"] * 13]),
}
QUOTE_IDS = ["a", "s 2", '"q,1"', '"x""2"', "#x", "é%"]
QUOTE_FIELDS = [
    "", " 1", "0", "0.5", "nan", "1_0", "excluded", ",", "x\r",
    '"a,b"', '"a""b"', 'a"b', '"a"b', '"abc', '"', '""', '"0.5"', '"1,0"', '"0.5', '0.5"', '","',
]  # fmt: skip


@st.composite
def quote_tables(draw):
    reader, header, tail = QUOTE_TABLES[draw(st.sampled_from(sorted(QUOTE_TABLES)))]
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        fields = [draw(st.sampled_from(QUOTE_IDS)), *tail]
        for _ in range(draw(st.integers(0, 2))):
            k = draw(st.integers(0, len(fields)))
            drawn = draw(st.sampled_from(QUOTE_FIELDS))
            fields[k : k + draw(st.integers(0, 1))] = [drawn]  # replace a field, or insert one
        lines.append(",".join(fields[: draw(st.sampled_from([len(fields), -1]))]))
    return reader, PRE + header + "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))


def _outcome(reader, path) -> str:
    try:
        return repr(reader(path))
    except FormatError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(quote_tables())
# a quote left open at a line's end closes there, in any field
@example((read_distance_stack, PRE + DIST + 's0,bc,"0.5\ns1,bc,0.5\n'))
@example((read_summary_stack, PRE + SUM + _class_row("a", 0).replace(",0.5\n", ',"0.5\n') + _footer("a")))
@example((read_labels, PRE + LAB + '"a,1\nb,1\n'))
def test_records_match_the_per_line_csv_reader(tmp_path_factory, table):
    """numpy's own quote handling reads every drawn table as the per-line csv
    pass it replaced did: every parse gives the records of ``records_ref``, and
    each reader returns the same result or raises the same text."""
    reader, text = table
    path = tmp_path_factory.mktemp("quotes") / "in.csv"
    path.write_bytes(text.encode())
    records = fileio._records

    def both(lines, dtype):
        new, ref = records(lines, dtype), oracles.records_ref(lines, dtype)
        assert len(new) == len(ref)
        for name in dtype.names:
            same = new[name].tolist() == ref[name].tolist() if dtype[name].base.kind == "O" else (
                new[name].tobytes() == ref[name].tobytes()
            )
            assert same, name
        return new

    with mock.patch.object(fileio, "_records", both):
        got = _outcome(reader, path)
    with mock.patch.object(fileio, "_records", oracles.records_ref):
        assert got == _outcome(reader, path)


def test_open_quote_restarts_stay_near_linear(tmp_path, monkeypatch):
    """Each line that leaves a quote open restarts the record search after it;
    n such lines pass at most 2 n log2 n lines to ``np.loadtxt``.  The data
    lines of a file a writer emits reach it in one call."""
    loadtxt, passed = np.loadtxt, []

    def counting(texts, **kwargs):
        passed.append(len(texts))
        return loadtxt(texts, **kwargs)

    monkeypatch.setattr(fileio.np, "loadtxt", counting)
    n, path = 4000, tmp_path / "dist.csv"
    path.write_text(PRE + DIST + "".join(f's{k},bc,"0.5\n' for k in range(n)))
    ids, _, d = read_distance_stack(path)
    assert ids == [f"s{k}" for k in range(n)] and (d == 0.5).all()
    assert sum(passed) <= 2 * n * math.log2(n)

    passed.clear()
    stack = np.full((50, 4, 4), 0.5) - 0.5 * np.eye(4)
    write_pairwise_stack(path, [f"s{k}" for k in range(50)], stack)
    assert read_pairwise_stack(path)[1].tobytes() == stack.tobytes()
    assert passed == [1, 50 * 6]  # the header line, then every data line at once


class TestSummaries:
    def test_bulk_writer_matches_row_by_row_format(self, tmp_path):
        ids = ["s0", 's,"1"', "s 2"]
        stats = np.sort(np.random.default_rng(3).random((13, 3)), axis=0)
        stats, excluded = np.stack([stats] * 3), np.array([0, 2, 0])
        write_summary_stack(tmp_path / "bulk.csv", ids, stats, excluded)
        summary_rows(tmp_path / "ref.csv", zip(ids, stats, excluded))
        assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_empty(self, tmp_path):
        write_summary_stack(tmp_path / "bulk.csv", [], np.zeros((0, 13, 0)), np.zeros(0, np.int64))
        summary_rows(tmp_path / "ref.csv", [])
        assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_hash_led_id_is_quoted(self, tmp_path):
        write_summary_stack(tmp_path / "s.csv", ["#a"], np.full((1, 13, 2), 0.5), np.array([1]))
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[2:]] == ['"#a"'] * 3


_P = np.array([[0.25, 0.75]])
_M = np.array([[[0.0, 0.25], [0.75, 0.0]]])
WRITERS = {
    "posterior_stack": lambda path, sid: write_posterior_stack(path, [sid], _P),
    "pairwise_stack": lambda path, sid: write_pairwise_stack(path, [sid], _M),
    "labels": lambda path, sid: write_labels(path, LabeledBatch(samples=((sid, 0),), c=2)),
    "summary_stack": lambda path, sid: write_summary_stack(
        path, [sid], np.full((1, 13, 2), 0.5), np.array([0])
    ),
    "features": lambda path, sid: write_features(path, [sid], np.zeros((1, 2))),
    "distance_stack": lambda path, sid: write_distance_stack(path, [sid], ["bc"], np.array([0.5])),
    # the bad sample_id after a good sample, and a posterior file with a comment
    "posteriors": lambda path, sid: write_posterior_stack(
        path, ["ok", sid], np.vstack([_P, _P]), failures=[("ok", "boom")]
    ),
    "pairwise": lambda path, sid: write_pairwise_stack(path, ["ok", sid], np.vstack([_M, _M])),
    "distances": lambda path, sid: write_distance_stack(
        path, ["ok", sid], ["bc", "wlw"], np.array([0.5, 0.25])
    ),
    "summaries": lambda path, sid: write_summary_stack(
        path, ["ok", sid], np.full((2, 13, 2), 0.5), np.array([0, 1])
    ),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
@pytest.mark.parametrize("sid", ["a\nb", "a\rb", "\r\n"])
def test_line_break_in_sample_id_rejected(tmp_path, writer, sid):
    """A sample_id with a line break cannot be read back, so no file is written."""
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=re.escape(f"sample_id {sid!r} contains a line break")):
        WRITERS[writer](path, sid)
    assert not path.exists()


# the sample_ids each writer's file reads back as
IDS_READ = {
    "posterior_stack": lambda path: read_posterior_stack(path)[0],
    "pairwise_stack": lambda path: read_pairwise_stack(path)[0],
    "labels": lambda path: [sid for sid, _ in read_labels(path).samples],
    "summary_stack": lambda path: read_summary_stack(path)[0],
    "features": lambda path: read_features(path)[0],
    "distance_stack": lambda path: read_distance_stack(path)[0],
}
IDS_READ.update(
    posteriors=IDS_READ["posterior_stack"], pairwise=IDS_READ["pairwise_stack"],
    distances=IDS_READ["distance_stack"], summaries=IDS_READ["summary_stack"],
)  # fmt: skip


@pytest.mark.parametrize("writer", sorted(WRITERS))
@pytest.mark.parametrize("head", [",", "x"], ids=["quoted", "unquoted"])
def test_sample_id_of_any_length_round_trips(tmp_path, writer, head):
    """A sample_id longer than the csv module's field limit is written and
    read back, quoted or not: no writer or reader limits a field's length."""
    path, sid = tmp_path / "out.csv", head + "x" * LIMIT
    WRITERS[writer](path, sid)
    assert IDS_READ[writer](path)[-1] == sid


COMMENTS = {
    "failure id": (
        lambda path: write_posterior_stack(path, ["a"], _P, failures=[("x\ny", "boom")]),
        "failed: x\ny: boom",
    ),
    "failure message": (
        lambda path: write_posterior_stack(path, ["a"], _P, failures=[("x", "bo\rom")]),
        "failed: x: bo\rom",
    ),
    "ols method": (
        lambda path: write_report(path, [("p.csv", "bc", 0.5, 0.25)], [("b\nc", 0.5, 0.1)]),
        "ols b\nc: slope=0.5 intercept=0.10000000000000001",
    ),
}


@pytest.mark.parametrize("case", sorted(COMMENTS))
def test_line_break_in_comment_rejected(tmp_path, case):
    """A comment line with a line break would split into a data row that its
    own reader rejects, so no file is written."""
    writer, text = COMMENTS[case]
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=re.escape(f"comment {text!r} contains a line break")):
        writer(path)
    assert not path.exists()


ANY_FLOAT = st.one_of(st.sampled_from(EDGE + [-0.0, float("inf"), float("nan")]), st.floats())


@pytest.mark.parametrize(
    "fmt",
    ["posterior", "pairwise", "labels", "distances", "summary", "features", "confusion", "report"],
)
@settings(max_examples=60, deadline=None)
@given(data=st.data(), ids=sample_ids, c=st.integers(min_value=1, max_value=5))
def test_writer_matches_row_by_row_oracle(tmp_path_factory, fmt, data, ids, c):
    """Each table writer writes the bytes of the row-by-row writer it replaced."""

    def floats(*shape):
        size = int(np.prod(shape))
        return np.array(data.draw(st.lists(ANY_FLOAT, min_size=size, max_size=size))).reshape(shape)

    def counts(size, top=2**63 - 1):
        return np.array(data.draw(st.lists(st.integers(0, top), min_size=size, max_size=size)))

    method = st.sampled_from(["bc", "wlw"])
    methods = data.draw(st.lists(method, min_size=len(ids), max_size=len(ids)))
    if fmt == "posterior":
        failures = [(ids[0], "a message, with 100% of a comma")]
        args = ids, floats(len(ids), c), failures
        writer, oracle = write_posterior_stack, oracles.posterior_rows
    elif fmt == "pairwise":
        failures = [(ids[0], "p_0 + p_1 = 0: 100% undefined")]
        args = ids, floats(len(ids), c, c), failures
        writer, oracle = write_pairwise_stack, oracles.pairwise_rows
    elif fmt == "labels":
        samples = tuple(zip(ids, counts(len(ids), 2**62).tolist()))
        args = (LabeledBatch(samples=samples, c=2**62 + 1),)
        writer, oracle = write_labels, lambda path, batch: oracles.label_rows(path, batch.samples)
    elif fmt == "distances":
        distances = floats(len(ids))
        args = ids, methods, distances
        writer = write_distance_stack
        oracle = lambda path, *cols: oracles.distance_rows(path, zip(*cols))  # noqa: E731
    elif fmt == "summary":
        stats, excluded = floats(len(ids), 13, c), counts(len(ids))
        args = ids, stats, excluded
        writer = write_summary_stack
        oracle = lambda path, *cols: oracles.summary_rows(path, zip(*cols))  # noqa: E731
    elif fmt == "features":
        args = ids, floats(len(ids), c)
        writer, oracle = write_features, oracles.feature_rows
    elif fmt == "confusion":
        args = (counts(c * c).reshape(c, c),)
        writer, oracle = write_confusion, oracles.confusion_rows
    else:
        # the row-by-row report writer did not quote a patch that reads as a comment
        patches = [sid for sid in ids if not sid.lstrip().startswith("#")]
        accuracies = floats(len(patches), 2).tolist()
        rows = [(patch, method, *acc) for patch, method, acc in zip(patches, methods, accuracies)]
        fits = [("bc", None, None), ("wlw", *floats(2).tolist())][: data.draw(st.integers(0, 2))]
        args = rows, fits
        writer, oracle = write_report, oracles.report_rows
    tmp = tmp_path_factory.mktemp("oracle")
    writer(tmp / "new.csv", *args)
    oracle(tmp / "old.csv", *args)
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()


def _same_outcome(path, read, build):
    """``read`` of the file at ``path`` and ``build`` of the same rows both
    return the same value, or both fail for the same reason: the reader's
    FormatError is the library's ValueError after a ``path:line:`` prefix."""
    try:
        expected = build()
    except ValueError as exc:
        with pytest.raises(FormatError) as error:
            read()
        line, reason = str(error.value).removeprefix(f"{path}:").split(": ", 1)
        assert line.isdigit() and reason == str(exc)
    else:
        assert read() == expected


def _patched(triples, c):
    correct_stack(np.full((1, c, c), 0.5), CorrectionPatch(pairs=triples))
    return triples


class TestReaderMatchesLibrary:
    """A label or patch file and the library type of the same rows accept the
    same inputs and reject a bad one for the same reason."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(["a", "b", "c", "s 1"]), st.integers(-1, 4)), max_size=6
        ),
        st.integers(1, 4),
    )
    def test_labels(self, tmp_path_factory, samples, c):
        path = tmp_path_factory.mktemp("labels") / "l.csv"
        rows = "".join(f"{sid},{label}\n" for sid, label in samples)
        path.write_text("# plm-v1\nsample_id,label\n" + rows)
        build = lambda: LabeledBatch(samples=samples, c=c)  # noqa: E731
        _same_outcome(path, lambda: read_labels(path, c=c), build)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(-1, 3),
                st.integers(0, 4),
                st.one_of(st.sampled_from([-0.5, 1.5, math.nan, 0.0, 1.0]), st.floats(0.0, 1.0)),
            ),
            max_size=5,
        ),
        st.integers(2, 4),
    )
    def test_patches(self, tmp_path_factory, triples, c):
        path = tmp_path_factory.mktemp("patch") / "p.csv"
        rows = "".join(f"{i},{j},{q!r}\n" for i, j, q in triples)
        path.write_text("# plm-v1\ni,j,prob_i\n" + rows)
        build = lambda: list(CorrectionPatch(pairs=triples).pairs)  # noqa: E731
        _same_outcome(path, lambda: read_patch(path), build)
        _same_outcome(path, lambda: read_patch(path, c=c), lambda: _patched(triples, c))
