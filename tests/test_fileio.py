import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmkit import LabeledBatch, Method, PairwiseLikelihoodMatrix, Posterior, fileio
from plmkit.abstention import SurenessScore
from plmkit.ensemble import EnsembleSummary
from plmkit.fileio import (
    FormatError,
    read_distances,
    read_labels,
    read_pairwise,
    read_pairwise_stack,
    read_posterior_stack,
    read_posteriors,
    write_distances,
    write_features,
    write_labels,
    write_pairwise,
    write_pairwise_stack,
    write_posterior_stack,
    write_posteriors,
    write_summaries,
    write_summary_stack,
)
from oracles import summary_rows

ONE_ULP_BELOW_1 = float(np.nextafter(1.0, 0.0))
SUBNORMAL = 5e-324
EDGE = [0.0, 1.0, SUBNORMAL, 1e-310, ONE_ULP_BELOW_1, 1.0 - ONE_ULP_BELOW_1]

sample_ids = st.lists(
    st.text(alphabet='ab1 ,"#_é', max_size=6), min_size=1, max_size=6, unique=True
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
        objects = read_pairwise(path)
        assert [sid for sid, _ in objects] == ids
        assert np.stack([m.entries for _, m in objects]).tobytes() == stack.tobytes()

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
        objects = read_posteriors(path)
        assert [sid for sid, _ in objects] == ids
        assert np.stack([p.probs for _, p in objects]).tobytes() == probs.tobytes()

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
        scores = [SurenessScore(*row) for row in zip(ids, methods, distances)]
        path = tmp_path_factory.mktemp("rt") / "dist.csv"
        write_distances(path, scores)
        got = read_distances(path)
        assert [row[:2] for row in got] == [(sid, m.value) for sid, m in zip(ids, methods)]
        assert np.array([d for _, _, d in got]).tobytes() == np.array(distances).tobytes()

    def test_hash_led_ids(self, tmp_path):
        write_labels(tmp_path / "lab.csv", LabeledBatch(samples=(("#a", 0), ("b", 1)), c=2))
        assert read_labels(tmp_path / "lab.csv").samples == (("#a", 0), ("b", 1))
        scores = [SurenessScore(sid, Method.BAYES_COVARIANT, 0.5) for sid in ("#a", "b")]
        write_distances(tmp_path / "dist.csv", scores)
        assert [sid for sid, _, _ in read_distances(tmp_path / "dist.csv")] == ["#a", "b"]

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
        if any(",2.7," in text for text in texts):
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


def _summary(c, excluded):
    rng = np.random.default_rng(c)
    stats = np.sort(rng.random((13, c)), axis=0)
    return EnsembleSummary(
        mean=stats[0], sd=stats[1], minimum=stats[2], maximum=stats[12], deciles=stats[3:12],
        n_samples=5, n_excluded=excluded,
    )


class TestSummaries:
    def test_bulk_writer_matches_row_by_row_format(self, tmp_path):
        summaries = [("s0", _summary(3, 0)), ('s,"1"', _summary(3, 2)), ("s 2", _summary(3, 0))]
        write_summaries(tmp_path / "bulk.csv", summaries)
        rows = [
            (sid, np.vstack([s.mean, s.sd, s.minimum, s.deciles, s.maximum]), s.n_excluded)
            for sid, s in summaries
        ]
        summary_rows(tmp_path / "ref.csv", rows)
        assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_empty(self, tmp_path):
        write_summaries(tmp_path / "bulk.csv", [])
        summary_rows(tmp_path / "ref.csv", [])
        assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_hash_led_id_is_quoted(self, tmp_path):
        write_summary_stack(tmp_path / "s.csv", ["#a"], np.full((1, 13, 2), 0.5), np.array([1]))
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[2:]] == ['"#a"'] * 3


_P = Posterior([0.25, 0.75])
_M = PairwiseLikelihoodMatrix([[0.0, 0.25], [0.75, 0.0]])
WRITERS = {
    "posterior_stack": lambda path, sid: write_posterior_stack(path, [sid], _P.probs[None]),
    "posteriors": lambda path, sid: write_posteriors(path, [(sid, _P)]),
    "pairwise_stack": lambda path, sid: write_pairwise_stack(path, [sid], _M.entries[None]),
    "pairwise": lambda path, sid: write_pairwise(path, [(sid, _M)]),
    "labels": lambda path, sid: write_labels(path, LabeledBatch(samples=((sid, 0),), c=2)),
    "distances": lambda path, sid: write_distances(
        path, [SurenessScore(sid, Method.BAYES_COVARIANT, 0.5)]
    ),
    "summary_stack": lambda path, sid: write_summary_stack(
        path, [sid], np.full((1, 13, 2), 0.5), np.array([0])
    ),
    "summaries": lambda path, sid: write_summaries(path, [(sid, _summary(2, 0))]),
    "features": lambda path, sid: write_features(path, [sid], np.zeros((1, 2))),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
@pytest.mark.parametrize("sid", ["a\nb", "a\rb", "\r\n"])
def test_line_break_in_sample_id_rejected(tmp_path, writer, sid):
    """A sample_id with a line break cannot be read back, so no file is written."""
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=re.escape(f"sample_id {sid!r} contains a line break")):
        WRITERS[writer](path, sid)
    assert not path.exists()
