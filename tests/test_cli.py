import csv
import gc
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from plmkit import CouplingConfig, LabeledBatch, Method, NumericalFailureError, cli, ensemble
from plmkit.cli import main
from plmkit.coupling import couple_stack, theta_map_stack
from plmkit.ensemble import _pair_rng, summarize_stack
from plmkit.fileio import (
    read_distance_stack,
    read_pairwise_stack,
    read_posterior_stack,
    write_labels,
    write_pairwise_stack,
    write_posterior_stack,
)
from oracles import random_offmanifold, summary_rows

# child processes import plmkit from wherever this process does
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}

# an exact 0/1 entry: Bayes covariant coupling fails on it without stabilization
SINGULAR_BC = np.array([[[0.0, 1.0, 0.6], [0.0, 0.0, 0.6], [0.4, 0.4, 0.0]]])


@pytest.fixture
def posterior_file(tmp_path):
    path = tmp_path / "post.csv"
    probs = np.array([[0.2, 0.3, 0.5], [0.1, 0.1, 0.8], [1 / 3, 1 / 3, 1 / 3]])
    write_posterior_stack(path, ["a", "b", "c"], probs)
    return path


class TestRestrict:
    def test_values(self, tmp_path, posterior_file):
        out = tmp_path / "pair.csv"
        assert main(["restrict", str(posterior_file), str(out)]) == 0
        matrices = dict(zip(*read_pairwise_stack(out)))
        m = matrices["a"]
        assert m[0, 1] == pytest.approx(0.4)
        assert m[0, 2] == pytest.approx(0.2 / 0.7)
        assert m[1, 2] == pytest.approx(0.375)
        lines = out.read_text().splitlines()
        assert lines[0] == "# plm-v1"
        # upper-triangle rows only: 3 samples x 3 pairs + header
        assert len([l for l in lines if not l.startswith("#")]) == 10

    def test_empty_data_section(self, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("# plm-v1\nsample_id,p_0,p_1\n")
        out = tmp_path / "out.csv"
        assert main(["restrict", str(src), str(out)]) == 0

    def test_bad_sum_reports_line(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("sample_id,p_0,p_1\na,0.5,0.6\n")
        assert main(["restrict", str(src), str(tmp_path / "out.csv")]) == 1
        assert ":2:" in capsys.readouterr().err

    def test_zero_entry_restricts_to_exact_0_1(self, tmp_path):
        # a pair with one zero entry restricts to exact 0 and 1, which WLW couples
        src, pair, back = tmp_path / "post.csv", tmp_path / "pair.csv", tmp_path / "back.csv"
        src.write_text("sample_id,p_0,p_1,p_2\na,0.7,0.3,0\nb,0.2,0.3,0.5\n")
        assert main(["restrict", str(src), str(pair)]) == 0
        m = dict(zip(*read_pairwise_stack(pair)))["a"]
        assert m[0, 1] == 0.7 and m[0, 2] == 1.0 and m[1, 2] == 1.0
        assert m[2, 0] == 0.0 and m[2, 1] == 0.0
        assert main(["couple", str(pair), str(back), "--method", "wlw"]) == 0
        coupled = dict(zip(*read_posterior_stack(back)))
        np.testing.assert_allclose(coupled["a"], [0.7, 0.3, 0.0], atol=1e-12)
        np.testing.assert_allclose(coupled["b"], [0.2, 0.3, 0.5], atol=1e-12)

    def test_pair_without_mass_reported(self, tmp_path, capsys):
        """A row with a pair without mass is left out and reported after the rows,
        naming its first such pair; the other rows are written as they are alone."""
        src, alone = tmp_path / "post.csv", tmp_path / "alone.csv"
        src.write_text("sample_id,p_0,p_1,p_2\na,0.7,0.3,0\nb,1,0,0\nc,0.2,0.3,0.5\n")
        alone.write_text("sample_id,p_0,p_1,p_2\na,0.7,0.3,0\nc,0.2,0.3,0.5\n")
        out, ref = tmp_path / "pair.csv", tmp_path / "ref.csv"
        assert main(["restrict", str(alone), str(ref)]) == 0
        assert capsys.readouterr().err == ""
        assert main(["restrict", str(src), str(out)]) == 0
        failure = "failed: b: p_1 + p_2 = 0: pair restriction undefined"
        assert capsys.readouterr().err == failure + "\n"
        assert out.read_text() == ref.read_text() + f"# {failure}\n"

    def test_one_hot_synth_rows_reported(self, tmp_path, capsys):
        """A huge separation makes synth write one-hot rows (the other classes'
        squared distances overflow); restrict reports each one and exits 0."""
        post, labels, pair = tmp_path / "p.csv", tmp_path / "l.csv", tmp_path / "pw.csv"
        flags = ["--c", "3", "--n-per-class", "2", "--separation", "1e200"]
        assert main(["synth", str(post), str(labels), *flags]) == 0
        ids, probs = read_posterior_stack(post)
        assert np.array_equal(probs, np.eye(3)[[0, 0, 1, 1, 2, 2]])
        assert main(["restrict", str(post), str(pair)]) == 0
        # the first pair without mass of a one-hot row is the pair of its two zeros
        empty = {0: "p_1 + p_2", 1: "p_0 + p_2", 2: "p_0 + p_1"}
        failures = [
            f"failed: {sid}: {empty[k]} = 0: pair restriction undefined"
            for sid, k in zip(ids, np.argmax(probs, axis=1).tolist())
        ]
        assert capsys.readouterr().err.splitlines() == failures
        assert pair.read_text().splitlines()[2:] == [f"# {line}" for line in failures]
        assert read_pairwise_stack(pair)[0] == []


class TestCouple:
    @pytest.mark.parametrize("method", ["wlw", "bc"])
    def test_round_trip(self, tmp_path, posterior_file, method):
        pair = tmp_path / "pair.csv"
        back = tmp_path / "back.csv"
        assert main(["restrict", str(posterior_file), str(pair)]) == 0
        assert main(["couple", str(pair), str(back), "--method", method]) == 0
        original = dict(zip(*read_posterior_stack(posterior_file)))
        for sid, p in zip(*read_posterior_stack(back)):
            np.testing.assert_allclose(p, original[sid], atol=1e-7)

    def test_bc_singular_without_stabilization(self, tmp_path):
        pair = tmp_path / "pair.csv"
        write_pairwise_stack(pair, ["a"], SINGULAR_BC)
        out = tmp_path / "out.csv"
        assert main(["couple", str(pair), str(out), "--method", "bc", "--strict"]) == 2
        ids, probs = read_posterior_stack(out)
        assert ids == [] and probs.size == 0
        assert "# failed: a:" in out.read_text()

    def test_bc_succeeds_with_clip(self, tmp_path):
        pair = tmp_path / "pair.csv"
        write_pairwise_stack(pair, ["a"], SINGULAR_BC)
        out = tmp_path / "out.csv"
        rc = main(
            ["couple", str(pair), str(out), "--method", "bc",
             "--stabilize", "clip", "--tau", "1e-3", "--strict"]
        )
        assert rc == 0
        ids, probs = read_posterior_stack(out)
        assert ids == ["a"]
        assert probs[0].sum() == pytest.approx(1.0)

    def test_nonstrict_failure_exits_zero(self, tmp_path):
        pair = tmp_path / "pair.csv"
        write_pairwise_stack(pair, ["a"], SINGULAR_BC)
        assert main(["couple", str(pair), str(tmp_path / "o.csv"), "--method", "bc"]) == 0

    def test_drop_matches_library(self, tmp_path):
        """--stabilize drop writes couple_stack's rows under the same config; a
        class that loses a contest below rho, or all but one, reads exactly 0."""
        probs = np.array([[0.7, 0.25, 0.05], [0.2, 0.3, 0.5], [0.05, 0.05, 0.9]])
        pair, out = tmp_path / "pair.csv", tmp_path / "out.csv"
        write_pairwise_stack(pair, ["a", "b", "c"], theta_map_stack(probs))
        assert main(["couple", str(pair), str(out), "--stabilize", "drop", "--rho", "0.1"]) == 0
        ids, coupled = read_posterior_stack(out)
        config = CouplingConfig("wlw", "drop", rho=0.1)
        expected = couple_stack(read_pairwise_stack(pair)[1], config).probs
        assert ids == ["a", "b", "c"] and coupled.tobytes() == expected.tobytes()
        assert coupled[0, 2] == 0.0 and (coupled[1] > 0.0).all()
        assert coupled[2].tolist() == [0.0, 0.0, 1.0]

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("couple", ["--tau", "0.7"], "tau must be in (0, 0.5), got 0.7"),
            ("couple", ["--rho", "0"], "rho must be in (0, 0.5), got 0.0"),
            ("distance", ["--tau", "0.7"], "tau must be in (0, 0.5), got 0.7"),
        ],
    )
    def test_bad_threshold_rejected_before_reading(self, tmp_path, capsys, command, flags, message):
        out = tmp_path / "o.csv"
        assert main([command, str(tmp_path / "nosuch.csv"), str(out), *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


    def test_file_without_rows_rejected(self, tmp_path, capsys):
        """restrict writes no rows when every sample fails, and such a file
        holds no class count: couple writes nothing and exits 1."""
        post, labels, pair, back = (tmp_path / name for name in ("p.csv", "l.csv", "pw.csv", "b.csv"))
        flags = ["--c", "3", "--n-per-class", "2", "--separation", "1e200"]
        assert main(["synth", str(post), str(labels), *flags]) == 0
        assert main(["restrict", str(post), str(pair)]) == 0
        capsys.readouterr()
        assert main(["couple", str(pair), str(back)]) == 1
        assert capsys.readouterr().err == f"error: {pair}: no samples to couple\n"
        assert not back.exists()

    @pytest.mark.parametrize("method", ["wlw", "bc"])
    def test_file_without_rows_distance_and_calibrate(self, tmp_path, capsys, method):
        """distance on a pairwise file without rows writes a header-only file
        and exits 0; calibrate on that file has no distance and exits 1."""
        post, labels, pair, dist = (tmp_path / name for name in ("p.csv", "l.csv", "pw.csv", "d.csv"))
        flags = ["--c", "3", "--n-per-class", "2", "--separation", "1e200"]
        assert main(["synth", str(post), str(labels), *flags]) == 0
        assert main(["restrict", str(post), str(pair)]) == 0
        capsys.readouterr()
        assert main(["distance", str(pair), str(dist), "--method", method]) == 0
        assert dist.read_text() == "# plm-v1\nsample_id,method,distance\n"
        ids, methods, distances = read_distance_stack(dist)
        assert ids == [] and methods == [] and distances.shape == (0,)
        assert main(["calibrate", str(dist)]) == 1
        assert capsys.readouterr() == ("", "error: need at least one in-distribution distance\n")


class TestCorrect:
    def test_identity_patch_keeps_baseline(self, tmp_path, posterior_file):
        labels = tmp_path / "labels.csv"
        write_labels(labels, LabeledBatch(samples=(("a", 2), ("b", 2), ("c", 0)), c=3))
        patch = tmp_path / "patch.csv"
        patch.write_text("i,j,prob_i\n")  # empty patch = no change
        out = tmp_path / "report.csv"
        rc = main(
            ["correct", str(posterior_file), str(labels), str(out), "--patch", str(patch)]
        )
        assert rc == 0
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith(("#", "patch"))]
        # both methods reproduce the uncorrected baseline accuracy (2/3 + tie on c)
        accs = {r[1]: float(r[3]) for r in rows}
        assert accs["wlw"] == accs["bc"]

    def test_patch_path_with_comma_round_trips(self, tmp_path, posterior_file):
        labels = tmp_path / "labels.csv"
        write_labels(labels, LabeledBatch(samples=(("a", 2), ("b", 2), ("c", 0)), c=3))
        patches = [tmp_path / "p,1.csv", tmp_path / "p,2.csv"]
        patches[0].write_text("i,j,prob_i\n0,1,0.9\n")
        patches[1].write_text("i,j,prob_i\n0,2,0.1\n")
        out = tmp_path / "report.csv"
        args = ["correct", str(posterior_file), str(labels), str(out), "--ols"]
        assert main(args + ["--patch", str(patches[0]), "--patch", str(patches[1])]) == 0
        lines = out.read_text().splitlines()
        rows = list(csv.reader(l for l in lines if not l.startswith("#")))
        assert rows[0] == ["patch", "method", "pairwise_accuracy", "multiclass_accuracy"]
        assert [r[:2] for r in rows[1:]] == [
            [str(p), m] for p in patches for m in ("bc", "wlw")
        ]
        assert [l.split(":")[0] for l in lines[-2:]] == ["# ols bc", "# ols wlw"]

    def test_patch_class_out_of_range(self, tmp_path, posterior_file, capsys):
        labels = tmp_path / "labels.csv"
        write_labels(labels, LabeledBatch(samples=(("a", 2), ("b", 2), ("c", 0)), c=3))
        patch = tmp_path / "patch.csv"
        patch.write_text("i,j,prob_i\n0,1,0.5\n\n0,9,0.5\n")
        rc = main(
            ["correct", str(posterior_file), str(labels), str(tmp_path / "r.csv"),
             "--patch", str(patch)]
        )
        assert rc == 1
        assert not (tmp_path / "r.csv").exists()
        err = capsys.readouterr().err
        assert err == f"error: {patch}:4: patch pair (0,9) references class >= c=3\n"

    def test_missing_labels(self, tmp_path, posterior_file):
        labels = tmp_path / "labels.csv"
        write_labels(labels, LabeledBatch(samples=(("a", 2),), c=3))
        patch = tmp_path / "patch.csv"
        patch.write_text("i,j,prob_i\n0,1,0.5\n")
        rc = main(
            ["correct", str(posterior_file), str(labels), str(tmp_path / "r.csv"),
             "--patch", str(patch)]
        )
        assert rc == 1


    def test_ols_without_spread_is_undefined(self, tmp_path, posterior_file):
        labels = tmp_path / "labels.csv"
        write_labels(labels, LabeledBatch(samples=(("a", 2), ("b", 2), ("c", 0)), c=3))
        patches = [tmp_path / "p1.csv", tmp_path / "p2.csv"]
        patches[0].write_text("i,j,prob_i\n0,1,0.9\n")
        patches[1].write_text("i,j,prob_i\n0,1,0.8\n")  # same winner: same pair accuracy
        out = tmp_path / "report.csv"
        args = ["correct", str(posterior_file), str(labels), str(out), "--ols"]
        assert main(args + ["--patch", str(patches[0]), "--patch", str(patches[1])]) == 0
        ols = [l for l in out.read_text().splitlines() if l.startswith("# ols ")]
        assert ols == [
            f"# ols {m}: undefined (pairwise_accuracy has no spread)" for m in ("bc", "wlw")
        ]

    @pytest.mark.parametrize("patch_rows", ["", "0,1,0.9\n"], ids=["no x", "one x"])
    def test_ols_needs_two_distinct_x(self, tmp_path, posterior_file, patch_rows):
        labels = tmp_path / "labels.csv"
        write_labels(labels, LabeledBatch(samples=(("a", 2), ("b", 2), ("c", 0)), c=3))
        patch = tmp_path / "p.csv"
        patch.write_text("i,j,prob_i\n" + patch_rows)
        out = tmp_path / "report.csv"
        args = ["correct", str(posterior_file), str(labels), str(out), "--ols", "--patch", str(patch)]
        assert main(args) == 0
        ols = [l for l in out.read_text().splitlines() if l.startswith("# ols ")]
        assert ols == [
            f"# ols {m}: undefined (pairwise_accuracy has no spread)" for m in ("bc", "wlw")
        ]

    def test_ols_never_imports_numpy_ma(self, tmp_path, posterior_file):
        labels = tmp_path / "labels.csv"
        write_labels(labels, LabeledBatch(samples=(("a", 2), ("b", 2), ("c", 0)), c=3))
        patches = [tmp_path / "p1.csv", tmp_path / "p2.csv"]
        patches[0].write_text("i,j,prob_i\n0,1,0.9\n")
        patches[1].write_text("i,j,prob_i\n0,2,0.1\n")
        out = tmp_path / "report.csv"
        args = ["correct", str(posterior_file), str(labels), str(out), "--ols"]
        args += ["--patch", str(patches[0]), "--patch", str(patches[1])]
        script = (
            "import sys; from plmkit.cli import main; "
            f"print(main({[str(a) for a in args]!r}), 'numpy.ma' in sys.modules)"
        )
        run = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=CHILD_ENV
        )
        assert run.stdout == "0 False\n"
        fits = [l.split("=")[0] for l in out.read_text().splitlines()[-2:]]
        assert fits == ["# ols bc: slope", "# ols wlw: slope"]

    def test_exact_one_patch_couples_clipped(self, tmp_path):
        """A patch probability of exactly 1 is valid: BC couples it after the clip
        its distance is measured with, so the report is written."""
        post, labels = tmp_path / "post.csv", tmp_path / "labels.csv"
        assert main(["synth", str(post), str(labels), "--c", "3", "--n-per-class", "5"]) == 0
        patch = tmp_path / "patch.csv"
        patch.write_text("i,j,prob_i\n0,1,1.0\n")
        out = tmp_path / "report.csv"
        assert main(["correct", str(post), str(labels), str(out), "--patch", str(patch)]) == 0
        rows = list(csv.reader(l for l in out.read_text().splitlines() if not l.startswith("#")))
        assert [r[:2] for r in rows[1:]] == [[str(patch), "bc"], [str(patch), "wlw"]]

    def test_pair_without_mass_reported(self, tmp_path, capsys):
        """A sample with a pair without mass is left out of every row and reported
        after them; the rows are those of the files without it.  If every
        sample fails, the first failure is a numerical failure."""
        post, labels, patch = tmp_path / "post.csv", tmp_path / "labels.csv", tmp_path / "patch.csv"
        post.write_text("sample_id,p_0,p_1,p_2\ns0,1,0,0\ns1,0.2,0.3,0.5\ns2,0.6,0.3,0.1\n")
        labels.write_text("sample_id,label\ns0,0\ns1,1\ns2,0\n")
        patch.write_text("i,j,prob_i\n0,1,0.7\n")
        kept_post, kept_labels = tmp_path / "kept_post.csv", tmp_path / "kept_labels.csv"
        kept_post.write_text("sample_id,p_0,p_1,p_2\ns1,0.2,0.3,0.5\ns2,0.6,0.3,0.1\n")
        kept_labels.write_text("sample_id,label\ns1,1\ns2,0\n")
        out, ref = tmp_path / "report.csv", tmp_path / "ref.csv"
        flags = ["--patch", str(patch), "--ols"]
        assert main(["correct", str(kept_post), str(kept_labels), str(ref), *flags]) == 0
        assert capsys.readouterr().err == ""
        assert main(["correct", str(post), str(labels), str(out), *flags]) == 0
        failure = "failed: s0: p_1 + p_2 = 0: pair restriction undefined"
        assert capsys.readouterr().err == failure + "\n"
        assert out.read_text() == ref.read_text() + f"# {failure}\n"

        post.write_text("sample_id,p_0,p_1,p_2\ns0,1,0,0\ns1,0,1,0\n")
        assert main(["correct", str(post), str(labels), str(out), *flags]) == 2
        assert capsys.readouterr().err == "numerical failure: p_1 + p_2 = 0: pair restriction undefined\n"

    def test_restricts_once(self, tmp_path, posterior_file, monkeypatch):
        """Every patch is applied to the one restriction of the posteriors: a
        run restricts once however many patches it has, and each patch's rows
        are those of a run with that patch alone."""
        labels = tmp_path / "labels.csv"
        write_labels(labels, LabeledBatch(samples=(("a", 2), ("b", 2), ("c", 0)), c=3))
        patches = [tmp_path / f"p{k}.csv" for k in range(3)]
        for patch, rows in zip(patches, ["0,1,0.9\n", "0,2,0.1\n1,2,0.6\n", ""]):
            patch.write_text("i,j,prob_i\n" + rows)
        args, alone = ["correct", str(posterior_file), str(labels)], []
        for k, patch in enumerate(patches):
            out = tmp_path / f"alone{k}.csv"
            assert main([*args, str(out), "--patch", str(patch)]) == 0
            alone += out.read_text().splitlines()[2:]
        calls = []

        def counting(*args):
            calls.append(args)
            return theta_map_stack(*args)

        for module in (cli, ensemble):
            monkeypatch.setattr(module, "theta_map_stack", counting)
        out = tmp_path / "all.csv"
        flags = [flag for patch in patches for flag in ("--patch", str(patch))]
        assert main([*args, str(out), *flags]) == 0
        assert len(calls) == 1
        assert out.read_text().splitlines()[2:] == alone

    def test_empty_posteriors_rejected(self, tmp_path, capsys):
        post = tmp_path / "post.csv"
        post.write_text("sample_id,p_0,p_1\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("sample_id,label\n")
        patch = tmp_path / "patch.csv"
        patch.write_text("i,j,prob_i\n0,1,0.5\n")
        rc = main(["correct", str(post), str(labels), str(tmp_path / "r.csv"), "--patch", str(patch)])
        assert rc == 1
        assert "no samples" in capsys.readouterr().err


class TestReaders:
    def test_pairwise_mixed_class_counts(self, tmp_path, capsys):
        pair = tmp_path / "pair.csv"
        pair.write_text(
            "sample_id,i,j,r_ij\na,0,1,0.5\nb,0,1,0.4\nb,0,2,0.3\nb,1,2,0.6\n"
        )
        assert main(["couple", str(pair), str(tmp_path / "out.csv")]) == 1
        assert ":3:" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_posteriors_duplicate_sample_id(self, tmp_path, capsys):
        post = tmp_path / "post.csv"
        post.write_text("sample_id,p_0,p_1\na,0.5,0.5\nb,0.2,0.8\na,0.3,0.7\n")
        assert main(["restrict", str(post), str(tmp_path / "pair.csv")]) == 1
        assert ":4: duplicate sample_id 'a'" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-0.5"])
    def test_distances_must_be_finite_non_negative(self, tmp_path, capsys, bad):
        dist = tmp_path / "dist.csv"
        dist.write_text(f"sample_id,method,distance\na,bc,0.1\nb,bc,{bad}\nc,bc,0.2\n")
        assert main(["calibrate", str(dist)]) == 1
        assert ":3:" in capsys.readouterr().err


class TestBootstrap:
    def _write_sources(self, tmp_path):
        stack = theta_map_stack(np.array([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]]))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_pairwise_stack(a, ["s0", "s1"], stack)
        write_pairwise_stack(b, ["s0", "s1"], stack[::-1])
        return a, b

    def test_identical_sources_zero_spread(self, tmp_path):
        stack = theta_map_stack(np.array([[0.2, 0.3, 0.5]]))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_pairwise_stack(a, ["s0"], stack)
        write_pairwise_stack(b, ["s0"], stack)
        out = tmp_path / "sum.csv"
        assert main(["bootstrap", str(a), str(b), str(out), "--n", "20", "--seed", "1"]) == 0
        for line in out.read_text().splitlines():
            parts = line.split(",")
            if len(parts) > 3 and parts[1].isdigit():
                assert float(parts[3]) <= 1e-15  # sd column, up to mean rounding

    def test_seed_reproducibility_byte_identical(self, tmp_path):
        a, b = self._write_sources(tmp_path)
        o1 = tmp_path / "o1.csv"
        o2 = tmp_path / "o2.csv"
        args = [str(a), str(b), "--n", "50", "--seed", "9", "--method", "bc"]
        assert main(["bootstrap", args[0], args[1], str(o1)] + args[2:]) == 0
        assert main(["bootstrap", args[0], args[1], str(o2)] + args[2:]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_repeated_path_read_once(self, tmp_path, monkeypatch):
        a, _ = self._write_sources(tmp_path)
        copies = [tmp_path / f"copy{k}.csv" for k in range(3)]
        for copy in copies:
            copy.write_bytes(a.read_bytes())
        reads = []

        def counting(path):
            reads.append(path)
            return read_pairwise_stack(path)

        monkeypatch.setattr(cli, "read_pairwise_stack", counting)
        flags = ["--n", "30", "--seed", "4"]
        same, apart = tmp_path / "same.csv", tmp_path / "apart.csv"
        assert main(["bootstrap", str(a), str(a), str(a), str(same), *flags]) == 0
        assert reads == [str(a)]
        assert main(["bootstrap", *map(str, copies), str(apart), *flags]) == 0
        assert same.read_bytes() == apart.read_bytes()

    def test_never_imports_numpy_ma(self, tmp_path):
        a, b = self._write_sources(tmp_path)
        out = tmp_path / "o.csv"
        script = (
            "import sys; from plmkit.cli import main; "
            f"main(['bootstrap', {str(a)!r}, {str(b)!r}, {str(out)!r}]); "
            "print('numpy.ma' in sys.modules)"
        )
        run = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=CHILD_ENV
        )
        assert run.stdout == "False\n" and out.exists()

    def test_id_misalignment(self, tmp_path):
        stack = theta_map_stack(np.array([[0.2, 0.3, 0.5]]))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_pairwise_stack(a, ["s0"], stack)
        write_pairwise_stack(b, ["other"], stack)
        assert main(["bootstrap", str(a), str(b), str(tmp_path / "o.csv")]) == 1


    def test_class_count_mismatch_names_file(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_pairwise_stack(a, ["s0"], theta_map_stack(np.array([[0.1, 0.2, 0.3, 0.4]])))
        write_pairwise_stack(b, ["s0"], theta_map_stack(np.array([[0.2, 0.3, 0.5]])))
        assert main(["bootstrap", str(a), str(b), str(tmp_path / "o.csv")]) == 1
        assert f"error: {b}: class count c=3 differs from c=4 of {a}" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_n_below_one_rejected(self, tmp_path, capsys, n):
        a, b = self._write_sources(tmp_path)
        out = tmp_path / "o.csv"
        assert main(["bootstrap", str(a), str(b), str(out), "--n", n]) == 1
        assert capsys.readouterr().err == f"error: --n must be an integer >= 1, got {n}\n"
        assert not out.exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        a, b = self._write_sources(tmp_path)
        out = tmp_path / "o.csv"
        assert main(["bootstrap", str(a), str(b), str(out), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: --seed must be an integer in [0, 2**128), got -1\n"
        assert not out.exists()

    def test_seed_beyond_rule_refused_before_reading(self, tmp_path, capsys):
        a, b, out = tmp_path / "missing_a.csv", tmp_path / "missing_b.csv", tmp_path / "o.csv"
        assert main(["bootstrap", str(a), str(b), str(out), "--seed", str(2**128)]) == 1
        assert capsys.readouterr().err == (
            f"error: --seed must be an integer in [0, 2**128), got {2**128}\n"
        )
        assert list(tmp_path.iterdir()) == []

    # sample s draws from the streams of seed + s, so the last sample's seed is out of range
    def test_last_sample_seed_beyond_rule(self, tmp_path, capsys):
        a, b = self._write_sources(tmp_path)
        out = tmp_path / "o.csv"
        last = 2**128 - 1
        assert main(["bootstrap", str(a), str(b), str(out), "--seed", str(last)]) == 1
        assert capsys.readouterr().err == (
            f"error: seed must be an integer in [0, 2**128), got {last + 1}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("rows", ["rows", "no rows", "missing"])
    def test_one_input_refused_before_reading(self, tmp_path, capsys, rows):
        a, _ = self._write_sources(tmp_path)
        if rows == "no rows":
            write_pairwise_stack(a, [], np.zeros((0, 2, 2)))
        elif rows == "missing":
            a.unlink()
        out = tmp_path / "o.csv"
        assert main(["bootstrap", str(a), str(out)]) == 1
        assert capsys.readouterr().err == "error: need at least two source matrices\n"
        assert not out.exists()

    def test_empty_input_writes_header_only(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_pairwise_stack(a, [], np.zeros((0, 2, 2)))
        write_pairwise_stack(b, [], np.zeros((0, 2, 2)))
        out = tmp_path / "o.csv"
        assert main(["bootstrap", str(a), str(b), str(out), "--n", "5"]) == 0
        assert out.read_text().splitlines()[1:] == [
            "sample_id,class,mean,sd,min,d10,d20,d30,d40,d50,d60,d70,d80,d90,max"
        ]

    def test_sample_without_coupled_row_reported(self, tmp_path, capsys):
        """A sample none of whose recombinations couples is left out of the
        summary and reported, and the other samples are summarized as before."""
        post, labels = tmp_path / "post.csv", tmp_path / "labels.csv"
        assert main(["synth", str(post), str(labels), "--c", "3", "--n-per-class", "5"]) == 0
        ids, probs = read_posterior_stack(post)
        sources = [theta_map_stack(probs), theta_map_stack(probs[::-1])]
        good, bad = [tmp_path / "ok_a.csv", tmp_path / "ok_b.csv"], [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path, stack in zip(good, sources):
            write_pairwise_stack(path, ids, stack)
        for path, stack in zip(bad, sources):
            stack[0, 0, 1], stack[0, 1, 0] = 1.0, 0.0  # BC fails on every recombination of ids[0]
            write_pairwise_stack(path, ids, stack)
        out, ok = tmp_path / "o.csv", tmp_path / "ok.csv"
        flags = ["--n", "20", "--method", "bc"]
        assert main(["bootstrap", *map(str, good), str(ok), *flags]) == 0
        capsys.readouterr()
        assert main(["bootstrap", *map(str, bad), str(out), *flags]) == 0
        assert capsys.readouterr().err == f"failed: {ids[0]}: every matrix failed to couple\n"
        lines = out.read_text().splitlines()
        assert lines[-1] == f"# failed: {ids[0]}: every matrix failed to couple"
        assert lines[:-1] == [l for l in ok.read_text().splitlines() if not l.startswith(ids[0] + ",")]

    @pytest.mark.parametrize("method", ["wlw", "bc"])
    @pytest.mark.parametrize("n", ["1", "7", "300"])
    def test_matches_per_sample_oracle(self, tmp_path, method, n):
        """Each sample's summary is that of its own (seed + s, k) streams,
        coupled and summarized alone, whatever block it is processed in."""
        rng = np.random.default_rng(31)
        ids = ["s0", "s 1", "s,2", "s3", "s4"]
        paths = [tmp_path / f"src{k}.csv" for k in range(3)]
        for k, path in enumerate(paths):
            stack = np.stack([random_offmanifold(rng, 4) for _ in ids])
            if k == 2 and n != "1":
                stack[:, 0, 1], stack[:, 1, 0] = 1.0, 0.0  # BC fails where this pair is drawn
            order = slice(None, None, -1 if k == 1 else 1)  # rows in any order
            write_pairwise_stack(path, ids[order], stack[order])
        out = tmp_path / "o.csv"
        seed = 2**32 - 2
        flags = ["--n", n, "--seed", str(seed), "--method", method]
        assert main(["bootstrap", *map(str, paths), str(out), *flags]) == 0

        read = [dict(zip(*read_pairwise_stack(path))) for path in paths]
        sources = np.array([[by_id[sid] for by_id in read] for sid in ids])
        rows, cols = np.triu_indices(4, k=1)
        methods = {"wlw": Method.WU_LIN_WENG, "bc": Method.BAYES_COVARIANT}
        config = CouplingConfig(method=methods[method])
        expected = []
        for s, sid in enumerate(ids):
            mats = np.zeros((int(n), 4, 4))
            for k in range(int(n)):
                pick = _pair_rng(seed + s, k).integers(0, 3, size=rows.size)
                mats[k, rows, cols] = sources[s, pick, rows, cols]
                mats[k, cols, rows] = sources[s, pick, cols, rows]
            stats, excluded = summarize_stack(couple_stack(mats, config).probs[None])
            expected.append((sid, stats[0], int(excluded[0])))
        if method == "bc" and n == "300":
            assert all(0 < excluded < 300 for _, _, excluded in expected)
        summary_rows(tmp_path / "ref.csv", expected)
        assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestDistanceCalibrate:
    def test_distance_on_restrict_output_is_zero(self, tmp_path, posterior_file):
        pair = tmp_path / "pair.csv"
        dist = tmp_path / "dist.csv"
        assert main(["restrict", str(posterior_file), str(pair)]) == 0
        for method in ("wlw", "bc"):
            assert main(["distance", str(pair), str(dist), "--method", method]) == 0
            _, methods, distances = read_distance_stack(dist)
            assert methods == [method] * 3
            assert distances.max() <= 1e-10

    def test_calibrate_prints_threshold(self, tmp_path, capsys):
        dist = tmp_path / "dist.csv"
        lines = ["sample_id,method,distance"] + [f"s{k},bc,{k}" for k in range(1, 101)]
        dist.write_text("\n".join(lines) + "\n")
        assert main(["calibrate", str(dist), "--quantile", "0.95"]) == 0
        assert float(capsys.readouterr().out.strip()) == 95.0


class TestEvaluate:
    def test_perfect_predictions(self, tmp_path, posterior_file, capsys):
        labels = tmp_path / "labels.csv"
        write_labels(labels, LabeledBatch(samples=(("a", 2), ("b", 2), ("c", 0)), c=3))
        conf = tmp_path / "conf.csv"
        assert main(["evaluate", str(posterior_file), str(labels), str(conf)]) == 0
        out = capsys.readouterr().out
        assert "accuracy: 1" in out
        assert "worst_confused_pair: none" in out
        body = [l for l in conf.read_text().splitlines() if not l.startswith("#")]
        assert body[0] == "true\\pred,0,1,2"

    def test_worst_confused_pair(self, tmp_path, posterior_file, capsys):
        # predictions are 2, 2 and 0; the errors are (0,2) twice and (2,0) once
        labels = tmp_path / "labels.csv"
        write_labels(labels, LabeledBatch(samples=(("a", 0), ("b", 0), ("c", 2)), c=3))
        assert main(["evaluate", str(posterior_file), str(labels), str(tmp_path / "conf.csv")]) == 0
        assert capsys.readouterr().out == "accuracy: 0\nworst_confused_pair: (0,2) errors=3\n"

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("a,2\n# x\nb,5\nc,0\n", "4: label 5 for sample 'b' is not an integer in [0, 3)"),
            ("a,2\nb,2\n\na,0\nc,0\n", "5: duplicate sample_id 'a'"),
        ],
    )
    def test_label_errors_name_the_line(self, tmp_path, posterior_file, capsys, rows, message):
        labels = tmp_path / "labels.csv"
        labels.write_text("sample_id,label\n" + rows)
        assert main(["evaluate", str(posterior_file), str(labels), str(tmp_path / "conf.csv")]) == 1
        assert capsys.readouterr().err == f"error: {labels}:{message}\n"

    def test_empty_inputs_rejected(self, tmp_path, capsys):
        post, labels, conf = (tmp_path / name for name in ("p.csv", "l.csv", "conf.csv"))
        post.write_text("# plm-v1\nsample_id,p_0,p_1\n")
        labels.write_text("# plm-v1\nsample_id,label\n")
        assert main(["evaluate", str(post), str(labels), str(conf)]) == 1
        assert capsys.readouterr().err == "error: empty prediction list\n"
        assert not conf.exists()


class TestSynth:
    def test_deterministic_files(self, tmp_path):
        args = ["--c", "3", "--n-per-class", "10", "--seed", "4"]
        files1 = (tmp_path / "p1.csv", tmp_path / "l1.csv")
        files2 = (tmp_path / "p2.csv", tmp_path / "l2.csv")
        assert main(["synth", str(files1[0]), str(files1[1])] + args) == 0
        assert main(["synth", str(files2[0]), str(files2[1])] + args) == 0
        assert files1[0].read_bytes() == files2[0].read_bytes()
        assert files1[1].read_bytes() == files2[1].read_bytes()

    def test_outputs_reparse(self, tmp_path):
        post = tmp_path / "p.csv"
        labels = tmp_path / "l.csv"
        assert main(["synth", str(post), str(labels), "--c", "4", "--n-per-class", "5"]) == 0
        ids, probs = read_posterior_stack(post)
        assert len(ids) == 20
        assert probs.shape == (20, 4)

    def test_features_file(self, tmp_path):
        post, labels, feats = (tmp_path / name for name in ("p.csv", "l.csv", "f.csv"))
        args = ["--c", "3", "--dim", "2", "--n-per-class", "4", "--features", str(feats)]
        assert main(["synth", str(post), str(labels)] + args) == 0
        lines = feats.read_text().splitlines()
        assert lines[:2] == ["# plm-v1", "sample_id,x_0,x_1"]
        rows = list(csv.reader(lines[2:]))
        assert [r[0] for r in rows] == read_posterior_stack(post)[0]
        assert all(len(r) == 3 and np.isfinite([float(x) for x in r[1:]]).all() for r in rows)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--c", "1"], "c must be an integer >= 2, got 1"),
            (["--c", "0"], "c must be an integer >= 2, got 0"),
            (["--c", "-2", "--dim", "3"], "c must be an integer >= 2, got -2"),
            (["--dim", "0"], "dim must be an integer >= 1, got 0"),
            (["--c", "4", "--dim", "-1"], "dim must be an integer >= 1, got -1"),
        ],
    )
    def test_bad_shape_rejected(self, tmp_path, capsys, flags, message):
        post, labels, feats = (tmp_path / name for name in ("p.csv", "l.csv", "f.csv"))
        assert main(["synth", str(post), str(labels), "--features", str(feats), *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--scale", "nan"], "scale must be finite and positive, got nan"),
            (["--scale", "inf"], "scale must be finite and positive, got inf"),
            (["--separation", "nan"], "means must be finite"),
        ],
    )
    def test_non_finite_spec_rejected(self, tmp_path, capsys, flags, message):
        """Such a spec would write posterior rows that plmkit's reader rejects."""
        post, labels, feats = (tmp_path / name for name in ("p.csv", "l.csv", "f.csv"))
        assert main(["synth", str(post), str(labels), "--features", str(feats), *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_rejected(self, tmp_path, capsys):
        post, labels = tmp_path / "p.csv", tmp_path / "l.csv"
        assert main(["synth", str(post), str(labels), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be an integer in [0, 2**128), got -1\n"
        assert list(tmp_path.iterdir()) == []

    # a finite scale whose posteriors are not, as scale**2 underflows to 0;
    # rejected before the labels are written, and without a RuntimeWarning
    # (the suite makes one an error)
    @pytest.mark.parametrize("scale", ["1e-170", "1e-300"])
    def test_non_finite_posterior_rejected(self, tmp_path, capsys, scale):
        post, labels, feats = (tmp_path / name for name in ("p.csv", "l.csv", "f.csv"))
        args = ["--c", "3", "--n-per-class", "2", "--features", str(feats), "--scale", scale]
        assert main(["synth", str(post), str(labels), *args]) == 1
        assert capsys.readouterr().err == f"error: posteriors are not finite at scale {scale}\n"
        assert list(tmp_path.iterdir()) == []


class TestVersionFlag:
    def test_version_mentions_format(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "plm-v1" in capsys.readouterr().out


class TestCommandImports:
    """Each command imports only the plmkit modules it runs."""

    @pytest.mark.parametrize(
        "command, uses", [("restrict", []), ("couple", []), ("distance", ["abstention"])]
    )
    def test_loads_only_its_modules(self, tmp_path, posterior_file, command, uses):
        pair = tmp_path / "pair.csv"
        assert main(["restrict", str(posterior_file), str(pair)]) == 0
        source = posterior_file if command == "restrict" else pair
        out = tmp_path / "out.csv"
        script = (
            "import sys; from plmkit.cli import main; "
            f"code = main([{command!r}, {str(source)!r}, {str(out)!r}]); "
            "print(code, [m for m in ('abstention', 'datagen', 'ensemble', 'metrics') "
            "if 'plmkit.' + m in sys.modules])"
        )
        run = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=CHILD_ENV
        )
        assert run.stdout == f"0 {uses}\n" and out.exists()


class TestEntryPoints:
    def test_library_failure_exits_2(self, tmp_path, posterior_file, monkeypatch, capsys):
        # any PlmError that is not a FormatError is a numerical failure
        def fail(args):
            raise NumericalFailureError("solver diverged")

        monkeypatch.setattr(cli, "cmd_restrict", fail)
        assert main(["restrict", str(posterior_file), str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == "numerical failure: solver diverged\n"

    def test_main_does_not_freeze(self, tmp_path, posterior_file):
        before = gc.get_freeze_count()
        assert main(["restrict", str(posterior_file), str(tmp_path / "pair.csv")]) == 0
        assert gc.get_freeze_count() == before

    @pytest.fixture
    def inputs(self, tmp_path, posterior_file):
        (tmp_path / "good.csv").write_bytes(posterior_file.read_bytes())
        (tmp_path / "bad.csv").write_text("sample_id,p_0,p_1\na,0.5,0.6\n")
        write_pairwise_stack(tmp_path / "pair.csv", ["a"], SINGULAR_BC)
        return tmp_path

    @pytest.mark.parametrize(
        "args, code, err",
        [
            (["restrict", "good.csv", "o.csv"], 0, ""),
            (
                ["restrict", "bad.csv", "o.csv"],
                1,
                "error: bad.csv:2: posterior sums to 1.1, outside tolerance 1e-09\n",
            ),
            (
                ["couple", "pair.csv", "o.csv", "--method", "bc", "--stabilize", "none", "--strict"],
                2,
                "failed: a: pairwise entry at 0 or 1: log-odds map diverges "
                "(apply clip stabilization)\n",
            ),
            # a tau whose complement rounds to 1 would clip to an exact 1
            (
                ["couple", "pair.csv", "o.csv", "--method", "bc", "--stabilize", "clip",
                 "--tau", "1e-17"],
                1,
                "error: tau must be in (0, 0.5), got 1e-17\n",
            ),
        ],
    )
    def test_module_run_exit_code_and_stderr(self, inputs, args, code, err):
        run = subprocess.run(
            [sys.executable, "-m", "plmkit.cli", *args],
            capture_output=True, text=True, env=CHILD_ENV, cwd=inputs,
        )
        assert (run.returncode, run.stdout, run.stderr) == (code, "", err)

    @pytest.mark.parametrize("source, code", [("good.csv", 0), ("bad.csv", 1)])
    def test_console_script_returns_exit_code(self, inputs, source, code):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["plmkit"]
        module, func = target.split(":")
        script = (
            f"import gc, sys; from {module} import {func}; "
            f"sys.argv = ['plmkit', 'restrict', {source!r}, 'o.csv']; "
            f"print({func}(), gc.get_freeze_count() > 0)"
        )
        run = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=CHILD_ENV, cwd=inputs
        )
        assert run.stdout == f"{code} True\n"
