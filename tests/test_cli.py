import csv
import gc
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from plmkit import LabeledBatch, Posterior, cli
from plmkit.cli import main
from plmkit.fileio import (
    read_distances,
    read_pairwise,
    read_posteriors,
    write_labels,
    write_pairwise,
    write_posteriors,
)
from plmkit import CouplingConfig, Method, PairwiseLikelihoodMatrix, theta_map
from plmkit.coupling import couple_stack
from plmkit.ensemble import _pair_rng, summarize
from plmkit.fileio import read_pairwise_stack, write_pairwise_stack
from oracles import random_offmanifold, summary_rows

# child processes import plmkit from wherever this process does
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}


@pytest.fixture
def posterior_file(tmp_path):
    path = tmp_path / "post.csv"
    write_posteriors(
        path,
        [
            ("a", Posterior([0.2, 0.3, 0.5])),
            ("b", Posterior([0.1, 0.1, 0.8])),
            ("c", Posterior([1 / 3, 1 / 3, 1 / 3])),
        ],
    )
    return path


class TestRestrict:
    def test_values(self, tmp_path, posterior_file):
        out = tmp_path / "pair.csv"
        assert main(["restrict", str(posterior_file), str(out)]) == 0
        matrices = dict(read_pairwise(out))
        m = matrices["a"].entries
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


class TestCouple:
    @pytest.mark.parametrize("method", ["wlw", "bc"])
    def test_round_trip(self, tmp_path, posterior_file, method):
        pair = tmp_path / "pair.csv"
        back = tmp_path / "back.csv"
        assert main(["restrict", str(posterior_file), str(pair)]) == 0
        assert main(["couple", str(pair), str(back), "--method", method]) == 0
        original = dict(read_posteriors(posterior_file))
        for sid, p in read_posteriors(back):
            np.testing.assert_allclose(p.probs, original[sid].probs, atol=1e-7)

    def test_bc_singular_without_stabilization(self, tmp_path):
        pair = tmp_path / "pair.csv"
        m = PairwiseLikelihoodMatrix([[0.0, 1.0, 0.6], [0.0, 0.0, 0.6], [0.4, 0.4, 0.0]])
        write_pairwise(pair, [("a", m)])
        out = tmp_path / "out.csv"
        assert main(["couple", str(pair), str(out), "--method", "bc", "--strict"]) == 2
        assert read_posteriors(out) == []
        assert "# failed: a:" in out.read_text()

    def test_bc_succeeds_with_clip(self, tmp_path):
        pair = tmp_path / "pair.csv"
        m = PairwiseLikelihoodMatrix([[0.0, 1.0, 0.6], [0.0, 0.0, 0.6], [0.4, 0.4, 0.0]])
        write_pairwise(pair, [("a", m)])
        out = tmp_path / "out.csv"
        rc = main(
            ["couple", str(pair), str(out), "--method", "bc",
             "--stabilize", "clip", "--tau", "1e-3", "--strict"]
        )
        assert rc == 0
        (sid, p), = read_posteriors(out)
        assert sid == "a"
        assert p.probs.sum() == pytest.approx(1.0)

    def test_nonstrict_failure_exits_zero(self, tmp_path):
        pair = tmp_path / "pair.csv"
        m = PairwiseLikelihoodMatrix([[0.0, 1.0, 0.6], [0.0, 0.0, 0.6], [0.4, 0.4, 0.0]])
        write_pairwise(pair, [("a", m)])
        assert main(["couple", str(pair), str(tmp_path / "o.csv"), "--method", "bc"]) == 0


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
        patch.write_text("i,j,prob_i\n0,9,0.5\n")
        rc = main(
            ["correct", str(posterior_file), str(labels), str(tmp_path / "r.csv"),
             "--patch", str(patch)]
        )
        assert rc == 1
        assert not (tmp_path / "r.csv").exists()

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
        p1 = Posterior([0.2, 0.3, 0.5])
        p2 = Posterior([0.6, 0.3, 0.1])
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_pairwise(a, [("s0", theta_map(p1)), ("s1", theta_map(p2))])
        write_pairwise(b, [("s0", theta_map(p2)), ("s1", theta_map(p1))])
        return a, b

    def test_identical_sources_zero_spread(self, tmp_path):
        p = Posterior([0.2, 0.3, 0.5])
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_pairwise(a, [("s0", theta_map(p))])
        write_pairwise(b, [("s0", theta_map(p))])
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
        p = Posterior([0.2, 0.3, 0.5])
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_pairwise(a, [("s0", theta_map(p))])
        write_pairwise(b, [("other", theta_map(p))])
        assert main(["bootstrap", str(a), str(b), str(tmp_path / "o.csv")]) == 1


    def test_class_count_mismatch_names_file(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_pairwise(a, [("s0", theta_map(Posterior([0.1, 0.2, 0.3, 0.4])))])
        write_pairwise(b, [("s0", theta_map(Posterior([0.2, 0.3, 0.5])))])
        assert main(["bootstrap", str(a), str(b), str(tmp_path / "o.csv")]) == 1
        assert f"error: {b}: class count c=3 differs from c=4 of {a}" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_n_below_one_rejected(self, tmp_path, capsys, n):
        a, b = self._write_sources(tmp_path)
        out = tmp_path / "o.csv"
        assert main(["bootstrap", str(a), str(b), str(out), "--n", n]) == 1
        assert capsys.readouterr().err == f"error: --n must be at least 1, got {n}\n"
        assert not out.exists()

    def test_empty_input_writes_header_only(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_pairwise(a, [])
        write_pairwise(b, [])
        out = tmp_path / "o.csv"
        assert main(["bootstrap", str(a), str(b), str(out), "--n", "5"]) == 0
        assert out.read_text().splitlines()[1:] == [
            "sample_id,class,mean,sd,min,d10,d20,d30,d40,d50,d60,d70,d80,d90,max"
        ]

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
            one = summarize(couple_stack(mats, config))
            stats = np.vstack([one.mean, one.sd, one.minimum, one.deciles, one.maximum])
            expected.append((sid, stats, one.n_excluded))
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
            for _, m, d in read_distances(dist):
                assert m == method
                assert d <= 1e-10

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
        posteriors = read_posteriors(post)
        assert len(posteriors) == 20
        assert all(p.c == 4 for _, p in posteriors)

    def test_features_file(self, tmp_path):
        post, labels, feats = (tmp_path / name for name in ("p.csv", "l.csv", "f.csv"))
        args = ["--c", "3", "--dim", "2", "--n-per-class", "4", "--features", str(feats)]
        assert main(["synth", str(post), str(labels)] + args) == 0
        lines = feats.read_text().splitlines()
        assert lines[:2] == ["# plm-v1", "sample_id,x_0,x_1"]
        rows = list(csv.reader(lines[2:]))
        assert [r[0] for r in rows] == [sid for sid, _ in read_posteriors(post)]
        assert all(len(r) == 3 and np.isfinite([float(x) for x in r[1:]]).all() for r in rows)


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
    def test_main_does_not_freeze(self, tmp_path, posterior_file):
        before = gc.get_freeze_count()
        assert main(["restrict", str(posterior_file), str(tmp_path / "pair.csv")]) == 0
        assert gc.get_freeze_count() == before

    @pytest.fixture
    def inputs(self, tmp_path, posterior_file):
        (tmp_path / "good.csv").write_bytes(posterior_file.read_bytes())
        (tmp_path / "bad.csv").write_text("sample_id,p_0,p_1\na,0.5,0.6\n")
        m = PairwiseLikelihoodMatrix([[0.0, 1.0, 0.6], [0.0, 0.0, 0.6], [0.4, 0.4, 0.0]])
        write_pairwise(tmp_path / "pair.csv", [("a", m)])
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
