"""End-to-end command-line workflow and exit-code contract."""

import csv
import json
import os
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from lutpool import cli, finetune, read_pnm, rgb_to_y, round_half_away, write_pnm
from lutpool.cli import main
from lutpool.lut import _pack_container


def run(*argv):
    return main(list(argv))


def write_test_image(path, size=16, high=240, seed=0):
    rng = np.random.default_rng(seed)
    img = rng.integers(0, high + 1, (size, size)).astype(np.uint8)
    write_pnm(path, img)
    return img


class TestBakeInspect:
    def test_bake_and_inspect_round_trip(self, tmp_path, capsys):
        out = tmp_path / "ident.lut"
        assert run("bake", "--rule", "identity", "--q", "4", "--out", str(out)) == 0
        assert out.exists()
        assert run("inspect", str(out), "--verify") == 0
        text = capsys.readouterr().out
        assert "q=4 n=4 m=1" in text
        assert "payload OK" in text

    def test_bake_rules(self, tmp_path):
        for rule in ("mean", "constant:128", "zero-residual", "bilinear-sr"):
            out = tmp_path / f"{rule.split(':')[0]}.lut"
            assert run("bake", "--rule", rule, "--q", "5", "--scale", "2",
                       "--out", str(out)) == 0
            assert out.exists()

    def test_unknown_rule_is_validation_error(self, tmp_path):
        assert run("bake", "--rule", "sharpen", "--q", "4",
                   "--out", str(tmp_path / "x.lut")) == 3

    def test_unknown_pattern_is_usage_error(self, tmp_path):
        assert run("bake", "--rule", "identity", "--q", "4", "--pattern", "Z",
                   "--out", str(tmp_path / "x.lut")) == 1

    def test_bilinear_needs_square_pattern(self, tmp_path):
        assert run("bake", "--rule", "bilinear-sr", "--q", "4", "--pattern", "D",
                   "--out", str(tmp_path / "x.lut")) == 3

    def test_inspect_missing_file(self, tmp_path):
        assert run("inspect", str(tmp_path / "nope.lut")) == 2

    def test_inspect_corrupt_file(self, tmp_path):
        bad = tmp_path / "bad.lut"
        bad.write_bytes(b"not a table container at all")
        assert run("inspect", str(bad)) == 2


class TestRestore:
    def test_identity_round_trip(self, tmp_path):
        lut = tmp_path / "ident.lut"
        assert run("bake", "--rule", "identity", "--q", "4", "--out", str(lut)) == 0
        src = tmp_path / "in.pgm"
        img = write_test_image(src)  # identity tables are exact up to 240
        dst = tmp_path / "out.pgm"
        assert run("restore", "--input", str(src), "--out", str(dst),
                   "--lut", str(lut)) == 0
        np.testing.assert_array_equal(read_pnm(dst), img)

    def test_color_input_collapses_to_luma(self, tmp_path):
        lut = tmp_path / "ident.lut"
        run("bake", "--rule", "identity", "--q", "4", "--out", str(lut))
        src = tmp_path / "in.ppm"
        write_pnm(src, np.full((8, 8, 3), 255, dtype=np.uint8))
        dst = tmp_path / "out.pgm"
        assert run("restore", "--input", str(src), "--out", str(dst),
                   "--lut", str(lut)) == 0
        np.testing.assert_array_equal(read_pnm(dst), 235)  # white maps to peak luma

    def test_color_bands_match_whole_frame_luma(self, tmp_path):
        rng = np.random.default_rng(31)
        for h, w in ((1, 1), (3, 5), (37, 29), (130, 300)):
            rgb = rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
            rgb[0, 0] = 0
            rgb[-1, -1] = 255
            rgb[h // 2, :, rng.integers(3)] = 255
            path = tmp_path / f"c{h}x{w}.ppm"
            write_pnm(path, rgb)
            want = round_half_away(rgb_to_y(rgb)).astype(np.uint8)
            got = cli._load_gray(path)
            assert got.dtype == np.uint8
            assert got.tobytes() == want.tobytes()

    def test_color_luma_memory_slope(self, tmp_path):
        peaks = {}
        for side in (256, 512):
            path = tmp_path / f"c{side}.ppm"
            write_pnm(path, np.random.default_rng(side).integers(
                0, 256, (side, side, 3)).astype(np.uint8))
            tracemalloc.start()
            try:
                gray = cli._load_gray(path)
                peaks[side] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert gray.shape == (side, side)
            del gray
        # the 3 B/px RGB read plus the uint8 plane; whole-frame float64
        # conversion took 43 B/px
        assert (peaks[512] - peaks[256]) / (512 ** 2 - 256 ** 2) <= 5.0

    def test_report_json(self, tmp_path):
        lut = tmp_path / "ident.lut"
        run("bake", "--rule", "identity", "--q", "4", "--out", str(lut))
        src = tmp_path / "in.pgm"
        write_test_image(src, size=8)
        report = tmp_path / "report.json"
        assert run("restore", "--input", str(src), "--out",
                   str(tmp_path / "out.pgm"), "--lut", str(lut),
                   "--report", str(report)) == 0
        doc = json.loads(report.read_text())
        assert doc["lut_queries"] == 64 * 4
        assert doc["coeff_queries"] == 0
        assert doc["cost_model"]["lut_queries_per_pixel"] == 4

    def test_missing_input_image(self, tmp_path):
        lut = tmp_path / "ident.lut"
        run("bake", "--rule", "identity", "--q", "4", "--out", str(lut))
        assert run("restore", "--input", str(tmp_path / "nope.pgm"),
                   "--out", str(tmp_path / "o.pgm"), "--lut", str(lut)) == 2

    def test_oversized_header_claim(self, tmp_path):
        lut = tmp_path / "ident.lut"
        run("bake", "--rule", "identity", "--q", "4", "--out", str(lut))
        src = tmp_path / "huge.pgm"
        src.write_bytes(b"P5\n40000 40000\n255\n" + bytes(8))
        assert run("restore", "--input", str(src), "--out", str(tmp_path / "o.pgm"),
                   "--lut", str(lut)) == 2

    def test_corrupt_table(self, tmp_path):
        bad = tmp_path / "bad.lut"
        bad.write_bytes(bytes(64))
        src = tmp_path / "in.pgm"
        write_test_image(src, size=8)
        assert run("restore", "--input", str(src),
                   "--out", str(tmp_path / "o.pgm"), "--lut", str(bad)) == 2

    @pytest.mark.parametrize("q, n, m, count", [
        (0, 1, 1, 17), (8, 1, 1, 17), (4, 0, 1, 1), (4, 1, 0, 0)])
    def test_bad_header_geometry(self, tmp_path, q, n, m, count):
        # CRC intact and entry count consistent with the header: only the
        # geometry itself is impossible
        bad = tmp_path / "bad.lut"
        bad.write_bytes(_pack_container(np.zeros(count, dtype=np.uint8), q, n, m, 0, 0, 8))
        src = tmp_path / "in.pgm"
        write_test_image(src, size=8)
        assert run("restore", "--input", str(src),
                   "--out", str(tmp_path / "o.pgm"), "--lut", str(bad)) == 2
        assert run("inspect", str(bad)) == 2

    @pytest.mark.parametrize("doc, key", [
        ({}, "'stages'"),
        ({"stages": 5}, "'stages'"),
        ([1, 2], "object"),
        ({"stages": [["ident.lut"]], "patterns": ["Q"]}, "'patterns'"),
        ({"stages": [[5]]}, "'stages'"),
        ({"stages": [["ident.lut"]], "pooling": "gmp"}, "'pooling'"),
        ({"stages": [["ident.lut"]], "pooling": {"tau": "small"}}, "'pooling.tau'"),
        ({"stages": [["ident.lut"]], "coeff_pattern": "Q"}, "'coeff_pattern'"),
        ({"stages": [["ident.lut"]], "residual": 1}, "'residual'"),
    ])
    def test_malformed_config_is_validation_error(self, tmp_path, capsys, doc, key):
        run("bake", "--rule", "identity", "--q", "4", "--out", str(tmp_path / "ident.lut"))
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps(doc))
        src = tmp_path / "in.pgm"
        write_test_image(src, size=8)
        capsys.readouterr()
        # main returning at all means no exception escaped: no traceback
        assert run("restore", "--input", str(src), "--out", str(tmp_path / "o.pgm"),
                   "--config", str(config)) == 3
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and key in err
        assert "Traceback" not in err
        assert not (tmp_path / "o.pgm").exists()

    def test_geometry_mismatch(self, tmp_path):
        # an upscale block table cannot serve a same-size restore task
        lut = tmp_path / "zr.lut"
        run("bake", "--rule", "zero-residual", "--q", "4", "--scale", "2",
            "--out", str(lut))
        src = tmp_path / "in.pgm"
        write_test_image(src, size=8)
        assert run("restore", "--input", str(src),
                   "--out", str(tmp_path / "o.pgm"), "--lut", str(lut),
                   "--task", "restore") == 3

    def test_no_table_given(self, tmp_path):
        src = tmp_path / "in.pgm"
        write_test_image(src, size=8)
        assert run("restore", "--input", str(src),
                   "--out", str(tmp_path / "o.pgm")) == 1

    def test_sr_upscales(self, tmp_path):
        lut = tmp_path / "bl.lut"
        run("bake", "--rule", "bilinear-sr", "--q", "4", "--scale", "2",
            "--out", str(lut))
        src = tmp_path / "in.pgm"
        write_test_image(src, size=8)
        dst = tmp_path / "out.pgm"
        assert run("restore", "--input", str(src), "--out", str(dst),
                   "--lut", str(lut), "--task", "sr", "--scale", "2") == 0
        assert read_pnm(dst).shape == (16, 16)


class TestConfigConflicts:
    """--config describes the whole pipeline: another pipeline flag is a usage error."""

    @pytest.fixture
    def files(self, tmp_path):
        assert run("bake", "--rule", "identity", "--q", "6",
                   "--out", str(tmp_path / "ident.lut")) == 0
        (tmp_path / "p.json").write_text(json.dumps({"stages": [["ident.lut"]]}))
        write_test_image(tmp_path / "in.pgm", size=8)
        return tmp_path

    @pytest.mark.parametrize("extra, named", [
        (["--lut", "ident.lut"], "--lut"),
        (["--pooling", "gmp"], "--pooling"),
        (["--lut", "ident.lut", "--pooling", "gmp", "--tau", "0.5"], "--lut, --pooling, --tau"),
    ])
    def test_restore(self, files, capsys, extra, named):
        extra = [str(files / a) if a.endswith(".lut") else a for a in extra]
        capsys.readouterr()
        code = run("restore", "--input", str(files / "in.pgm"), "--out", str(files / "o.pgm"),
                   "--config", str(files / "p.json"), *extra)
        assert code == 1
        assert capsys.readouterr().err == (
            f"usage error: --config describes the whole pipeline; drop {named}\n")
        assert not (files / "o.pgm").exists()

    def test_bench(self, files):
        assert run("bench", "--size", "8", "--runs", "1", "--config", str(files / "p.json"),
                   "--pooling", "gmp") == 1

    def test_flags_at_their_defaults_pass(self, files):
        assert run("restore", "--input", str(files / "in.pgm"), "--out", str(files / "o.pgm"),
                   "--config", str(files / "p.json"), "--pooling", "avg", "--tau", "1") == 0


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    """Small synthetic corpus shared by the eval/train CLI tests."""
    root = tmp_path_factory.mktemp("cli_data")
    assert run("dataset", "--out-dir", str(root), "--count", "12",
               "--size", "24", "--seed", "0", "--scale", "2") == 0
    return root


@pytest.fixture(scope="module")
def train_run_dir(dataset_dir, tmp_path_factory):
    """One short training run shared by the downstream CLI tests."""
    out_dir = tmp_path_factory.mktemp("cli_run")
    code = run("train", "--data", str(dataset_dir / "manifest.tsv"),
               "--task", "sr", "--scale", "2", "--q", "4",
               "--steps", "20", "--batch", "4", "--crop", "8",
               "--lr", "1e-3", "--val-interval", "10",
               "--out-dir", str(out_dir))
    assert code == 0
    return out_dir


class TestDataset:
    def test_writes_manifest_and_images(self, dataset_dir):
        manifest = dataset_dir / "manifest.tsv"
        assert manifest.exists()
        lines = [ln for ln in manifest.read_text().splitlines() if ln.strip()]
        assert len(lines) == 12
        img = read_pnm(dataset_dir / "img_000.pgm")
        assert img.shape == (24, 24)

    @pytest.mark.parametrize("count", ["8", "6"])
    def test_no_training_images_is_validation_error(self, tmp_path, count):
        # the last 8 images always go to the validation split
        assert run("dataset", "--out-dir", str(tmp_path / "d"), "--count", count) == 3
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("size", ["0", "-4", "47"])
    def test_size_not_a_positive_multiple_of_the_scale(self, tmp_path, capsys, size):
        capsys.readouterr()
        assert run("dataset", "--out-dir", str(tmp_path / "d"), "--count", "12",
                   "--size", size, "--scale", "2") == 3
        assert capsys.readouterr().err == (
            f"validation error: size {size} must be a positive multiple of scale 2\n")
        assert not (tmp_path / "d").exists()


class TestEval:
    def test_scores_split_with_baseline(self, dataset_dir, tmp_path):
        lut = tmp_path / "zr.lut"
        run("bake", "--rule", "zero-residual", "--q", "4", "--scale", "2",
            "--out", str(lut))
        out_csv = tmp_path / "scores.csv"
        code = run("eval", "--data", str(dataset_dir / "manifest.tsv"),
                   "--split", "val", "--lut", str(lut), "--task", "sr",
                   "--scale", "2", "--residual", "--with-baseline",
                   "--out", str(out_csv))
        assert code == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8 + 1
        assert rows[-1]["image"] == "mean"
        for row in rows:
            assert float(row["psnr_b"]) <= float(row["psnr"]) + 1e-9
            # a zero residual on top of bicubic IS the bicubic baseline
            assert float(row["psnr"]) == pytest.approx(
                float(row["psnr_bicubic"]), abs=1e-9)
            assert 0.0 <= float(row["ssim"]) <= 1.0

    def test_empty_split_is_validation_error(self, dataset_dir, tmp_path):
        lut = tmp_path / "ident.lut"
        run("bake", "--rule", "identity", "--q", "4", "--out", str(lut))
        assert run("eval", "--data", str(dataset_dir / "manifest.tsv"),
                   "--split", "test", "--lut", str(lut)) == 3

    def test_missing_manifest(self, tmp_path):
        lut = tmp_path / "ident.lut"
        run("bake", "--rule", "identity", "--q", "4", "--out", str(lut))
        assert run("eval", "--data", str(tmp_path / "none.tsv"),
                   "--lut", str(lut)) == 2


class TestBench:
    def test_counts_match_model(self, tmp_path, capsys):
        lut = tmp_path / "ident.lut"
        run("bake", "--rule", "identity", "--q", "4", "--out", str(lut))
        out_csv = tmp_path / "bench.csv"
        assert run("bench", "--size", "32", "--runs", "2", "--lut", str(lut),
                   "--out", str(out_csv)) == 0
        assert "counts match" in capsys.readouterr().out
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(int(r["lut_queries"]) == 32 * 32 * 4 for r in rows)

    @pytest.mark.parametrize("flag, value", [("--runs", "0"), ("--runs", "-1"),
                                             ("--size", "0"), ("--size", "-3")])
    @pytest.mark.parametrize("with_out", [False, True])
    def test_nonpositive_runs_or_size_is_usage_error(self, tmp_path, capsys, flag,
                                                     value, with_out):
        # rejected before the table is even read: the path does not exist
        argv = ["bench", flag, value, "--lut", str(tmp_path / "missing.lut")]
        out_csv = tmp_path / "bench.csv"
        if with_out:
            argv += ["--out", str(out_csv)]
        assert run(*argv) == 1
        captured = capsys.readouterr()
        assert f"{flag} must be at least 1" in captured.err
        assert "counts match" not in captured.out
        assert not out_csv.exists()


class TestTrainCommand:
    def test_run_directory_contents(self, train_run_dir):
        names = set(os.listdir(train_run_dir))
        assert {"pipeline.json", "report.json", "train_log.csv",
                "stage0_p0.lut", "stage0_p0.real.lut"} <= names
        doc = json.loads((train_run_dir / "pipeline.json").read_text())
        assert doc["task"] == "sr"
        assert doc["stages"] == [["stage0_p0.lut"]]
        assert doc["real_stages"] == [["stage0_p0.real.lut"]]
        report = json.loads((train_run_dir / "report.json").read_text())
        assert report["best_val_psnr"] >= report["val_history"][0][1]
        assert "export_psnr_drop" in report
        with open(train_run_dir / "train_log.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 20

    def test_pipeline_document(self, train_run_dir):
        doc = json.loads((train_run_dir / "pipeline.json").read_text())
        assert doc == {
            "task": "sr", "scale": 2, "patterns": ["S"], "orientations": [0, 1, 2, 3],
            "pooling": {"kind": "average", "tau": 1.0, "norm": "l2",
                        "coeff": None, "real_coeff": None},
            "residual": True, "stages": [["stage0_p0.lut"]],
            "real_stages": [["stage0_p0.real.lut"]], "coeff_pattern": "S"}

    def test_restore_from_config(self, train_run_dir, tmp_path):
        src = tmp_path / "in.pgm"
        write_test_image(src, size=12)
        dst = tmp_path / "out.pgm"
        assert run("restore", "--input", str(src), "--out", str(dst),
                   "--config", str(train_run_dir / "pipeline.json")) == 0
        assert read_pnm(dst).shape == (24, 24)

    def test_oap_training_redirected_to_finetune(self, dataset_dir, tmp_path):
        assert run("train", "--data", str(dataset_dir / "manifest.tsv"),
                   "--pooling", "oap", "--steps", "1",
                   "--out-dir", str(tmp_path / "x")) == 3

    def test_unknown_pooling_is_usage_error(self, dataset_dir, tmp_path):
        assert run("train", "--data", str(dataset_dir / "manifest.tsv"),
                   "--pooling", "softmax", "--steps", "1",
                   "--out-dir", str(tmp_path / "x")) == 1


class TestFinetuneCommand:
    def test_oap_finetune_writes_weight_tables(self, dataset_dir, train_run_dir,
                                               tmp_path):
        out_dir = tmp_path / "oap_run"
        code = run("finetune", "--data", str(dataset_dir / "manifest.tsv"),
                   "--from-dir", str(train_run_dir), "--pooling", "oap",
                   "--coeff-q", "5", "--steps", "4", "--batch", "4",
                   "--crop", "8", "--val-interval", "2",
                   "--out-dir", str(out_dir))
        assert code == 0
        names = set(os.listdir(out_dir))
        assert {"coeff.lut", "coeff.real.lut", "pipeline.json"} <= names
        doc = json.loads((out_dir / "pipeline.json").read_text())
        assert doc["pooling"]["kind"] == "oap"
        assert doc["pooling"]["coeff"] == "coeff.lut"
        report = json.loads((out_dir / "report.json").read_text())
        # zero-logit start means the fine-tune can never end below its base
        assert report["best_val_psnr"] >= report["val_history"][0][1]
        # the exported pipeline must load and run
        src = tmp_path / "in.pgm"
        write_test_image(src, size=12)
        assert run("restore", "--input", str(src),
                   "--out", str(tmp_path / "out.pgm"),
                   "--config", str(out_dir / "pipeline.json")) == 0

    def test_gmp_finetune(self, dataset_dir, train_run_dir, tmp_path):
        out_dir = tmp_path / "gmp_run"
        code = run("finetune", "--data", str(dataset_dir / "manifest.tsv"),
                   "--from-dir", str(train_run_dir), "--pooling", "gmp",
                   "--steps", "4", "--batch", "4", "--crop", "8",
                   "--val-interval", "2", "--out-dir", str(out_dir))
        assert code == 0
        doc = json.loads((out_dir / "pipeline.json").read_text())
        assert doc["pooling"]["kind"] == "gmp"
        assert doc["pooling"]["tau"] > 0.0

    def test_gmp_finetune_keeps_the_base_norm(self, dataset_dir, tmp_path,
                                              monkeypatch):
        base_dir = tmp_path / "l1_base"
        assert run("train", "--data", str(dataset_dir / "manifest.tsv"),
                   "--task", "sr", "--scale", "2", "--q", "4", "--pooling", "gmp",
                   "--norm", "l1", "--tau", "20", "--steps", "2", "--batch", "2",
                   "--crop", "8", "--val-interval", "1",
                   "--out-dir", str(base_dir)) == 0
        assert json.loads((base_dir / "pipeline.json").read_text())["pooling"]["norm"] == "l1"
        tuned = []

        def recording_finetune(*args, **kwargs):
            ft, report = finetune(*args, **kwargs)
            tuned.append(ft)
            return ft, report

        monkeypatch.setattr(cli, "finetune", recording_finetune)
        out_dir = tmp_path / "gmp_run"
        assert run("finetune", "--data", str(dataset_dir / "manifest.tsv"),
                   "--from-dir", str(base_dir), "--pooling", "gmp",
                   "--steps", "2", "--batch", "2", "--crop", "8",
                   "--val-interval", "1", "--out-dir", str(out_dir)) == 0
        assert tuned[0].to_config().pooling.norm == "l1"
        doc = json.loads((out_dir / "pipeline.json").read_text())
        assert doc["pooling"]["kind"] == "gmp"
        assert doc["pooling"]["norm"] == "l1"

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_tau_init_is_validation_error(self, dataset_dir, train_run_dir, tmp_path,
                                              capsys, value):
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("finetune", "--data", str(dataset_dir / "manifest.tsv"),
                       "--from-dir", str(train_run_dir), "--pooling", "gmp",
                       "--tau-init", value, "--steps", "2", "--batch", "2", "--crop", "8",
                       "--val-interval", "1", "--out-dir", str(tmp_path / "x"))
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("validation error: tau_init must be finite and positive")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("task", ["restore", "sr"])
    def test_cascade_base_is_refused(self, dataset_dir, tmp_path, capsys, task):
        """Training runs single-stage pipelines: a two-stage base is not cut to one."""
        base = tmp_path / "base"
        base.mkdir()
        assert run("bake", "--rule", "identity", "--q", "4", "--out", str(base / "id.lut")) == 0
        last = "id.lut"
        manifest = dataset_dir / "manifest.tsv"
        if task == "sr":
            last = "zr.lut"
            assert run("bake", "--rule", "zero-residual", "--q", "4", "--scale", "2",
                       "--out", str(base / last)) == 0
        else:
            # the same clean images, degraded by noise at their own size
            manifest = tmp_path / "restore.tsv"
            rows = [line.split("\t")[:2] for line in
                    (dataset_dir / "manifest.tsv").read_text().splitlines() if line.strip()]
            manifest.write_text("".join(f"{split}\t{dataset_dir / clean}\trecipe:awgn:15:0\n"
                                        for split, clean in rows))
        (base / "pipeline.json").write_text(json.dumps(
            {"task": task, "scale": 2, "residual": True,
             "stages": [["id.lut"], [last]]}))
        capsys.readouterr()
        code = run("finetune", "--data", str(manifest), "--from-dir", str(base),
                   "--pooling", "gmp", "--steps", "2", "--batch", "2", "--crop", "8",
                   "--val-interval", "1", "--out-dir", str(tmp_path / "x"))
        err = capsys.readouterr().err
        assert code == 3
        assert err == ("validation error: training runs single-stage pipelines; "
                       "this one has 2 stages\n")
        assert not (tmp_path / "x").exists()

    def test_pooling_required_to_be_fusion(self, dataset_dir, train_run_dir,
                                           tmp_path):
        assert run("finetune", "--data", str(dataset_dir / "manifest.tsv"),
                   "--from-dir", str(train_run_dir), "--pooling", "avg",
                   "--out-dir", str(tmp_path / "x")) == 1

    def test_missing_base_run(self, dataset_dir, tmp_path):
        assert run("finetune", "--data", str(dataset_dir / "manifest.tsv"),
                   "--from-dir", str(tmp_path / "nothing"), "--pooling", "oap",
                   "--out-dir", str(tmp_path / "x")) == 2


class TestGmpTemperature:
    """A gmp temperature must be finite and positive wherever a pipeline is given."""

    @pytest.fixture
    def files(self, tmp_path):
        assert run("bake", "--rule", "zero-residual", "--q", "4", "--scale", "2",
                   "--out", str(tmp_path / "zr.lut")) == 0
        write_test_image(tmp_path / "in.pgm", size=8)
        return tmp_path

    REFUSAL = "validation error: gmp temperature must be finite and positive"

    @staticmethod
    def refused(capsys, message, *argv):
        capsys.readouterr()
        code = run(*argv)
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(message)
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["restore", "eval", "bench"])
    @pytest.mark.parametrize("tau", ["inf", "nan", "0"])
    def test_flag(self, files, dataset_dir, capsys, command, tau):
        argv = {"restore": ["--input", str(files / "in.pgm"), "--out", str(files / "o.pgm")],
                "eval": ["--data", str(dataset_dir / "manifest.tsv")],
                "bench": ["--size", "8", "--runs", "1"]}[command]
        self.refused(capsys, self.REFUSAL, command, *argv, "--lut", str(files / "zr.lut"), "--task", "sr",
                     "--scale", "2", "--residual", "--pooling", "gmp", "--tau", tau)
        assert not (files / "o.pgm").exists()

    @pytest.mark.parametrize("tau, message", [
        ("Infinity", REFUSAL), ("1e999", REFUSAL),
        ("1" + "0" * 400, "validation error: pipeline.json: 'pooling.tau': int too large"),
    ], ids=["Infinity", "1e999", "1e400-integer"])
    def test_pipeline_document(self, files, capsys, tau, message):
        (files / "p.json").write_text(
            '{"task": "sr", "scale": 2, "residual": true, "stages": [["zr.lut"]], '
            f'"pooling": {{"kind": "gmp", "tau": {tau}}}}}')
        self.refused(capsys, message, "restore", "--input", str(files / "in.pgm"),
                     "--out", str(files / "o.pgm"), "--config", str(files / "p.json"))
        assert not (files / "o.pgm").exists()


class TestTopLevel:
    def test_no_subcommand_prints_help(self, capsys):
        assert run() == 1
        assert "bake" in capsys.readouterr().out

    def test_help_exits_zero(self):
        assert run("--help") == 0

    def test_unknown_flag_is_usage_error(self):
        assert run("bake", "--frobnicate") == 1


class TestFuzz:
    """Seeded mutations of pipeline.json documents, table containers and PNM headers.

    Every run of ``lutpool`` must end in exit 0, 2 (i/o) or 3
    (validation), never with an exception escaping ``main``.
    """

    CASES = 120
    VALUES = [None, True, False, 0, 1, 2, 3, 4, -1, 2 ** 40, 0.5, -0.0, 1e-320, 1e308,
              float("inf"), float("nan"), "", "S", "D", "Y", "Q", "sr", "restore", "avg",
              "average", "gmp", "oap", "l1", "l2", "ident.lut", "sr.lut", "missing.lut",
              "pipeline.json", ".", [], [0], [4], [0, 0], [[]], [["ident.lut"]], [["sr.lut"]],
              [["ident.lut", "ident.lut"]], [["ident.lut"], ["sr.lut"]], ["S", "D"], {},
              {"kind": "oap"}, {"kind": "gmp", "tau": 1e-320}, {"kind": "oap", "coeff": "ident.lut"}]
    BASE = {"task": "restore", "scale": 1, "stages": [["ident.lut"]], "patterns": ["S"],
            "orientations": [0, 1, 2, 3], "pooling": {"kind": "gmp", "tau": 8.0, "norm": "l2"},
            "residual": False, "coeff_pattern": "S"}

    @pytest.fixture
    def files(self, tmp_path):
        assert run("bake", "--rule", "identity", "--q", "6", "--out", str(tmp_path / "ident.lut")) == 0
        assert run("bake", "--rule", "zero-residual", "--q", "6", "--scale", "2",
                   "--out", str(tmp_path / "sr.lut")) == 0
        write_test_image(tmp_path / "in.pgm", size=8)
        return tmp_path

    @staticmethod
    def lutpool(capsys, *argv):
        capsys.readouterr()
        try:
            code = main(list(argv))
        except BaseException as exc:    # noqa: BLE001 -- the failure under test
            pytest.fail(f"{argv}: {exc!r} escaped main")
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (argv, code, err)
        assert "Traceback" not in err
        return code

    @pytest.mark.parametrize("flag", ["--val-interval", "--lr", "--reg-weight",
                                      "--steps", "--batch", "--crop", "--tau"])
    def test_train_flags(self, dataset_dir, tmp_path, capsys, flag):
        """Out-of-range numbers exit 3 with one line; the rest train (exit 0).

        Warnings are errors here: printed by the command line tool, a
        numpy warning would be more lines on stderr.  A run that trains
        writes a pipeline.json that is strict JSON.
        """
        short = {"--steps": "2", "--batch": "2", "--crop": "8", "--val-interval": "1"}
        if flag == "--tau":
            short["--pooling"] = "gmp"
        for value in ("0", "-1", "nan", "inf", "1e300"):
            flags = dict(short, **{flag: value})
            out_dir = tmp_path / f"run{value}"
            argv = ["train", "--data", str(dataset_dir / "manifest.tsv"),
                    "--out-dir", str(out_dir)]
            argv += [part for item in flags.items() for part in item]
            capsys.readouterr()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code = main(argv)
            except BaseException as exc:    # noqa: BLE001 -- the failure under test
                pytest.fail(f"{flag} {value}: {exc!r} escaped main")
            err = capsys.readouterr().err
            assert code in (0, 3), (flag, value, code, err)
            assert len(err.splitlines()) == (code == 3), (flag, value, err)
            if code == 0:
                json.loads((out_dir / "pipeline.json").read_text(),
                           parse_constant=lambda name: pytest.fail(f"{flag} {value}: {name}"))

    @pytest.mark.parametrize("argv", [["--crop", "100000", "--batch", "2"],
                                      ["--crop", "13"]])
    def test_crop_past_the_images_is_validation_error(self, dataset_dir, tmp_path, capsys,
                                                      monkeypatch, argv):
        # the 12 x 12 training inputs are checked before a batch is allocated
        monkeypatch.setattr(sys.modules["lutpool.train"], "sample_batch",
                            lambda *args: pytest.fail("sample_batch called"))
        capsys.readouterr()
        code = main(["train", "--data", str(dataset_dir / "manifest.tsv"),
                     "--out-dir", str(tmp_path / "run"), "--steps", "2", *argv])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("validation error: training pair 0: input shape (12, 12) "
                              "is smaller than crop")
        assert len(err.splitlines()) == 1

    def test_memory_error_is_one_line(self, tmp_path, capsys, monkeypatch):
        def exhausted(args):
            raise MemoryError("Unable to allocate 149. GiB for an array")

        monkeypatch.setattr(cli, "_cmd_dataset", exhausted)
        capsys.readouterr()
        assert main(["dataset", "--out-dir", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            "out of memory: Unable to allocate 149. GiB for an array\n")

    def restore(self, capsys, files, *argv):
        return self.lutpool(capsys, "restore", "--input", str(files / "in.pgm"),
                            "--out", str(files / "out.pgm"), *argv)

    def test_pipeline_documents(self, files, capsys):
        rng = np.random.default_rng(1019)
        keys = list(self.BASE) + ["unknown"]
        codes = set()
        for case in range(self.CASES):
            doc = json.loads(json.dumps(self.BASE))
            for _ in range(rng.integers(1, 4)):
                op = rng.integers(3)
                if op == 0:
                    doc[keys[rng.integers(len(keys))]] = self.VALUES[rng.integers(len(self.VALUES))]
                elif op == 1:
                    doc.pop(keys[rng.integers(len(keys))], None)
                elif isinstance(doc.get("pooling"), dict):
                    sub = ("kind", "tau", "norm", "coeff", "real_coeff")[rng.integers(5)]
                    doc["pooling"][sub] = self.VALUES[rng.integers(len(self.VALUES))]
            text = json.dumps(doc)
            if rng.random() < 0.2:
                at = int(rng.integers(len(text)))
                text = text[:at] if rng.random() < 0.5 else text[:at] + "}[,:0\"x"[rng.integers(7)] + text[at + 1:]
            (files / "pipeline.json").write_text(text)
            codes.add(self.restore(capsys, files, "--config", str(files / "pipeline.json")))
        assert codes == {0, 2, 3}

    def test_table_containers(self, files, capsys):
        rng = np.random.default_rng(1020)
        good = (files / "ident.lut").read_bytes()
        codes = set()
        for case in range(self.CASES):
            data = bytearray(good)
            op = rng.integers(4)
            if op == 0:          # a few bytes anywhere, most of them in the header
                for _ in range(rng.integers(1, 4)):
                    at = int(rng.integers(64 if rng.random() < 0.7 else len(data)))
                    data[at] = int(rng.integers(256))
            elif op == 1:        # a 32-bit field of the header
                at = int(rng.integers(0, 60))
                data[at:at + 4] = int(rng.integers(2 ** 32, dtype=np.uint64)).to_bytes(4, "little")
            elif op == 2:
                data = data[:int(rng.integers(len(data)))]
            else:
                data += rng.integers(0, 256, int(rng.integers(1, 64))).astype(np.uint8).tobytes()
            (files / "fuzz.lut").write_bytes(bytes(data))
            codes.add(self.restore(capsys, files, "--lut", str(files / "fuzz.lut")))
            self.lutpool(capsys, "inspect", str(files / "fuzz.lut"), "--verify")
        assert 2 in codes

    def test_pnm_headers(self, files, capsys):
        rng = np.random.default_rng(1021)
        payload = rng.integers(0, 241, 8 * 8 * 3).astype(np.uint8).tobytes()
        alphabet = b"P56 0123456789\n\t#x-+"
        codes = set()
        for case in range(self.CASES):
            magic = b"P5" if rng.random() < 0.7 else b"P6"
            header = bytearray(magic + b"\n8 8\n255\n")
            for _ in range(rng.integers(1, 4)):
                at = int(rng.integers(len(header)))
                op = rng.integers(3)
                char = alphabet[rng.integers(len(alphabet))]
                if op == 0:
                    header[at] = char
                elif op == 1:
                    header.insert(at, char)
                else:
                    del header[at]
            body = payload[:int(rng.integers(0, 8 * 8 * 3 + 1))] if rng.random() < 0.3 else payload
            (files / "fuzz.pgm").write_bytes(bytes(header) + body)
            codes.add(self.lutpool(capsys, "restore", "--input", str(files / "fuzz.pgm"),
                                   "--out", str(files / "out.pgm"),
                                   "--lut", str(files / "ident.lut")))
        assert codes == {0, 2}
