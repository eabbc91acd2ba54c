"""End-to-end command-line workflow and exit-code contract."""

import csv
import json
import os

import numpy as np
import pytest

from lutpool import read_pnm, write_pnm
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

    def test_pooling_required_to_be_fusion(self, dataset_dir, train_run_dir,
                                           tmp_path):
        assert run("finetune", "--data", str(dataset_dir / "manifest.tsv"),
                   "--from-dir", str(train_run_dir), "--pooling", "avg",
                   "--out-dir", str(tmp_path / "x")) == 1

    def test_missing_base_run(self, dataset_dir, tmp_path):
        assert run("finetune", "--data", str(dataset_dir / "manifest.tsv"),
                   "--from-dir", str(tmp_path / "nothing"), "--pooling", "oap",
                   "--out-dir", str(tmp_path / "x")) == 2


class TestTopLevel:
    def test_no_subcommand_prints_help(self, capsys):
        assert run() == 1
        assert "bake" in capsys.readouterr().out

    def test_help_exits_zero(self):
        assert run("--help") == 0

    def test_unknown_flag_is_usage_error(self):
        assert run("bake", "--frobnicate") == 1
