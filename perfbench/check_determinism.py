"""Shortened benchmark runs: exact counts and val_psnr_db must repeat.

Runs every workload at reduced sizes, twice with the same seed, and
requires identical counts from the traced run and identical
``val_psnr_db`` from the untraced run, with no failed operation.  Also
checks that the benchmark refuses to run without the package source.

    python3 -m pytest -q perfbench/check_determinism.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_package()

import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402

SMALL_FRAMES = W.FrameSpec(frame_sizes=(32, 48), frame_count=4, min_frames=12, trace_frames=6,
                           probe_size=96, anchors=3, setup_reps=2,
                           bake_every=4)
SMALL_TRAIN = W.TrainSpec(corpus=24, val=4, steps=12, finetune_steps=4, lr=0.2,
                          val_interval=6, finetune_val_interval=2, deploy_sizes=(32, 48),
                          deploy_count=2, deploy_per_op=4, min_frames=6,
                          replay_stride=3, setup_reps=1)

EXACT = W.COUNTS + ("lut.useful_corner_frac",)


def small(name):
    workload = W.WORKLOADS[name]
    if isinstance(workload, W.TrainWorkload):
        return W.TrainWorkload(SMALL_TRAIN)
    return W.InferenceWorkload(workload.name, workload.bake, workload.prepare,
                               workload.recipe, SMALL_FRAMES)


def twice(name, tmp_path, traced):
    results = []
    for i in range(2):
        workdir = tmp_path / f"run{i}"
        workdir.mkdir()
        tally = W.Tally()
        workload = small(name)
        if traced:
            metrics = workload.run_traced(7, str(workdir), tally, Tracer())
        else:
            metrics = workload.run(7, 0.0, str(workdir), tally)
        assert tally.attempted > 0
        assert tally.failed == 0, tally.errors
        results.append(metrics)
    return results


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_traced_counts_repeat(name, tmp_path):
    first, second = twice(name, tmp_path, traced=True)
    assert set(first) == set(run.per_layer_units())
    for key in EXACT:
        assert first[key] == second[key], key
    assert first["lut.queries"] > 0
    assert first["lut.corner_reads"] == 16 * first["lut.queries"]


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_val_psnr_repeats(name, tmp_path):
    first, second = twice(name, tmp_path, traced=False)
    assert first["val_psnr_db"] == second["val_psnr_db"]
    assert set(first) | {"ops_ok_frac"} == set(run.END_TO_END_UNITS)


def test_refuses_without_package_source(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "denoise-s", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
