"""The training API the benchmark drives, checked on a tiny corpus.

``perfbench/workloads.py`` (``TrainWorkload``) and ``perfbench/tracing.py``
(``TARGETS``) call the package by these names; a change that breaks one
of them fails here instead of in a benchmark run.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np

from lutpool.data import DegradationRecipe, degrade, make_synthetic_corpus

training = importlib.import_module("lutpool.train")
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _operation(seed=3):
    """TrainWorkload's prepare + op sequence on 8 pairs of 32x32 clean images."""
    recipe = DegradationRecipe("bicubic_down", scale=2)
    clean = make_synthetic_corpus(8, 32, seed)
    pairs = [(degrade(img, recipe, i), img) for i, img in enumerate(clean)]
    train_pairs, val_pairs = pairs[:6], pairs[6:]
    base = dict(batch_size=4, crop=8, lr=5e-2)
    cfg = training.TrainConfig(iterations=4, seed=seed, val_interval=2, **base)
    tune_cfg = training.TrainConfig(iterations=2, seed=seed + 1, val_interval=1, **base)

    zero = training.TrainablePipeline.zero_init("sr", 2, q=4)
    batch = training.sample_batch(np.random.default_rng(seed), train_pairs, 8, 2, 4)
    training.forward_backward(zero, batch, cfg)
    bicubic = training.evaluate_pairs(zero.to_config(), val_pairs, 2)

    tp = training.TrainablePipeline.zero_init("sr", 2, q=4)
    training.train(tp, train_pairs, val_pairs, cfg)
    tuned, _ = training.finetune(tp, train_pairs, val_pairs, tune_cfg, "oap", coeff_q=5)
    config, _ = training.export_pipeline(tuned)
    val = training.evaluate_pairs(config, val_pairs, 2)
    return bicubic, val, tuned, config, batch, tune_cfg


def test_train_workload_call_sequence():
    bicubic, val, tuned, config, batch, tune_cfg = _operation()
    assert math.isfinite(bicubic) and math.isfinite(val)
    assert config.pooling.kind == "oap"
    assert config.pooling.coeff_lut.q == 5
    for a, b in zip(config.stages[0], tuned.to_config().stages[0]):
        assert a.entries.dtype == np.uint8 and b.entries.dtype == np.float64
    # the memory probe: one step, then Adam on every parameter
    losses = training.forward_backward(tuned, batch, tune_cfg)
    if not math.isfinite(losses["total"]):
        raise training.TrainingDivergedError(f"non-finite loss {losses}")
    params = tuned.parameters()
    assert len(params) == 2
    for param in params:
        before = param.lut.entries.copy()
        training.adam_step(param.lut.entries, param.grad, param.adam, 0, tune_cfg.lr)
        assert param.lut.entries.shape == before.shape


def test_traced_names_exist_and_are_called_through_their_module():
    tracing = _tracing()
    for module_name, attr, _, _ in tracing.TARGETS:
        assert hasattr(importlib.import_module(module_name), attr), (module_name, attr)
    tracer = tracing.Tracer()
    with tracer.installed():
        _operation()
    seen = {span[0] for span in tracer.spans}
    assert {"train.forward_backward", "train.adam_step", "train.sample_batch",
            "train.evaluate_pairs", "pipeline.restore_image"} <= seen
