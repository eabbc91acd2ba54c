"""The package API the benchmark drives, checked on a tiny corpus.

``perfbench/workloads.py`` (``TrainWorkload``), ``perfbench/tracing.py``
(``TARGETS``) and ``perfbench/checks.py`` (``FrameChecker``, the frame
oracle) call the package by these names; a change that breaks one of
them fails here instead of in a benchmark run.
"""

import ast
import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np

import pytest

from lutpool.data import DegradationRecipe, degrade, make_synthetic_corpus
from lutpool.lut import CoeffLut, QuantizedLut, lattice_size
from lutpool.orientation import DIAGONAL_PATTERN, SQUARE_PATTERN, WYE_PATTERN
from lutpool.pipeline import PipelineConfig, QueryCounter, restore_image
from lutpool.pooling import PoolingSpec

training = importlib.import_module("lutpool.train")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lutpool"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracing():
    return _load("tracing")


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


def test_every_module_import_is_used_or_traced():
    # a module-level import that no code of its module reads is dead,
    # unless the tracer wraps it there by name (a (module, attr) target)
    traced = {(module_name, attr) for module_name, attr, _, _ in _tracing().TARGETS}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and (f"lutpool.{path.stem}", name) not in traced:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_every_scratch_slot_is_named_in_one_module():
    # a per-thread scratch buffer is overwritten by the next request for
    # its slot, so each slot is a string literal that one module names
    owners, bad = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if getattr(func, "id", getattr(func, "attr", None)) != "_scratch_array":
                continue
            slot = node.args[0] if node.args else next(
                (kw.value for kw in node.keywords if kw.arg == "slot"), None)
            if isinstance(slot, ast.Constant) and isinstance(slot.value, str):
                owners.setdefault(slot.value, set()).add(path.name)
            else:
                bad.append(f"{path.name}:{node.lineno}")
    assert bad == []
    assert {slot: names for slot, names in owners.items() if len(names) > 1} == {}
    assert owners["scatter_cols"] == {"pipeline.py"}
    # the read, its adjoint and the stage pass keep to these slots
    assert {slot for slot, names in owners.items() if names & {"lut.py", "pipeline.py"}} == {
        "fold_rows", "gather", "frac", "rest", "scatter_cols"}


def _checked_configs():
    """Random-table stand-ins for the denoise-s oap config and the sr-sdy-x2 config."""
    rng = np.random.default_rng(12)
    shape = (lattice_size(4),) * 4
    coeff = CoeffLut(5, 4, 4, rng.integers(0, 256, (lattice_size(5),) * 4 + (4,)))
    oap = PipelineConfig(task="restore", pooling=PoolingSpec(kind="oap", coeff_lut=coeff),
                         stages=[QuantizedLut(4, 4, 1, rng.integers(0, 256, shape + (1,)))])
    sdy = [SQUARE_PATTERN, DIAGONAL_PATTERN, WYE_PATTERN]
    sr = PipelineConfig(task="sr", scale=2, patterns=sdy, residual=True,
                        pooling=PoolingSpec(kind="gmp", tau=8.0),
                        stages=[[QuantizedLut(4, 4, 4, rng.integers(96, 161, shape + (4,)),
                                              signed=True) for _ in sdy]])
    return {"oap-s-q4": oap, "sdy-x2-gmp": sr}


@pytest.mark.parametrize("name", ["oap-s-q4", "sdy-x2-gmp"])
def test_frame_oracle_accepts_restored_frames(name):
    checks = _load("checks")
    config = _checked_configs()[name]
    checker = checks.FrameChecker(config)
    image = np.random.default_rng(13).integers(0, 256, (12, 10)).astype(np.uint8)
    counters = QueryCounter()
    output = restore_image(image, config, counters)
    for corner in range(4):
        assert checker.check(image, output, counters, np.random.default_rng(corner), 16,
                             corner) == []
    # the oracle is live: a wrong top-left pixel and a wrong count are flagged
    bad = output.copy()
    bad[0, 0] ^= 0x80
    assert checker.check(image, bad, counters, np.random.default_rng(0), 4, 0)
    counters.lut_queries += 1
    assert checker.check(image, output, counters, np.random.default_rng(0), 4, 0)
