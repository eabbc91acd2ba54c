"""The three workloads: set-up, timed runs, memory probes and traced runs.

All work runs in this one process and thread, in a closed loop: the next
call starts when the previous one has returned.  Inputs come only from
the seed.  The package is called through its module attributes
(``pipeline.restore_image``, ``training.train``, ...) so that a traced
run, which replaces those attributes, sees every call.

denoise-s   S/q4 restore, one stage, m=1; fusion cycles average -> gmp
            (tau=8) -> oap (8-bit q5 coefficient table) frame by frame;
            128x128 synthetic frames with AWGN sigma=15.
sr-sdy-x2   x2 residual SR, patterns S+D+Y, three signed m=4 q4 tables,
            gmp (tau=8); 64x64 inputs (every 4th 96x96), bicubic-downsampled.
train-sr-x2 S/q4 x2 residual training on the 48x48 synthetic corpus:
            train() with average fusion, finetune(..., "oap"), export,
            evaluation; then the exported tables restore 64x64 and 96x96 frames.
"""

from __future__ import annotations

import importlib
import math
import os
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from lutpool.data import DegradationRecipe, degrade, make_synthetic_corpus
from lutpool.lut import CoeffLut, bake, load_lut, save_lut
from lutpool.metrics import psnr
from lutpool.orientation import DIAGONAL_PATTERN, SQUARE_PATTERN, WYE_PATTERN
from lutpool.pipeline import PipelineConfig, QueryCounter
from lutpool.pooling import PoolingSpec

from checks import FrameChecker

# The package re-exports a function named ``train`` that hides the
# module attribute, so the modules are imported by name.
pipeline = importlib.import_module("lutpool.pipeline")
training = importlib.import_module("lutpool.train")

clock = time.perf_counter

# Validation frames do not depend on the seed, so val_psnr_db compares
# across seeds: train-sr-x2 validates on the last 8 images of the seed-0
# corpus, the inference workloads on 8 seed-0 frames.  The seed varies
# the timed frames, the table noise, the training images and the batches.
VAL_CORPUS_SEED = 0

LAYER_SELF = (
    "lut.corner_weights", "lut.interpolate", "lut.real_table",
    "pooling.average_weights", "pooling.gmp_weights", "pooling.oap_weights",
    "pooling.combine", "pipeline.bicubic_resize", "pipeline.apply_residual",
    "pipeline.pixel_shuffle", "pipeline.restore_image",
    "train.forward_backward", "train.adam_step", "train.sample_batch",
)
LAYER_INCLUSIVE = ("lut.query_batch", "train.evaluate_pairs")
COUNTS = ("lut.queries", "lut.corner_reads", "lut.bytes_read_computed",
          "lut.real_table_bytes", "pooling.anchors", "pipeline.frames",
          "train.steps")


@dataclass
class Tally:
    """Operations attempted and failed; the first failures are kept."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)
            print(f"failed: {message}", file=sys.stderr)


@dataclass(frozen=True)
class FrameSpec:
    """Sizes of an inference workload."""

    frame_sizes: tuple = (128,)  # clean side of frame i is frame_sizes[i % len]
    frame_count: int = 32      # distinct frames, cycled
    val_count: int = 8         # fixed frames for val_psnr_db, each with every configuration
    min_frames: int = 100      # at least 10 samples above p90
    trace_frames: int = 48
    probe_size: int = 1024     # clean side of the peak_mem_mb probe frame
    anchors: int = 6           # oracle-checked anchors per frame
    setup_reps: int = 7
    bake_every: int = 8        # frames between two timed bakes (train_s)


@dataclass(frozen=True)
class TrainSpec:
    corpus: int = 64
    size: int = 48
    val: int = 8
    steps: int = 50
    finetune_steps: int = 15
    lr: float = 5e-2
    batch: int = 16
    crop: int = 16
    val_interval: int = 25
    finetune_val_interval: int = 5
    deploy_sizes: tuple = (128, 128, 128, 192)  # clean sides, cycled; inputs are half
    deploy_count: int = 8      # distinct deploy frames, from the seed
    deploy_per_op: int = 48    # timed deploy frames after each operation
    min_frames: int = 100      # deploy frames topped up to at least this many
    anchors: int = 4
    replay_stride: int = 10
    setup_reps: int = 7


@dataclass
class Prepared:
    inputs: list
    cleans: list
    configs: list              # cycled frame by frame
    checkers: list
    val_inputs: list = ()
    val_cleans: list = ()

    def val_split(self):
        return Prepared(self.val_inputs, self.val_cleans, self.configs, self.checkers)


# ---------------------------------------------------------------- tables

def _perturbed(rule, rng, sigma, m):
    """Closed-form rule plus seeded Gaussian noise.

    ``bake`` visits lattice chunks in a fixed order, so drawing the noise
    chunk by chunk from one generator is deterministic.
    """
    def oracle(points):
        return rule(points) + rng.normal(0.0, sigma, (points.shape[0], m))
    return oracle


def _denoise_rule(p):
    # asymmetric smoothing: rotated reads disagree, so gmp weights vary
    return (0.55 * p[:, 0] + 0.2 * p[:, 1] + 0.15 * p[:, 2] + 0.1 * p[:, 3])[:, None]


def _coeff_rule(p):
    # per-orientation weight from the local gradient of the unrotated patch
    gx = 0.5 * (p[:, 1] + p[:, 3] - p[:, 0] - p[:, 2])
    gy = 0.5 * (p[:, 2] + p[:, 3] - p[:, 0] - p[:, 1])
    w = np.stack([64 + 0.4 * gx, 64 + 0.4 * gy, 64 - 0.4 * gx, 64 - 0.4 * gy], axis=1)
    return np.clip(w, 8.0, 160.0)


def _residual_rule(p):
    # sub-pixel j leans toward sample j, on top of an unsharp term
    detail = p[:, :1] - p.mean(axis=1, keepdims=True)
    return 0.2 * detail + 0.1 * (p - p[:, :1])


def _round_trip(workdir, luts):
    """save_lut / load_lut every table (the container CRC is checked on load)."""
    loaded = []
    for i, lut in enumerate(luts):
        path = os.path.join(workdir, f"table{i}.lut")
        save_lut(lut, path)
        back = load_lut(path)
        if type(back) is not type(lut) or not np.array_equal(back.entries, lut.entries):
            raise RuntimeError(f"table {i} changed in a save/load round trip")
        loaded.append(back)
    return loaded


def _awgn(seed):
    return DegradationRecipe("awgn", sigma=15.0, seed=seed)


def _downscale(seed):
    return DegradationRecipe("bicubic_down", scale=2)


def bake_denoise(seed):
    rng = np.random.default_rng([seed, 1])
    table = bake(_perturbed(_denoise_rule, rng, 1.5, 1), 4, 4, 1)
    coeff = CoeffLut(5, 4, 4, bake(_perturbed(_coeff_rule, rng, 6.0, 4), 5, 4, 4).entries)
    return [table, coeff]


def bake_sr(seed):
    rng = np.random.default_rng([seed, 2])
    return [bake(_perturbed(_residual_rule, rng, 1.5, 4), 4, 4, 4, signed=True)
            for _ in range(3)]


def _frames(sizes, recipe, count, corpus_seed):
    """``count`` corpus frames degraded by ``recipe``: (inputs, cleans).

    Frame i has clean side ``sizes[i % len(sizes)]``.  With one large
    frame in a few, p90 falls among the large frames, so it measures
    their latency rather than the tail of identical frames.
    """
    corpora = {size: make_synthetic_corpus(count, size, corpus_seed) for size in set(sizes)}
    cleans = [corpora[sizes[i % len(sizes)]][i] for i in range(count)]
    return [degrade(img, recipe(corpus_seed), i) for i, img in enumerate(cleans)], cleans


def _prepared(spec, seed, recipe, configs):
    """Timed frames from the seed, validation frames from VAL_CORPUS_SEED, warm-up."""
    inputs, cleans = _frames(spec.frame_sizes, recipe, spec.frame_count, seed)
    val_inputs, val_cleans = _frames(spec.frame_sizes, recipe, spec.val_count, VAL_CORPUS_SEED)
    for config in configs:
        pipeline.restore_image(inputs[0], config)
    return Prepared(inputs, cleans, configs, [FrameChecker(c) for c in configs],
                    val_inputs, val_cleans)


def prepare_denoise(spec, seed, workdir):
    table, coeff = _round_trip(workdir, bake_denoise(seed))
    configs = [PipelineConfig(task="restore", stages=[table], pooling=pool)
               for pool in (PoolingSpec(), PoolingSpec(kind="gmp", tau=8.0),
                            PoolingSpec(kind="oap", coeff_lut=coeff))]
    return _prepared(spec, seed, _awgn, configs)


def prepare_sr(spec, seed, workdir):
    tables = _round_trip(workdir, bake_sr(seed))
    config = PipelineConfig(task="sr", scale=2,
                            patterns=[SQUARE_PATTERN, DIAGONAL_PATTERN, WYE_PATTERN],
                            stages=[tables], pooling=PoolingSpec(kind="gmp", tau=8.0),
                            residual=True)
    return _prepared(spec, seed, _downscale, [config])


# ---------------------------------------------------------------- loops

def frame_loop(prepared, seconds, min_frames, anchors, seed, tally, keep=0, after=None,
               check=True):
    """Restore frames until ``seconds`` have passed and ``min_frames`` are done.

    Returns per-call seconds, input pixels restored, and the outputs of
    the first ``keep`` frames by index.  Checks, and ``after(i)`` when
    given, run outside the timed call.
    """
    samples, kept = [], {}
    pixels = 0
    start = clock()
    i = 0
    while clock() - start < seconds or i < min_frames:
        image = prepared.inputs[i % len(prepared.inputs)]
        k = i % len(prepared.configs)
        counters = QueryCounter()
        tally.attempted += 1
        t0 = clock()
        try:
            out = pipeline.restore_image(image, prepared.configs[k], counters)
        except Exception as exc:  # a failed call counts; the loop goes on
            tally.fail(f"frame {i}: {type(exc).__name__}: {exc}")
            if after is not None:
                after(i)
            i += 1
            continue
        samples.append(clock() - t0)
        pixels += image.size
        if check:
            errors = prepared.checkers[k].check(
                image, out, counters, np.random.default_rng([seed, i]), anchors, i)
            if errors:
                tally.fail(f"frame {i}: {errors[0]}")
        if i < keep:
            kept[i] = out
        if after is not None:
            after(i)
        i += 1
    return samples, pixels, kept


def val_psnr(prepared, seed, anchors, tally):
    """Mean PSNR over every (validation frame, configuration) pair, untimed."""
    val = prepared.val_split()
    period = math.lcm(len(val.inputs), len(val.configs))
    _, _, kept = frame_loop(val, 0.0, period, anchors, seed, tally, keep=period)
    scores = [psnr(kept[i], val.cleans[i % len(val.cleans)]) for i in sorted(kept)]
    return float(np.mean(scores)) if scores else float("nan")


def peak_mb(fn):
    """tracemalloc peak, in MB, over one call of ``fn``."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


def frame_metrics(samples, pixels):
    deciles = statistics.quantiles(samples, n=10, method="inclusive")
    return {
        "mpix_per_s": pixels / sum(samples) / 1e6,
        "frame_ms.p50": deciles[4] * 1e3,
        "frame_ms.p90": deciles[8] * 1e3,
    }


def _median_setup(prepare, reps):
    times = []
    for _ in range(reps):
        start = clock()
        prepared = prepare()
        times.append(clock() - start)
    return prepared, statistics.median(times)


def _report_samples(samples):
    deciles = statistics.quantiles(samples, n=10, method="inclusive")
    above = sum(s > deciles[8] for s in samples)
    print(f"frame samples: {len(samples)} timed, {above} above p90")


# ---------------------------------------------------------------- inference

class InferenceWorkload:
    def __init__(self, name, bake, prepare, recipe, spec=FrameSpec()):
        self.name = name
        self.bake = bake
        self.prepare = prepare
        self.recipe = recipe
        self.spec = spec

    def _probe(self, prepared, seed, tally):
        """Peak memory of one restore_image call on a large frame.

        The last configuration of the cycle is probed (oap for denoise-s).
        """
        spec = self.spec
        clean = make_synthetic_corpus(1, spec.probe_size, seed)[0]
        image = degrade(clean, self.recipe(seed))
        config = prepared.configs[-1]
        counters = QueryCounter()
        holder = {}
        tally.attempted += 1

        def call():
            holder["out"] = pipeline.restore_image(image, config, counters)

        try:
            peak = peak_mb(call)
        except Exception as exc:
            tally.fail(f"memory probe: {type(exc).__name__}: {exc}")
            return float("nan")
        errors = prepared.checkers[-1].check(image, holder["out"], counters,
                                             np.random.default_rng([seed, 1 << 31]),
                                             spec.anchors, 0)
        if errors:
            tally.fail(f"memory probe: {errors[0]}")
        return peak

    def run(self, seed, seconds, workdir, tally):
        spec = self.spec
        prepared, setup_s = _median_setup(
            lambda: self.prepare(spec, seed, workdir), spec.setup_reps)
        bakes = []

        def time_bake(i):
            # inference tables come from bake(), not training: its time,
            # sampled across the run so a slow spell moves the median little
            if i % spec.bake_every == spec.bake_every - 1:
                start = clock()
                self.bake(seed)
                bakes.append(clock() - start)

        samples, pixels, _ = frame_loop(prepared, seconds, spec.min_frames,
                                        spec.anchors, seed, tally, after=time_bake)
        _report_samples(samples)
        metrics = frame_metrics(samples, pixels)
        metrics.update({
            "train_s": statistics.median(bakes),
            "val_psnr_db": val_psnr(prepared, seed, spec.anchors, tally),
            "peak_mem_mb": self._probe(prepared, seed, tally),
            "setup_s": setup_s,
        })
        return metrics

    def run_traced(self, seed, workdir, tally, tracer):
        spec = self.spec
        prepared = self.prepare(spec, seed, workdir)
        layers = TracedFrames(prepared, spec.trace_frames, spec.anchors, seed)
        layers.run(tally, tracer)
        return layers.metrics(tracer)


class TracedFrames:
    """The same fixed frames restored untraced, then traced; outputs must match.

    Only the untraced pass runs the oracle checks, whose table queries
    would otherwise be traced too; the traced outputs must equal the
    checked ones bit for bit.
    """

    def __init__(self, prepared, count, anchors, seed):
        self.prepared, self.count, self.anchors, self.seed = prepared, count, anchors, seed

    def run(self, tally, tracer):
        plain, _, plain_out = frame_loop(self.prepared, 0.0, self.count, self.anchors,
                                         self.seed, tally, keep=self.count)
        with tracer.installed():
            traced, _, traced_out = frame_loop(self.prepared, 0.0, self.count,
                                               self.anchors, self.seed, tally,
                                               keep=self.count, check=False)
        for i, out in traced_out.items():
            if not np.array_equal(out, plain_out.get(i)):
                tally.fail(f"frame {i}: tracing changed the output")
        self.plain_s = sum(plain)
        self.traced_s = sum(traced)
        self.attributed = tracer.attributed("pipeline.restore_image")

    def metrics(self, tracer):
        return layer_metrics(tracer, self.traced_s - self.plain_s,
                             self.attributed / self.traced_s)


def layer_metrics(tracer, overhead_s, attributed_frac, forward_s=0.0, backward_s=0.0):
    self_s, inclusive = tracer.summary()
    counts = tracer.counts
    metrics = {f"{name}.self_s": self_s.get(name, 0.0) for name in LAYER_SELF}
    metrics.update({f"{name}.s": inclusive.get(name, 0.0) for name in LAYER_INCLUSIVE})
    metrics.update({name: counts.get(name, 0) for name in COUNTS})
    reads = counts.get("lut.corner_reads", 0)
    metrics["lut.useful_corner_frac"] = counts.get("lut.useful_corners", 0) / reads if reads else 0.0
    metrics["train.forward_s"] = forward_s
    metrics["train.backward_s"] = backward_s
    metrics["trace.overhead_s"] = overhead_s
    metrics["trace.attributed_frac"] = attributed_frac
    return metrics


# ---------------------------------------------------------------- training

@dataclass
class TrainData:
    train_pairs: list
    val_pairs: list
    bicubic_psnr: float
    deploy_inputs: list
    deploy_cleans: list


@dataclass
class TrainResult:
    train_s: float             # train() + finetune()
    op_s: float                # the whole operation, export and evaluation included
    val_psnr: float
    config: object
    tuned: object


class TrainWorkload:
    name = "train-sr-x2"

    def __init__(self, spec=TrainSpec()):
        self.spec = spec

    def _configs(self, seed):
        s = self.spec
        base = dict(batch_size=s.batch, crop=s.crop, lr=s.lr)
        return (training.TrainConfig(iterations=s.steps, seed=seed,
                                     val_interval=s.val_interval, **base),
                training.TrainConfig(iterations=s.finetune_steps, seed=seed + 1,
                                     val_interval=s.finetune_val_interval, **base))

    def prepare(self, seed):
        s = self.spec
        recipe = DegradationRecipe("bicubic_down", scale=2)
        train_clean = make_synthetic_corpus(s.corpus - s.val, s.size, seed)
        val_clean = make_synthetic_corpus(s.corpus, s.size, VAL_CORPUS_SEED)[s.corpus - s.val:]
        train_pairs = [(degrade(img, recipe, i), img) for i, img in enumerate(train_clean)]
        val_pairs = [(degrade(img, recipe, i), img) for i, img in enumerate(val_clean)]
        zero = training.TrainablePipeline.zero_init("sr", 2, q=4)
        cfg, _ = self._configs(seed)
        batch = training.sample_batch(np.random.default_rng(seed), train_pairs,
                                      s.crop, 2, s.batch)
        training.forward_backward(zero, batch, cfg)          # warm-up
        bicubic = training.evaluate_pairs(zero.to_config(), val_pairs, 2)
        deploy_inputs, deploy_cleans = _frames(s.deploy_sizes, _downscale, s.deploy_count, seed)
        return TrainData(train_pairs, val_pairs, bicubic, deploy_inputs, deploy_cleans)

    def op(self, data, seed, tally):
        """train() -> finetune(oap) -> export + evaluate; three operations."""
        cfg, tune_cfg = self._configs(seed)
        tp = training.TrainablePipeline.zero_init("sr", 2, q=4)
        start = clock()
        tally.attempted += 1
        try:
            training.train(tp, data.train_pairs, data.val_pairs, cfg)
        except Exception as exc:
            tally.fail(f"train(): {type(exc).__name__}: {exc}")
            return None
        tally.attempted += 1
        try:
            tuned, _ = training.finetune(tp, data.train_pairs, data.val_pairs,
                                         tune_cfg, "oap", coeff_q=5)
        except Exception as exc:
            tally.fail(f"finetune(): {type(exc).__name__}: {exc}")
            return None
        train_s = clock() - start
        tally.attempted += 1
        try:
            config, _ = training.export_pipeline(tuned)
            val = training.evaluate_pairs(config, data.val_pairs, 2)
        except Exception as exc:
            tally.fail(f"export/evaluate: {type(exc).__name__}: {exc}")
            return None
        op_s = clock() - start
        if not val > data.bicubic_psnr:
            tally.fail(f"exported tables ({val:.4f} dB) do not beat bicubic "
                       f"({data.bicubic_psnr:.4f} dB)")
        return TrainResult(train_s, op_s, val, config, tuned)

    def _deploy(self, data, config):
        return Prepared(data.deploy_inputs, data.deploy_cleans, [config], [FrameChecker(config)])

    def _probe(self, data, result, seed, tally):
        """Peak memory of one forward_backward + adam_step on the oap pipeline."""
        s = self.spec
        _, tune_cfg = self._configs(seed)
        tuned = result.tuned
        batch = training.sample_batch(np.random.default_rng(seed), data.train_pairs,
                                      s.crop, 2, s.batch)
        tally.attempted += 1

        def step():
            losses = training.forward_backward(tuned, batch, tune_cfg)
            if not math.isfinite(losses["total"]):
                raise training.TrainingDivergedError(f"non-finite loss {losses}")
            for param in tuned.parameters():
                training.adam_step(param.lut.entries, param.grad, param.adam, 0, tune_cfg.lr)

        try:
            return peak_mb(step)
        except Exception as exc:
            tally.fail(f"memory probe: {type(exc).__name__}: {exc}")
            return float("nan")

    def run(self, seed, seconds, workdir, tally):
        s = self.spec
        setup_times = []
        for _ in range(s.setup_reps):
            start = clock()
            data = self.prepare(seed)
            setup_times.append(clock() - start)
        results, samples, pixels = [], [], 0
        start = clock()
        # fixed-length operations, each followed by its deploy frames,
        # repeated until the time is up
        while not results or clock() - start < seconds:
            result = self.op(data, seed, tally)
            if result is None:
                break
            results.append(result)
            deploy = self._deploy(data, result.config)
            got, px, _ = frame_loop(deploy, 0.0, s.deploy_per_op, s.anchors, seed, tally)
            samples += got
            pixels += px
        if not results:
            raise RuntimeError("no training operation completed")
        if len(samples) < s.min_frames:
            got, px, _ = frame_loop(deploy, 0.0, s.min_frames - len(samples),
                                    s.anchors, seed, tally)
            samples += got
            pixels += px
        if len({r.val_psnr for r in results}) != 1:
            tally.fail(f"val PSNR differs between identical runs: "
                       f"{[r.val_psnr for r in results]}")
        _report_samples(samples)
        metrics = frame_metrics(samples, pixels)
        metrics.update({
            "train_s": statistics.median(r.train_s for r in results),
            "val_psnr_db": results[0].val_psnr,
            "peak_mem_mb": self._probe(data, results[-1], seed, tally),
            "setup_s": statistics.median(setup_times),
        })
        print(f"training operations: {len(results)}")
        return metrics

    def run_traced(self, seed, workdir, tally, tracer):
        s = self.spec
        data = self.prepare(seed)
        plain = self.op(data, seed, tally)
        if plain is None:
            raise RuntimeError("untraced training operation failed")
        deploy = self._deploy(data, plain.config)
        frames = TracedFrames(deploy, s.deploy_per_op, s.anchors, seed)
        frames.run(tally, tracer)

        recorded = []

        def record(args, result):
            if tracer.counts["train.steps"] % s.replay_stride == 1:
                recorded.append(args)

        tracer.hooks["train.forward_backward"] = record
        with tracer.installed():
            traced = self.op(data, seed, tally)
        if traced is None:
            raise RuntimeError("traced training operation failed")
        if traced.val_psnr != plain.val_psnr or not _same_tables(traced.config, plain.config):
            tally.fail("tracing changed the trained tables")

        # forward vs backward: replay sampled steps untraced on the same batches
        lo = fb = 0.0
        for tp, batch, cfg in recorded:
            t0 = clock()
            training.loss_only(tp, batch, cfg)
            t1 = clock()
            training.forward_backward(tp, batch, cfg)
            t2 = clock()
            lo += t1 - t0
            fb += t2 - t1
        scale = tracer.counts["train.steps"] / max(len(recorded), 1)
        overhead = (frames.traced_s - frames.plain_s) + (traced.op_s - plain.op_s)
        return layer_metrics(tracer, overhead, frames.attributed / frames.traced_s,
                             forward_s=lo * scale, backward_s=(fb - lo) * scale)


def _same_tables(a, b):
    tables = zip(a.stages[0], b.stages[0])
    same = all(np.array_equal(x.entries, y.entries) for x, y in tables)
    ca, cb = a.pooling.coeff_lut, b.pooling.coeff_lut
    return same and np.array_equal(ca.entries, cb.entries)


WORKLOADS = {
    "denoise-s": InferenceWorkload("denoise-s", bake_denoise, prepare_denoise, _awgn),
    "sr-sdy-x2": InferenceWorkload("sr-sdy-x2", bake_sr, prepare_sr, _downscale,
                                   FrameSpec(frame_sizes=(128, 128, 128, 192),
                                             frame_count=48, anchors=4)),
    "train-sr-x2": TrainWorkload(),
}
