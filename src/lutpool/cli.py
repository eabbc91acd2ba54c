"""Command-line interface.

Subcommands cover the full workflow: bake tables from closed-form rules,
train and fine-tune on a manifest, restore single images, evaluate and
benchmark pipelines, and inspect table containers.

Exit codes: 0 success, 1 usage error, 2 I/O error (missing or corrupt
files), 3 validation error (geometry or configuration mismatches, a
number out of range, a training run that diverged).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time

import numpy as np

from .data import degrade, load_manifest, write_synthetic_dataset
from .lut import (LutFileError, RealLut, bake_real, dequantize, inspect_file,
                  lattice_size, load_lut, quantize, round_half_away, save_lut,
                  storage_bytes)
from .metrics import psnr, psnr_b, rgb_to_y, ssim
from .netpbm import PnmError, read_pnm, write_pnm
from .orientation import PATTERNS, OrientationSet
from .pipeline import (PipelineConfig, QueryCounter, bicubic_resize,
                       query_cost_model, restore_image)
from .pooling import PoolingSpec
from .train import (TrainConfig, TrainablePipeline, TrainingDivergedError,
                    evaluate_pairs, export_pipeline, finetune, train)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_POOLING_NAMES = {"avg": "average", "average": "average", "gmp": "gmp", "oap": "oap"}


def _parse_patterns(text: str):
    names = [t.strip() for t in text.split(",") if t.strip()]
    if not names:
        raise UsageError("no kernel patterns given")
    try:
        return [PATTERNS[n] for n in names]
    except KeyError as exc:
        raise UsageError(
            f"unknown pattern {exc.args[0]!r}; choices: {', '.join(PATTERNS)}")


# Pixels per band of the color-to-luma conversion in _load_gray.
_LUMA_BAND_PIXELS = 1 << 14


def _load_gray(path) -> np.ndarray:
    """Image as grayscale uint8; color inputs collapse to the luma plane.

    A color frame converts in bands of rows into the uint8 plane, so its
    float64 temporaries stay band-sized; BT.601 luma lies in 16..235, so
    the rounded values need no clip.
    """
    img = read_pnm(path)
    if img.ndim == 2:
        return img
    gray = np.empty(img.shape[:2], dtype=np.uint8)
    rows = max(1, _LUMA_BAND_PIXELS // img.shape[1])
    for y in range(0, img.shape[0], rows):
        gray[y:y + rows] = round_half_away(rgb_to_y(img[y:y + rows]))
    return gray


def _bake_oracle(name: str, pattern, scale: int):
    """Closed-form table rules selectable by name on the command line.

    identity      anchor pixel passthrough (m=1)
    mean          patch mean (m=1)
    constant:V    fixed output V (m=1)
    zero-residual all-zero signed residual block (m=scale**2)
    bilinear-sr   upscale block bilinearly blended from the square patch
    """
    if name == "identity":
        return (lambda pts: pts[:, :1].copy()), 1, False
    if name == "mean":
        return (lambda pts: pts.mean(axis=1, keepdims=True)), 1, False
    if name.startswith("constant:"):
        value = float(name.split(":", 1)[1])
        if not 0.0 <= value <= 255.0:
            raise ValueError("constant oracle value must lie in [0, 255]")
        return (lambda pts: np.full((pts.shape[0], 1), value)), 1, False
    if name == "zero-residual":
        m = scale * scale
        return (lambda pts: np.zeros((pts.shape[0], m))), m, True
    if name == "bilinear-sr":
        if pattern.offsets != ((0, 0), (0, 1), (1, 0), (1, 1)):
            raise ValueError("bilinear-sr needs the square 2x2 pattern")
        m = scale * scale
        sub = (np.arange(scale, dtype=np.float64) + 0.5) / scale - 0.5
        sub = np.clip(sub, 0.0, 1.0)
        yy, xx = np.meshgrid(sub, sub, indexing="ij")
        yy, xx = yy.ravel(), xx.ravel()

        def oracle(pts):
            v00, v01, v10, v11 = pts[:, 0:1], pts[:, 1:2], pts[:, 2:3], pts[:, 3:4]
            return (v00 * (1 - yy) * (1 - xx) + v01 * (1 - yy) * xx
                    + v10 * yy * (1 - xx) + v11 * yy * xx)

        return oracle, m, False
    raise ValueError(f"unknown bake rule {name!r}")


def _pooling_kind(name: str, allowed=("average", "gmp", "oap")) -> str:
    """The pooling kind that ``name`` gives; UsageError unless it is in ``allowed``."""
    kind = _POOLING_NAMES.get(name)
    if kind not in allowed:
        raise UsageError(f"--pooling must name one of {', '.join(allowed)}, not {name!r}")
    return kind


def _pooling_from_args(args) -> PoolingSpec:
    kind = _pooling_kind(args.pooling)
    coeff = None
    if kind == "oap":
        if not args.coeff_lut:
            raise ValueError("oap pooling needs --coeff-lut")
        coeff = load_lut(args.coeff_lut)
    return PoolingSpec(kind=kind, tau=args.tau, norm=args.norm, coeff_lut=coeff)


_REQUIRED = object()


def _json_check(value, kinds, name: str):
    """Raise ValueError naming ``name`` unless ``value`` is one of ``kinds``.

    Booleans pass only where ``bool`` is one of ``kinds``: JSON true is
    not a number here.
    """
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        wanted = " or ".join(k.__name__ for k in kinds)
        raise ValueError(f"pipeline.json: {name!r} must be {wanted}, "
                         f"not {type(value).__name__}")


def _json_value(doc: dict, key: str, kinds, default=_REQUIRED, items=None,
                prefix: str = ""):
    """``doc[key]`` of one of ``kinds``, every element of ``items`` for a list.

    A missing key (or JSON null) gives ``default``, or raises ValueError
    naming the key when there is none.
    """
    name = prefix + key
    value = doc.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ValueError(f"pipeline.json: missing key {name!r}")
        return default
    _json_check(value, kinds, name)
    if items is not None:
        for item in value:
            _json_check(item, items, name)
    return value


def _json_pattern(name, key: str):
    if name not in PATTERNS:
        raise ValueError(f"pipeline.json: unknown pattern {name!r} in {key!r}; "
                         f"choices: {', '.join(PATTERNS)}")
    return PATTERNS[name]


def _config_from_json(path, prefer_real: bool = False) -> PipelineConfig:
    """Build a pipeline from a JSON description with table file references.

    The document is checked as it is read: a top level that is not an
    object, a missing ``stages``, a value of the wrong type or an unknown
    pattern name raises ``ValueError`` naming the key (exit 3).
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"pipeline.json must hold an object, not {type(doc).__name__}")
    root = os.path.dirname(os.path.abspath(path))

    def _resolve(rel):
        return rel if os.path.isabs(rel) else os.path.join(root, rel)

    def _stages(key, default=_REQUIRED):
        stages = _json_value(doc, key, (list,), default, items=(list,))
        for stage in stages:
            for name in stage:
                _json_check(name, (str,), key)
        return stages

    stage_key = "stages"
    if prefer_real and _stages("real_stages", []):
        stage_key = "real_stages"
    stages = [[load_lut(_resolve(p)) for p in stage] for stage in _stages(stage_key)]
    pool_doc = _json_value(doc, "pooling", (dict,), {})

    def _pool(key, kinds, default):
        return _json_value(pool_doc, key, kinds, default, prefix="pooling.")

    coeff = None
    coeff_key = "real_coeff" if (prefer_real and _pool("real_coeff", (str,), "")) else "coeff"
    if _pool(coeff_key, (str,), ""):
        coeff = load_lut(_resolve(pool_doc[coeff_key]))
    pooling = PoolingSpec(
        kind=_pool("kind", (str,), "average"),
        tau=float(_pool("tau", (int, float), 1.0)),
        norm=_pool("norm", (str,), "l2"),
        coeff_lut=coeff,
    )
    patterns = [_json_pattern(n, "patterns")
                for n in _json_value(doc, "patterns", (list,), ["S"], items=(str,))]
    orientations = _json_value(doc, "orientations", (list,), [0, 1, 2, 3], items=(int,))
    return PipelineConfig(
        task=_json_value(doc, "task", (str,), "restore"),
        scale=_json_value(doc, "scale", (int,), 1),
        patterns=patterns,
        orientations=OrientationSet(tuple(orientations)),
        pooling=pooling,
        residual=_json_value(doc, "residual", (bool,), False),
        stages=stages,
        coeff_pattern=_json_pattern(_json_value(doc, "coeff_pattern", (str,), "S"),
                                    "coeff_pattern"),
    )


def _config_from_args(args) -> PipelineConfig:
    if args.config:
        return _config_from_json(args.config)
    if not args.lut:
        raise UsageError("give --config or at least one --lut")
    patterns = _parse_patterns(args.patterns)
    luts = [load_lut(p) for p in args.lut]
    per_stage = len(patterns)
    if len(luts) % per_stage != 0:
        raise ValueError(
            f"{len(luts)} tables do not divide into stages of {per_stage}")
    stages = [luts[i:i + per_stage] for i in range(0, len(luts), per_stage)]
    return PipelineConfig(
        task=args.task,
        scale=args.scale,
        patterns=patterns,
        pooling=_pooling_from_args(args),
        residual=args.residual,
        stages=stages,
    )


def _add_pipeline_flags(sub):
    sub.add_argument("--config", help="pipeline description JSON")
    sub.add_argument("--lut", action="append", default=[],
                     help="table container; repeat per pattern, then per stage")
    sub.add_argument("--task", choices=("restore", "sr"), default="restore")
    sub.add_argument("--scale", type=int, default=1, help="upscale factor for sr")
    sub.add_argument("--patterns", default="S",
                     help="comma-separated kernel patterns (S, D, Y)")
    sub.add_argument("--pooling", default="avg",
                     help="fusion: avg | gmp | oap")
    sub.add_argument("--tau", type=float, default=1.0,
                     help="soft-median temperature")
    sub.add_argument("--norm", choices=("l1", "l2"), default="l2")
    sub.add_argument("--coeff-lut", help="weight table for oap pooling")
    sub.add_argument("--residual", action="store_true",
                     help="tables store residuals on top of the baseline")


def integer(text: str):
    """An integer literal as int; any other number as float, which TrainConfig refuses."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _add_training_flags(sub, steps: int, val_interval: int):
    """The data, optimization and output flags of the train and finetune commands."""
    sub.add_argument("--data", required=True)
    sub.add_argument("--steps", type=integer, default=steps)
    sub.add_argument("--batch", type=integer, default=16)
    sub.add_argument("--crop", type=integer, default=16)
    sub.add_argument("--lr", type=float, default=1e-4)
    sub.add_argument("--loss", choices=("charbonnier", "l1", "l2"),
                     default="charbonnier")
    sub.add_argument("--reg-weight", type=float, default=1e-3)
    sub.add_argument("--val-interval", type=integer, default=val_interval)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out-dir", required=True)


def _build_parser() -> _Parser:
    parser = _Parser(prog="lutpool",
                     description="Pooled lookup-table image restoration")
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("bake", help="evaluate a closed-form rule into a table")
    p.add_argument("--rule", required=True,
                   help="identity | mean | constant:V | zero-residual | bilinear-sr")
    p.add_argument("--q", type=int, required=True, help="sampling exponent")
    p.add_argument("--pattern", default="S", choices=tuple(PATTERNS))
    p.add_argument("--scale", type=int, default=2,
                   help="block side for sr rules")
    p.add_argument("--bit-depth", type=int, default=8)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bake)

    p = subs.add_parser("inspect", help="print a container's header")
    p.add_argument("path")
    p.add_argument("--verify", action="store_true",
                   help="also load the payload and check its checksum")
    p.set_defaults(func=_cmd_inspect)

    p = subs.add_parser("restore", help="run a pipeline on one image")
    p.add_argument("--input", required=True, help="PGM/PPM image")
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="write query counts and timing JSON here")
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_restore)

    p = subs.add_parser("eval", help="score a pipeline over a manifest split")
    p.add_argument("--data", required=True, help="dataset manifest TSV")
    p.add_argument("--split", default="val",
                   choices=("train", "val", "test", "all"))
    p.add_argument("--border", type=int, default=-1,
                   help="crop before scoring; default: scale for sr, else 0")
    p.add_argument("--out", help="per-image CSV (plus a mean row)")
    p.add_argument("--with-baseline", action="store_true",
                   help="also score the plain bicubic upsample (sr only)")
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = subs.add_parser("bench", help="measure throughput and query counts")
    p.add_argument("--size", type=int, default=256, help="test image side")
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write per-run CSV here")
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_bench)

    p = subs.add_parser("train", help="train tables from scratch on a manifest")
    p.add_argument("--task", choices=("restore", "sr"), default="sr")
    p.add_argument("--scale", type=int, default=2)
    p.add_argument("--q", type=int, default=4)
    p.add_argument("--patterns", default="S")
    p.add_argument("--pooling", default="avg", help="avg | gmp")
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--norm", choices=("l1", "l2"), default="l2")
    p.add_argument("--no-residual", action="store_true")
    _add_training_flags(p, steps=2000, val_interval=100)
    p.set_defaults(func=_cmd_train)

    p = subs.add_parser("finetune",
                        help="attach and train a fusion stage on trained tables")
    p.add_argument("--from-dir", required=True,
                   help="output directory of a previous train run")
    p.add_argument("--pooling", required=True, help="oap | gmp")
    p.add_argument("--coeff-q", type=int,
                   help="sampling exponent for the weight table (oap)")
    p.add_argument("--tau-init", type=float,
                   help="starting temperature (gmp); default is the averaging limit")
    _add_training_flags(p, steps=400, val_interval=50)
    p.set_defaults(func=_cmd_finetune)

    p = subs.add_parser("dataset", help="write the synthetic training corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--count", type=int, default=64)
    p.add_argument("--size", type=int, default=48)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=int, default=2)
    p.set_defaults(func=_cmd_dataset)

    return parser


def _cmd_bake(args) -> int:
    pattern = PATTERNS[args.pattern]
    oracle, m, signed = _bake_oracle(args.rule, pattern, args.scale)
    real = bake_real(oracle, args.q, pattern.n, m)
    lut, report = quantize(real, bit_depth=args.bit_depth, signed=signed)
    save_lut(lut, args.out)
    bytes_ = storage_bytes(args.q, pattern.n, m, args.bit_depth)
    print(f"baked {args.rule} on pattern {pattern.name}: "
          f"q={args.q} n={pattern.n} m={m} "
          f"({lattice_size(args.q)}^{pattern.n} entries, {bytes_} payload bytes)")
    print(f"rounding error <= {report.max_error:.6f}, clipped {report.clipped}")
    return 0


def _cmd_inspect(args) -> int:
    header = inspect_file(args.path)
    kind = "real" if header.real_valued else ("signed" if header.signed else "unsigned")
    print(f"q={header.q} n={header.n} m={header.m} k={header.k} "
          f"bit_depth={header.bit_depth} storage={kind} "
          f"entries={header.entry_count} crc=0x{header.crc:08x}")
    if args.verify:
        load_lut(args.path)
        print("payload OK")
    return 0


def _cmd_restore(args) -> int:
    config = _config_from_args(args)
    image = _load_gray(args.input)
    counters = QueryCounter()
    start = time.perf_counter()
    out = restore_image(image, config, counters)
    elapsed = time.perf_counter() - start
    write_pnm(args.out, out)
    print(f"{args.input}: {image.shape[1]}x{image.shape[0]} -> "
          f"{out.shape[1]}x{out.shape[0]} in {elapsed:.3f}s")
    if args.report:
        model = query_cost_model(config)
        doc = {"seconds": elapsed,
               "lut_queries": counters.lut_queries,
               "coeff_queries": counters.coeff_queries,
               "cost_model": model}
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
    return 0


def _split_items(manifest_path, split):
    items = load_manifest(manifest_path)
    chosen = [(i, it) for i, it in enumerate(items)
              if split == "all" or it.split == split]
    if not chosen:
        raise ValueError(f"manifest has no items in split {split!r}")
    return chosen


def _item_pair(index, item):
    """(degraded input, clean target) arrays for one manifest row."""
    clean = _load_gray(item.clean)
    if item.degraded_path is not None:
        degraded = _load_gray(item.degraded_path)
    else:
        degraded = degrade(clean, item.recipe, image_index=index)
    return degraded, clean


def _cmd_eval(args) -> int:
    config = _config_from_args(args)
    config.validate()
    border = args.border
    if border < 0:
        border = config.scale if config.task == "sr" else 0
    rows = []
    for index, item in _split_items(args.data, args.split):
        degraded, clean = _item_pair(index, item)
        out = restore_image(degraded, config)
        ref, rec = clean.astype(np.float64), out.astype(np.float64)
        if border > 0:
            ref = ref[border:-border, border:-border]
            rec = rec[border:-border, border:-border]
        row = {"image": os.path.basename(item.clean),
               "psnr": psnr(rec, ref), "ssim": ssim(rec, ref),
               "psnr_b": psnr_b(ref, rec)}
        if args.with_baseline and config.task == "sr":
            up = bicubic_resize(degraded, config.scale)
            up = round_half_away(np.clip(up, 0.0, 255.0))
            if border > 0:
                up = up[border:-border, border:-border]
            row["psnr_bicubic"] = psnr(up, ref)
        rows.append(row)

    keys = list(rows[0].keys())
    mean_row = {"image": "mean"}
    for key in keys[1:]:
        mean_row[key] = float(np.mean([r[key] for r in rows]))
    for row in rows + [mean_row]:
        vals = " ".join(f"{key}={row[key]:.4f}" for key in keys[1:])
        print(f"{row['image']}: {vals}")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=keys)
            writer.writeheader()
            writer.writerows(rows + [mean_row])
    return 0


def _cmd_bench(args) -> int:
    for flag, value in (("--runs", args.runs), ("--size", args.size)):
        if value < 1:
            raise UsageError(f"{flag} must be at least 1, got {value}")
    config = _config_from_args(args)
    config.validate()
    rng = np.random.default_rng(args.seed)
    image = rng.integers(0, 256, size=(args.size, args.size), dtype=np.uint8)
    model = query_cost_model(config)
    pixels = args.size * args.size
    rows = []
    for run in range(args.runs):
        counters = QueryCounter()
        start = time.perf_counter()
        restore_image(image, config, counters)
        elapsed = time.perf_counter() - start
        rows.append({
            "run": run,
            "seconds": elapsed,
            "megapixels_per_s": pixels / elapsed / 1e6,
            "lut_queries": counters.lut_queries,
            "coeff_queries": counters.coeff_queries,
        })
    expect_lut = model["lut_queries_per_pixel"] * pixels
    expect_coeff = model["coeff_queries_per_pixel"] * pixels
    ok = all(r["lut_queries"] == expect_lut and r["coeff_queries"] == expect_coeff
             for r in rows)
    for r in rows:
        print(f"run {r['run']}: {r['seconds']:.3f}s "
              f"{r['megapixels_per_s']:.2f} MP/s "
              f"lut={r['lut_queries']} coeff={r['coeff_queries']}")
    print(f"cost model: {model['lut_queries_per_pixel']} lut + "
          f"{model['coeff_queries_per_pixel']} coeff lookups/pixel, "
          f"{model['bytes_per_query']:.1f} bytes/query -> "
          f"{'counts match' if ok else 'COUNT MISMATCH'}")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    if not ok:
        raise ValueError("measured query counts disagree with the cost model")
    return 0


def _train_val_pairs(manifest_path):
    train_pairs = [_item_pair(i, it) for i, it in _split_items(manifest_path, "train")]
    val_pairs = [_item_pair(i, it) for i, it in _split_items(manifest_path, "val")]
    return train_pairs, val_pairs


def _write_run_dir(out_dir, config, exported, report, val_real, val_exported,
                   quant_reports):
    os.makedirs(out_dir, exist_ok=True)
    stage_names, real_names = [], []
    for i, (lut, qlut) in enumerate(zip(config.stages[0], exported.stages[0])):
        rname = f"stage0_p{i}.real.lut"
        qname = f"stage0_p{i}.lut"
        save_lut(lut, os.path.join(out_dir, rname))
        save_lut(qlut, os.path.join(out_dir, qname))
        real_names.append(rname)
        stage_names.append(qname)
    pool = config.pooling
    pool_doc = {"kind": pool.kind, "tau": pool.tau, "norm": pool.norm,
                "coeff": None, "real_coeff": None}
    if pool.kind == "oap":
        save_lut(pool.coeff_lut, os.path.join(out_dir, "coeff.real.lut"))
        save_lut(exported.pooling.coeff_lut, os.path.join(out_dir, "coeff.lut"))
        pool_doc["coeff"] = "coeff.lut"
        pool_doc["real_coeff"] = "coeff.real.lut"
    doc = {
        "task": config.task, "scale": config.scale,
        "patterns": [p.name for p in config.patterns],
        "orientations": list(config.orientations.rotations),
        "pooling": pool_doc,
        "residual": config.residual,
        "stages": [stage_names],
        "real_stages": [real_names],
        "coeff_pattern": config.coeff_pattern.name,
    }
    with open(os.path.join(out_dir, "pipeline.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    with open(os.path.join(out_dir, "train_log.csv"), "w", encoding="utf-8",
              newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["step", "lr", "total", "fidelity", "regularizer"])
        writer.writeheader()
        writer.writerows(report.history)
    summary = {
        "best_step": report.best_step,
        "best_val_psnr": report.best_val_psnr,
        "val_history": report.val_history,
        "val_psnr_real": val_real,
        "val_psnr_exported": val_exported,
        "export_psnr_drop": val_real - val_exported,
        "quantization": {name: {"max_error": r.max_error, "clipped": r.clipped}
                         for name, r in quant_reports.items()},
    }
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    return summary


def _finish_run(out_dir, tp, report, val_pairs):
    config = tp.to_config()
    border = config.scale if config.task == "sr" else 0
    val_real = evaluate_pairs(config, val_pairs, border)
    exported, quant_reports = export_pipeline(tp)
    val_exported = evaluate_pairs(exported, val_pairs, border)
    summary = _write_run_dir(out_dir, config, exported, report,
                             val_real, val_exported, quant_reports)
    print(f"best step {report.best_step}: val PSNR {report.best_val_psnr:.3f} dB")
    print(f"exported tables: {val_exported:.3f} dB "
          f"(drop {summary['export_psnr_drop']:.3f} dB)")
    print(f"wrote {out_dir}/pipeline.json")
    return 0


def _train_config(args) -> TrainConfig:
    """The optimization settings shared by the train and finetune commands."""
    return TrainConfig(iterations=args.steps, batch_size=args.batch,
                       crop=args.crop, lr=args.lr, loss=args.loss,
                       reg_weight=args.reg_weight, seed=args.seed,
                       val_interval=args.val_interval)


def _cmd_train(args) -> int:
    kind = _pooling_kind(args.pooling)
    if kind == "oap":
        raise ValueError("train weight tables with the finetune command")
    if kind == "gmp" and not (np.isfinite(args.tau) and args.tau > 0):
        raise ValueError(f"--tau must be finite and positive, got {args.tau}")
    train_pairs, val_pairs = _train_val_pairs(args.data)
    tp = TrainablePipeline.zero_init(
        task=args.task, scale=args.scale if args.task == "sr" else 1,
        q=args.q, patterns=_parse_patterns(args.patterns), pooling=kind,
        residual=not args.no_residual, norm=args.norm)
    if kind == "gmp":
        tp.log_tau[...] = np.log(args.tau)
    report = train(tp, train_pairs, val_pairs, _train_config(args))
    return _finish_run(args.out_dir, tp, report, val_pairs)


def _cmd_finetune(args) -> int:
    kind = _pooling_kind(args.pooling, ("oap", "gmp"))
    train_pairs, val_pairs = _train_val_pairs(args.data)
    base_json = os.path.join(args.from_dir, "pipeline.json")
    base = _config_from_json(base_json, prefer_real=True)
    tables = [lut if isinstance(lut, RealLut) else dequantize(lut)
              for lut in base.stages[0]]
    tp = TrainablePipeline(dataclasses.replace(
        base, stages=[tables],
        pooling=dataclasses.replace(base.pooling, kind="average", coeff_lut=None)))
    ft, report = finetune(tp, train_pairs, val_pairs, _train_config(args), kind,
                          coeff_q=args.coeff_q, tau_init=args.tau_init)
    return _finish_run(args.out_dir, ft, report, val_pairs)


def _cmd_dataset(args) -> int:
    path = write_synthetic_dataset(args.out_dir, count=args.count,
                                   size=args.size, seed=args.seed,
                                   scale=args.scale)
    print(f"wrote {args.count} images and {path}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_help()
            return 1
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    except (OSError, PnmError, LutFileError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
