"""Interleaved per-call timing of two lutpool source trees in one process.

usage: python3 tools/ab_calls.py PARENT_SRC CHANGE_SRC [--seed S] [--reads N] [--frames N]

Each ``*_SRC`` is a directory holding a ``lutpool`` package, such as
the ``src`` of two checkouts.  Both are imported in this process under
names of their own, and every timed call alternates between them (the
first of a pair alternates too), so a slow spell of the machine falls on
both alike.  Separate benchmark processes, even of one commit, can read
several percent apart; only calls interleaved like this compare code.

* ``read_calls``: ``lut._read`` on the pipeline's own stage query
  (``pipeline._stage_queries``: views into one band's planes) for the
  S/q4 m1 read of a 128x128 band, the signed q4 m4 read of a 64x64
  band and the q5 m4 coefficient read of a 128x128 band.
* ``frame_calls``: ``restore_image`` on 128x128 frames with average,
  gmp and oap fusion cycled frame by frame, as the ``denoise-s``
  workload cycles them, and on 64x64 frames of the x2 S+D+Y gmp
  residual restore of ``sr-sdy-x2``.  A loop of one configuration can
  read a different ratio than the cycled loop, whose caches the other
  configurations share.

The tables hold random entries of the workloads' geometry.  Each case
checks that both trees return the same bytes, then prints the median
microseconds per call of each tree and their ratio, change / parent, as
one JSON object.
"""

import argparse
import importlib
import json
import os
import statistics
import sys
import tempfile
import time


def load(src: str, name: str, links: str):
    """The ``lutpool`` package under ``src`` imported as ``name`` through a link in ``links``."""
    os.symlink(os.path.abspath(os.path.join(src, "lutpool")), os.path.join(links, name))
    return importlib.import_module(name)


def tables(pkg, np, seed: int) -> dict:
    """The tables of the timed cases, built in ``pkg`` from the same random entries."""
    rng = np.random.default_rng(seed)
    lattice = pkg.lattice_size
    main = pkg.QuantizedLut(4, 4, 1, rng.integers(0, 256, (lattice(4),) * 4 + (1,)))
    coeff = pkg.CoeffLut(5, 4, 4, rng.integers(0, 256, (lattice(5),) * 4 + (4,)))
    sdy = [pkg.QuantizedLut(4, 4, 4, rng.integers(96, 161, (lattice(4),) * 4 + (4,)),
                            signed=True) for _ in range(3)]
    return {"main": main, "coeff": coeff, "sdy": sdy}


def configs(pkg, t: dict) -> dict:
    Spec, Config = pkg.PoolingSpec, pkg.PipelineConfig
    cycle = [Config(task="restore", stages=[t["main"]], pooling=pool)
             for pool in (Spec(), Spec(kind="gmp", tau=8.0),
                          Spec(kind="oap", coeff_lut=t["coeff"]))]
    sr = Config(task="sr", scale=2, residual=True, stages=[t["sdy"]],
                patterns=[pkg.SQUARE_PATTERN, pkg.DIAGONAL_PATTERN, pkg.WYE_PATTERN],
                pooling=Spec(kind="gmp", tau=8.0))
    return {"cycle": cycle, "sr": sr}


def interleaved(calls, count: int) -> list:
    """Seconds per call of each of the two ``calls``, alternated ``count`` times."""
    times = [[], []]
    for i in range(count):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            start = time.perf_counter()
            calls[side](i)
            times[side].append(time.perf_counter() - start)
    return times


def summary(times) -> dict:
    parent, change = (statistics.median(t) * 1e6 for t in times)
    return {"parent": round(parent), "change": round(change),
            "ratio": round(change / parent, 3)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reads", type=int, default=400)
    parser.add_argument("--frames", type=int, default=300)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="ab-calls-") as links:
        sys.path.insert(0, links)
        print(json.dumps(run(args, links)))


def run(args, links: str) -> dict:
    import numpy as np

    pkgs = [load(args.parent_src, "lutpool_parent", links),
            load(args.change_src, "lutpool_change", links)]
    mods = [(importlib.import_module(p.__name__ + ".lut"),
             importlib.import_module(p.__name__ + ".pipeline")) for p in pkgs]
    made = [configs(p, tables(p, np, args.seed)) for p in pkgs]
    rng = np.random.default_rng(args.seed)
    report = {"seed": args.seed, "read_calls": {}, "frame_calls": {}}

    # (name, band side, config and table of the read, coefficient query)
    reads = [("S/q4 m1 (128x128)", 128, lambda c: (c["cycle"][0], c["cycle"][0].stages[0][0]), False),
             ("signed q4 m4 (64x64)", 64, lambda c: (c["sr"], c["sr"].stages[0][0]), False),
             ("q5 m4 coeff (128x128)", 128, lambda c: (c["cycle"][2], c["cycle"][2].pooling.coeff_lut), True)]
    for name, side, pick, coeff in reads:
        stack = rng.integers(0, 256, (1, side, side)).astype(np.uint8)
        cases = []
        for (lut, pipeline), made_configs in zip(mods, made):
            config, table = pick(made_configs)
            query = next(pipeline._stage_queries(stack, config, coeff=coeff))
            cases.append((lut._read, table, query))
        outs = [read(table, query) for read, table, query in cases]
        assert outs[0].tobytes() == outs[1].tobytes(), name
        calls = [lambda i, c=c: c[0](c[1], c[2]) for c in cases]
        report["read_calls"][name] = summary(interleaved(calls, args.reads))

    frames = {"denoise cycled (128x128)": (128, "cycle"), "sr x2 S+D+Y gmp (64x64)": (64, "sr")}
    for name, (side, key) in frames.items():
        images = [rng.integers(0, 256, (side, side)).astype(np.uint8) for _ in range(6)]

        def frame(pkg_index, i, key=key, images=images):
            chosen = made[pkg_index][key]
            config = chosen[i % len(chosen)] if key == "cycle" else chosen
            return pkgs[pkg_index].restore_image(images[i % len(images)], config)

        for i in range(len(images)):
            assert frame(0, i).tobytes() == frame(1, i).tobytes(), name
        times = interleaved([lambda i: frame(0, i), lambda i: frame(1, i)], args.frames)
        report["frame_calls"][name] = summary(times)
        if key == "cycle":
            for j, kind in enumerate(("average", "gmp", "oap")):
                report["frame_calls"][f"{name} {kind} frames"] = summary(
                    [t[j::3] for t in times])
            total = [sum(t) for t in times]
            report["frame_calls"][f"{name} loop total"] = {
                "parent": round(total[0] * 1e6), "change": round(total[1] * 1e6),
                "ratio": round(total[1] / total[0], 3)}
    return report


if __name__ == "__main__":
    main()
