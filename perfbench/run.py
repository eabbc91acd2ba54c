"""lutpool benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload denoise-s --seed 1 --seconds 12 --trace 0

The package is imported from ``src/`` of the same checkout; nothing is
installed.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
runs the traced pass and prints the per-layer metrics, writing every
span to ``.perfbench/spans-<workload>-seed<seed>.jsonl``.  The last line
of standard output is the result object; progress and failures go to
earlier lines and to standard error.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

# single-threaded numerics; set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END_UNITS = {
    "mpix_per_s": "Mpx/s",
    "frame_ms.p50": "ms",
    "frame_ms.p90": "ms",
    "train_s": "s",
    "val_psnr_db": "dB",
    "peak_mem_mb": "MB",
    "setup_s": "s",
    "ops_ok_frac": "ratio",
}


def import_package():
    """Import lutpool from this checkout's src/, or exit 2 without a result."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lutpool", "__init__.py")):
        sys.exit(f"perfbench: no package source at {src}/lutpool")
    sys.path.insert(0, src)
    import lutpool
    if os.path.dirname(os.path.dirname(os.path.abspath(lutpool.__file__))) != src:
        sys.exit(f"perfbench: lutpool imported from {lutpool.__file__}, not {src}")
    return lutpool


def per_layer_units():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def run(workload_name, seed, seconds, trace):
    """Result object for one run (the dict printed as the last line)."""
    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[workload_name]
    tally = workloads.Tally()
    state_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(state_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=state_dir)
    try:
        if trace:
            tracer = Tracer()
            values = workload.run_traced(seed, workdir, tally, tracer)
            spans = os.path.join(state_dir, f"spans-{workload_name}-seed{seed}.jsonl")
            tracer.write(spans)
            print(f"spans: {len(tracer.spans)} written to {os.path.relpath(spans, ROOT)}")
            units = per_layer_units()
        else:
            values = workload.run(seed, seconds, workdir, tally)
            values["ops_ok_frac"] = (tally.attempted - tally.failed) / tally.attempted
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = set(units) - set(values)
    extra = set(values) - set(units)
    if missing or extra:
        raise RuntimeError(f"metric names disagree with the declared set: "
                           f"missing {sorted(missing)}, extra {sorted(extra)}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
