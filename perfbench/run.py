"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Generates the workload's inputs from the seed, sets the program up,
drives it for the given seconds and checks its outputs.  Inputs are
made in a child process, so this process is still cold when it sets the
program up and its own set-up is one sample of ``setup_s``.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  Lines
above it give workload-specific figures for the reader.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# workload -> cold set-ups per run; setup_s is their median.  A Ray
# set-up takes seconds, an in-process one under one, so the in-process
# workloads take more samples for the same steadiness.
SETUP_SAMPLES = {"flagship": 3, "spatial_join": 3, "kernel_bulk": 7,
                 "transform_requests": 7}


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(SETUP_SAMPLES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal modes of the child processes
    ap.add_argument("--make-inputs", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-probe", metavar="INPUTS_JSON", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _number(v):
    return int(v) if isinstance(v, int) or type(v).__name__.startswith("int") else float(v)


def _unit(name: str) -> str:
    """Unit of a figure printed above the result, from its name."""
    for suffix, unit in (("_ms", "ms"), ("_per_s", "1/s"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return ""


def _child(args, *extra) -> str:
    """Runs this script in a fresh process; returns its last stdout line."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", *extra],
        capture_output=True, text=True, timeout=150)
    if out.returncode:
        sys.stderr.write(out.stderr)
        sys.exit(f"perfbench: child {extra[0]} failed with code {out.returncode}")
    return out.stdout.strip().splitlines()[-1]


def generate_inputs(args) -> dict:
    """The workload's inputs, made from the seed in a child process."""
    return json.loads(_child(args, "--make-inputs"))


def _setup(workload: str, inputs, tr):
    """Cold set-up: library imports (numpy, pyarrow and pandas included),
    then the workload's own set-up.  Returns (module, state, seconds)."""
    t0 = time.perf_counter()
    wl = importlib.import_module(f"perfbench.workloads.{workload}")
    state = wl.setup(inputs, tr)
    return wl, state, time.perf_counter() - t0


def main(argv=None) -> int:
    args = _args(argv)
    if not os.path.isdir(os.path.join(ROOT, "proj_ray")):
        sys.exit("perfbench: proj_ray package not found next to perfbench/")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sys.path.insert(0, ROOT)
    from perfbench import common
    from perfbench.trace import NULL, Tracer

    common.prepare_env()
    work = os.path.join(common.WORK, args.workload)
    if args.make_inputs:
        wl = importlib.import_module(f"perfbench.workloads.{args.workload}")
        print(json.dumps(wl.make_inputs(args.seed, work)))
        return 0
    if args.setup_probe:
        with open(args.setup_probe) as f:
            inputs = json.load(f)
        try:
            dt = _setup(args.workload, inputs, NULL)[2]
        finally:
            common.ray_stop()
        print(json.dumps({"setup_s": dt}))
        return 0

    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    inputs = generate_inputs(args)
    inputs_json = os.path.join(work, "inputs.json")
    with open(inputs_json, "w") as f:
        json.dump(inputs, f)

    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES[args.workload] - 1):
            out = _child(args, "--setup-probe", inputs_json)
            setup_samples.append(json.loads(out)["setup_s"])

    tr = Tracer() if args.trace else NULL
    try:
        wl, state, dt = _setup(args.workload, inputs, tr)
        setup_samples.append(dt)
        if args.trace:
            outcome = wl.traced(state, inputs, args.seconds, tr)
            tr.write(os.path.join(work, "spans.json"))
            wanted = spec["per_layer"]
            metrics = {m["name"]: outcome.metrics.get(m["name"], 0.0) for m in wanted}
        else:
            runs = wl.measure(state, inputs, args.seconds)
            rss = common.peak_rss_mb()
            outcome = wl.evaluate(runs, inputs)
            wanted = spec["end_to_end"]
            metrics = dict(outcome.metrics, setup_s=common.median(setup_samples),
                           peak_rss_mb=rss)
    finally:
        common.ray_stop()

    info = dict(outcome.info)
    names = {m["name"] for m in wanted}
    info.update({k: (v, _unit(k)) for k, v in metrics.items() if k not in names})
    info["failed_frac"] = (outcome.failed / outcome.attempted, "frac")
    if not args.trace:
        info["setup_samples_s"] = (setup_samples, "s")
    for name, (value, unit) in info.items():
        print(f"# {args.workload} {name} = {value} {unit}")
    result = {"correct": outcome.failed == 0, "attempted": int(outcome.attempted),
              "failed": int(outcome.failed),
              "metrics": {m["name"]: {"value": _number(metrics[m["name"]]),
                                      "unit": m["unit"]} for m in wanted}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
