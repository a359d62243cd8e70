"""Benchmark of the ddm package: one workload per process.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source tree; the package is imported from its
``src`` directory, never from an installed copy.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Every result, with its environment, is also
written under ``.bench_build/perfbench/results``; ``perfbench/compare.py``
compares two sets of them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("train-desk", "infer-desk", "eval-dense", "train-paper")
# the end-to-end metrics under the names of the job each workload runs
JOB_NAMES = {
    "train-desk": {"items_per_s": ("train_clips_per_s", "clips/s"),
                   "train_loss_final": ("train_loss_final", "")},
    "train-paper": {"items_per_s": ("train_clips_per_s", "clips/s"),
                    "train_loss_final": ("train_loss_final", "")},
    "infer-desk": {"items_per_s": ("infer_videos_per_s", "videos/s"),
                   "op_p50_s": ("infer_video_p50_s", "s"),
                   "op_tail_s": ("infer_video_tail_s", "s"),
                   "f1_avg": ("f1_avg", "")},
    "eval-dense": {"items_per_s": ("eval_videos_per_s", "videos/s"),
                   "f1_avg": ("input_f1_avg", "")},
}


def metric_units(trace: int) -> dict[str, str]:
    """Unit of every metric a run reports, from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def blas_threads() -> int:
    """BLAS threads for this run: one per usable core."""
    return len(os.sched_getaffinity(0))


def import_package():
    """Imports ddm from this tree's src directory, or exits with an error."""
    if not os.path.isfile(os.path.join(SRC, "ddm", "__init__.py")):
        sys.exit(f"error: no ddm package under {SRC}")
    sys.path.insert(0, SRC)
    import ddm
    if os.path.dirname(os.path.dirname(os.path.abspath(ddm.__file__))) != SRC:
        sys.exit(f"error: ddm was imported from {ddm.__file__}, not {SRC}")


def git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "cpu": cpu_model(), "commit": git_commit(), "seed": seed}


def run_one(args) -> int:
    import layers as layermod
    import workloads as wl
    from tracer import Tracer

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    results_dir = os.path.join(BUILD, "results", args.workload)
    os.makedirs(results_dir, exist_ok=True)
    model_path = None
    if args.workload == "infer-desk":
        model_path = wl.desk_model_path(BUILD, SRC, os.path.abspath(__file__))
    layers = None
    if args.trace:
        layers = layermod.DdmLayers(Tracer(run_id))
        layers.install()
    try:
        with tempfile.TemporaryDirectory(dir=BUILD) as work:
            if args.workload in ("train-desk", "train-paper"):
                result, checks, clock = wl.run_train(
                    args.seed, args.seconds, layers,
                    args.workload == "train-paper", work)
            elif args.workload == "infer-desk":
                result, checks, clock = wl.run_infer(
                    args.seed, args.seconds, layers, work, model_path)
            else:
                result, checks, clock = wl.run_eval(
                    args.seed, args.seconds, layers)
    finally:
        if layers is not None:
            layers.patches.restore()
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    stamp = time.strftime("%Y%m%dT%H%M%S")
    base = os.path.join(results_dir, f"{run_id}-{stamp}")
    units = metric_units(args.trace)
    if layers is not None:
        measured = layers.metrics(
            clock.traced(), wl.SETUPS,
            [end - start for start, end, _, _ in clock.untraced()],
            train=args.workload.startswith("train"))
        layers.tracer.write(base + ".spans.jsonl")
    else:
        measured = result
    metrics = {name: measured[name] for name in units}
    failed_share = len(checks.failed) / max(checks.attempted, 1)

    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {units[name]}")
    if not args.trace:
        for key, (name, unit) in JOB_NAMES[args.workload].items():
            print(f"{name:32s} {result[key]:.6g} {unit}")
        print(f"{'tail_percentile':32s} {result['op_tail_percentile']:.4g} "
              f"of {result['op_samples']} operations")
        print(f"{'failed_share':32s} {failed_share:.6g}")
    for what in checks.failed[:20]:
        print(f"FAILED {what}")
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace, "env": env,
                   "metrics": metrics, "units": units, "result": result,
                   "failed_share": failed_share, "ops": clock.ops,
                   "checks": {"attempted": checks.attempted,
                              "failed": checks.failed},
                   "missing_targets": (layers.patches.missing
                                       if layers is not None else [])},
                  fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": not checks.failed, "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process of its own."""
    status = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False, timeout=900)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-model", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and args.build_model is None:
        parser.error("--workload is required")

    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    if args.workload == "all":
        return run_all(args)
    import_package()
    if args.build_model:
        import workloads as wl
        wl.train_desk_model(args.build_model)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
