#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The benchmark is built from source
with CMake into $CARGO_TARGET_DIR (default .bench_build) on first use.
Human-readable results go to standard output; the last line is one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end-to-end metrics named in BENCHMARK.json; with
--trace 1 they are its per-layer metrics, measured in a traced run and
compared against an untraced run of the same seed for the tracing
overhead. The exit status is non-zero when a correctness check failed or
the benchmark could not run.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """Commit id when the checkout is a git repository, else a content
    hash of the program and benchmark sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "group.h")):
        fail(f"program sources not found under {ROOT}/src")
    jobs = str(os.cpu_count() or 2)
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_binary(out_dir, args, traced):
    scratch = os.path.join(out_dir, "scratch")
    os.makedirs(scratch, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{int(traced)}"
    result_path = os.path.join(scratch, tag + ".json")
    cmd = [os.path.join(out_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "1" if traced else "0", "--out", result_path,
           "--scratch", scratch, "--commit", source_id()]
    if traced:
        cmd += ["--trace-file", os.path.join(scratch, tag + ".trace.json")]
    if os.path.exists(result_path):
        os.remove(result_path)
    proc = subprocess.run(cmd, stdout=sys.stdout, stderr=sys.stderr,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode not in (0, 1) or not os.path.isfile(result_path):
        fail(f"{args.workload} exited with status {proc.returncode}")
    with open(result_path) as handle:
        return json.load(handle)


def select(values, specs, kind):
    """The metrics named in BENCHMARK.json, in its order. A per-layer
    metric of a layer the workload does not exercise reads 0."""
    out = {}
    for spec in specs:
        name = spec["name"]
        if name in values:
            out[name] = {"value": values[name]["value"], "unit": spec["unit"]}
        elif kind == "per_layer":
            out[name] = {"value": 0.0, "unit": spec["unit"]}
        else:
            fail(f"end-to-end metric {name} missing from the result")
    return out


def overhead(untraced, traced):
    """Relative change of every end-to-end metric with tracing on."""
    out = {}
    for name, metric in untraced["end_to_end"].items():
        base = metric["value"]
        value = traced["end_to_end"].get(name, {}).get("value", base)
        out["trace_overhead." + name] = {
            "value": (value - base) / base if base else 0.0, "unit": "frac"}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    out_dir = build_dir()
    try:
        build(out_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"build failed: {err}")

    untraced = run_binary(out_dir, args, traced=False)
    if args.trace:
        traced = run_binary(out_dir, args, traced=True)
        values = dict(traced["per_layer"])
        values.update(overhead(untraced, traced))
        metrics = select(values, spec["per_layer"], "per_layer")
        runs = [untraced, traced]
    else:
        metrics = select(untraced["end_to_end"], spec["end_to_end"],
                         "end_to_end")
        runs = [untraced]
    correct = all(r["correct"] for r in runs)
    line = {"correct": correct,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics}
    print(json.dumps(line), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
