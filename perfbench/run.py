#!/usr/bin/env python3
"""Builds and runs the ftsp_perfbench binary from the root of a source tree.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The binary and the ftsp library are built from source (Release) under
.bench_build/ on first use; later runs only re-check the build. Build
output goes to stderr, so the last stdout line is the JSON result. With
--trace 1 the binary dumps its spans and counters, and the per-layer
metrics are the dump's rows (spans_to_rows.py) under the names and units
BENCHMARK.json lists, 0 where the workload does not reach a layer.
Exits nonzero, without a result, when the sources are missing or the
build fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
import spans_to_rows  # noqa: E402  (lives beside this script)

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "ftsp_perfbench")
WORKLOADS = ("compile_library", "compile_device", "simulate", "serve_mix")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def source_id():
    """The git commit (suffixed -dirty when the tree has uncommitted
    changes) when there is one, else a digest of the sources."""
    if os.path.isdir(".git") and shutil.which("git"):
        result = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True, text=True)
        if result.returncode == 0:
            return result.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(top) for f in files)
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join("src", "compile", "service.hpp")):
        fail("run from the root of the ftsp source tree (src/ not found)")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target",
                   "ftsp_perfbench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def promised_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json lists for this mode."""
    if not os.path.isfile("BENCHMARK.json"):
        fail("BENCHMARK.json not found")
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def per_layer_metrics(body, promised):
    """Rows of the span dump the binary names on a `perfbench trace` line."""
    dumps = [line.split(" ", 2)[2] for line in body
             if line.startswith("perfbench trace ")]
    if len(dumps) != 1:
        fail("ftsp_perfbench named no span dump")
    with open(dumps[0]) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    rows = spans_to_rows.rows(records)
    return {name: {"value": rows.get(name, 0.0), "unit": unit}
            for name, unit in promised.items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", source_id()]
    result = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = result.stdout.rstrip("\n").split("\n")
    body, last = lines[:-1], lines[-1]
    for line in body:
        print(line)
    sys.stdout.flush()
    try:
        outcome = json.loads(last)
    except ValueError:
        fail("ftsp_perfbench printed no result (exit %d)" % result.returncode)
    promised = promised_metrics(args.trace)
    if args.trace:
        outcome["metrics"] = per_layer_metrics(body, promised)
    if set(outcome["metrics"]) != set(promised):
        fail("metrics differ from BENCHMARK.json: %s"
             % sorted(set(outcome["metrics"]) ^ set(promised)))
    print(json.dumps(outcome))
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
