#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload power|throughput|refresh \
        --seed N --seconds S --trace 0|1 [--perturb CHECK]

Builds the engine and the benchmark binary from ../src in Release mode
(into $CARGO_TARGET_DIR, default .bench_build), runs one workload, and
prints two JSON lines: the run's provenance and full metric report, then
the result line {"correct", "attempted", "failed", "metrics"} with the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1). Exits 1 when any correctness check fails.
"""

import argparse
import hashlib
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170
CHECKS = ("power_digest", "throughput_state", "refresh_state", "recovery",
          "service_counters")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"engine sources not found under {ROOT / 'src'}")
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    cache = build_dir / "CMakeCache.txt"
    configured = cache.is_file() and \
        "CMAKE_BUILD_TYPE:STRING=Release" in cache.read_text(errors="replace")
    steps = []
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    with open(log, "w") as out:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=out,
                                      stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build timed out; see {log}")
            if done.returncode != 0:
                tail = log.read_text(errors="replace").splitlines(True)[-30:]
                fail(f"build failed; see {log}:\n" + "".join(tail))
    return build_dir / "perfbench"


def source_digest():
    """sha256 over the engine and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def flush_policy():
    """Whether the WAL and checkpoint writers call fsync, read from source."""
    calls = re.compile(r"\bf(data)?sync\s*\(")
    sources = ("util/wal.cc", "engine/checkpoint.cc")
    synced = [name for name in sources
              if calls.search((ROOT / "src" / name).read_text())]
    if synced:
        return "fsync in " + ", ".join(synced)
    return "WAL commit flushes to the OS page cache; no fsync anywhere"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("power", "throughput", "refresh"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--perturb", choices=CHECKS,
                        help="perturb one check's expected value; the run "
                             "must then fail")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    target = target if target.is_absolute() else ROOT / target
    binary = build(target / "perfbench")

    workdir = target / "work" / f"{args.workload}-{os.getpid()}"
    traces = target / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    spans = traces / f"{args.workload}-seed{args.seed}.json"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(workdir),
               "--spans", str(spans)]
    if args.perturb:
        command += ["--perturb", args.perturb]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"benchmark binary exited {done.returncode} without a report")

    # Select the metrics this run reports, in BENCHMARK.json's order and
    # units. A per-layer metric the workload does not exercise reads 0.
    declared = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    measured = report["metrics"]
    metrics = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        got = measured.get(name)
        if got is None and args.trace == 0:
            fail(f"{args.workload} did not measure end-to-end metric {name}")
        if got is not None and got["unit"] != unit:
            fail(f"{name}: measured in {got['unit']}, declared in {unit}")
        metrics[name] = {"value": got["value"] if got else 0, "unit": unit}

    provenance = dict(report["provenance"], workload=args.workload,
                      git_commit=git_commit(), source_sha256=source_digest(),
                      flush_policy=flush_policy(), seconds=args.seconds)
    # Tracing overhead: this traced run against the last untraced run of
    # the same workload in this build tree, when there is one.
    last = target / f"last-untraced-{args.workload}.json"
    if args.trace == 0:
        last.write_text(json.dumps(measured))
    elif last.is_file():
        untraced = json.loads(last.read_text())
        provenance["tracing_overhead"] = {
            name: {"untraced": untraced[name]["value"],
                   "traced": measured[name]["value"]}
            for name in ("qph", "query_p50_ms") if name in untraced}
    print(json.dumps({"provenance": provenance, "errors": report["errors"],
                      "report": measured}))
    correct = done.returncode == 0 and report["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
