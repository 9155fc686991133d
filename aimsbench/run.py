#!/usr/bin/env python3
"""Builds and runs the AIMS benchmark for one workload.

Run from the repository root:

    python3 aimsbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The library and the aims_bench binary are compiled from source into
$CARGO_TARGET_DIR/aimsbench (default .bench_build/aimsbench). Stores and
span logs go to .bench_work. Every line aims_bench prints is echoed and
also appended to .bench_work/<workload>.log as it arrives, so a run that
aborts keeps what it had measured. The last line of standard output is
the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end list of BENCHMARK.json, with
--trace 1 the per_layer list. Exit code 0 means every correctness check
passed; a failed check prints the result with "correct": false and exits
1; a build failure or crash exits non-zero without a result line.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("ingest_durable", "query_mixed", "stream_recognize")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[aimsbench] {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds aims_bench; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", "4", "--target", "aims_bench"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "aims_bench")


def filesystem_of(path):
    """Type of the filesystem mounted at the longest prefix of path."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (the benchmark's own smoke test)")
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(os.path.join(build_root, "aimsbench"))
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 1

    work_dir = ".bench_work"
    os.makedirs(work_dir, exist_ok=True)
    # Stores of an earlier run that was killed.
    for name in os.listdir(work_dir):
        if name.startswith("ingest_store_"):
            shutil.rmtree(os.path.join(work_dir, name), ignore_errors=True)

    metrics, env, failed_checks = {}, {}, []
    attempted, failed = 0, 0
    env["git_sha"] = git_sha()
    env["store_filesystem"] = filesystem_of(work_dir)
    log_path = os.path.join(work_dir, f"{args.workload}.log")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir] + (["--tiny"] if args.tiny else [])
    start = time.monotonic()
    with open(log_path, "a") as saved:
        saved.write(f"# run {' '.join(cmd)}\n")
        for key, value in env.items():
            line = f"E {key} {value}"
            print(line, flush=True)
            saved.write(line + "\n")
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            for line in proc.stdout:
                print(line, end="", flush=True)
                saved.write(line)
                saved.flush()
                fields = line.split()
                if not fields:
                    continue
                if fields[0] == "M" and len(fields) >= 5:
                    metrics[fields[1]] = (float(fields[2]), fields[3], int(fields[4]))
                elif fields[0] == "E" and len(fields) >= 3:
                    env[fields[1]] = " ".join(fields[2:])
                elif fields[0] == "C" and fields[1] == "0":
                    failed_checks.append(" ".join(fields[2:]))
                elif fields[0] == "A" and len(fields) == 3:
                    attempted, failed = int(fields[1]), int(fields[2])
                if time.monotonic() - start > RUN_TIMEOUT_S:
                    raise subprocess.TimeoutExpired(cmd, RUN_TIMEOUT_S)
            rc = proc.wait(timeout=max(1, RUN_TIMEOUT_S - (time.monotonic() - start)))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            log(f"aims_bench exceeded {RUN_TIMEOUT_S} s; killed")
            return 1
    if rc not in (0, 1):
        log(f"aims_bench exited with {rc}; lines so far are in {log_path}")
        return 1

    result_metrics, problems = {}, list(failed_checks)
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        if name not in metrics:
            problems.append(f"metric {name} was not emitted")
            continue
        value, emitted_unit, _ = metrics[name]
        if emitted_unit != unit:
            problems.append(f"metric {name} has unit {emitted_unit}, declared {unit}")
        result_metrics[name] = {"value": value, "unit": unit}
    if attempted < 1:
        problems.append("no operation was attempted")
    correct = rc == 0 and not problems
    for problem in problems:
        log(f"check failed: {problem}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "correct": correct,
              "attempted": attempted, "failed": failed, "problems": problems,
              "metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in metrics.items()}}
    with open(os.path.join(work_dir, f"result-{args.workload}-t{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": result_metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
