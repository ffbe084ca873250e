#!/usr/bin/env python3
"""Build and run one workload of the end-to-end timeprint benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: stream_decode, can_forensics, refresh_ingest (see
perfbench/NOTES.md). The first call configures and builds the library and
the tp_perfbench program in Release mode under $CARGO_TARGET_DIR (default
.bench_build); later calls only rebuild what changed. Spans and per-round
records go to .bench_out/.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The exit code is 0 only
when every oracle passed; a missing library source tree, a failed build or
a result whose metric names differ from BENCHMARK.json exit non-zero
without a result line.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stream_decode", "can_forensics", "refresh_ingest")
# A run must end within 180 s; the build is excused.
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench-release")


def build():
    """Configure once, then build tp_perfbench; returns its path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "tp_perfbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(3, "build failed; log in " + log_path)
    return os.path.join(out, "tp_perfbench")


def commit_id():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True, env=env)
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def source_sha256():
    """Digest of the library and benchmark sources: identifies the code
    even where no git metadata exists."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(5, "tp_perfbench's last line is not a result object")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(5, "result keys differ from the contract")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        fail(5, f"metrics differ from BENCHMARK.json: got {sorted(got)}, want {sorted(want)}")
    if result["attempted"] < 1:
        fail(5, "no operation attempted")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    ap.add_argument("--flip-tp-bit", action="store_true",
                    help="self-test fault: corrupt one archived entry")
    args = ap.parse_args()
    if args.seconds <= 0:
        fail(2, "--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, "library sources (src/) not found next to perfbench/")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", os.path.join(ROOT, ".bench_out"),
           "--commit", commit_id(), "--source-sha256", source_sha256()]
    if args.tiny:
        cmd.append("--tiny")
    if args.flip_tp_bit:
        cmd.append("--flip-tp-bit")

    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(4, f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        fail(proc.returncode or 5, f"{args.workload} ended without a result")
    result = check_result(lines[-1], args.trace == "1")
    for line in lines[:-1]:
        print(line)
    print(f"elapsed {time.monotonic() - start:.3f} s")
    print(lines[-1])
    sys.stdout.flush()
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
