#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark at tiny sizes.

    python3 perfbench/selftest.py

For each workload, through perfbench/run.py with --tiny:
  * --trace 0 and --trace 1 pass their oracles and print every metric of
    BENCHMARK.json by name, with its unit and sample count, in the
    human-readable lines and in the result object;
  * the traced run prints the self-time accounting line (per-layer self
    times, unattributed time and the tracing overhead);
  * with one TP bit of one archived entry flipped, the run is counted as
    failed (failed >= 1, correct = false, non-zero exit), not passed.
Exits non-zero if any check fails. Takes about a minute after the build.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stream_decode", "can_forensics", "refresh_ingest")
METRIC_LINE = re.compile(r"^metric (\S+)\s+(-?[0-9.eE+-]+) (\S+)\s+n=(\d+)$")


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    res = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                         env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    lines = res.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1]) if lines[-1].startswith("{") else None
    return res.returncode, lines, result, res.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, result, err = run(workload, trace)
            tag = f"{workload} --trace {trace}"
            expect(code == 0 and result is not None and result["correct"]
                   and result["failed"] == 0, f"{tag}: oracles pass")
            if result is None:
                sys.stderr.write(err)
                continue
            want = {m["name"]: m["unit"] for m in spec[group]}
            printed = {}
            for line in lines:
                match = METRIC_LINE.match(line)
                if match:
                    printed[match.group(1)] = match.group(3)
            expect(all(printed.get(n) == u for n, u in want.items()),
                   f"{tag}: every {group} metric printed with its unit and sample count")
            expect(printed.get("failed_frac") == "ratio", f"{tag}: failed_frac printed")
            expect({n: m["unit"] for n, m in result["metrics"].items()} == want,
                   f"{tag}: result object names every {group} metric with its unit")
            if trace:
                accounting = [l for l in lines if l.startswith("self-time ")]
                expect(len(accounting) == 1 and "unattributed=" in accounting[0]
                       and "overhead=" in accounting[0], f"{tag}: self-time accounting line")

        code, lines, result, _ = run(workload, 0, "--flip-tp-bit")
        expect(code != 0 and result is not None and result["failed"] >= 1
               and not result["correct"],
               f"{workload}: a flipped TP bit in the archive is counted as failed")

    print("selftest", "FAILED" if problems else "passed")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
