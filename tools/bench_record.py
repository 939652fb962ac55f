#!/usr/bin/env python3
"""Record one point of the performance trajectory.

Usage, from anywhere inside the repository:

    python3 tools/bench_record.py PR [--seconds S] [--seed N]

Runs the repository benchmark (perfbench/run.py) for every workload in
BENCHMARK.json, once end to end (--trace 0) and once traced (--trace 1),
and writes BENCH_<PR>.json at the repository root. The file holds each
run's result JSON, the C++ line counts of src/ and tools/, the commit
and the host's CPU count. If an earlier BENCH_*.json exists, the script
then prints each end-to-end metric of the newest one next to the new
value, with the ratio new/old and whether it moved the good way.
Exits nonzero when a run fails or prints no result.
"""

import argparse
import glob
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          stdout=subprocess.PIPE, text=True).stdout


def cxx_lines(directory):
    files = [f for f in git("ls-files", directory).split()
             if f.endswith((".cpp", ".hpp"))]
    total = 0
    for name in files:
        with open(os.path.join(ROOT, name), "rb") as handle:
            total += handle.read().count(b"\n")
    return total


def run_workload(name, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    print("bench_record: %s" % " ".join(cmd[1:]), file=sys.stderr)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("bench_record: %s (trace %d) failed with exit code %d"
                 % (name, trace, proc.returncode))
    return json.loads(lines[-1])


def previous_record(pr):
    """The BENCH_*.json with the highest PR number below `pr`."""
    best = None
    for path in glob.glob(os.path.join(ROOT, "BENCH_*.json")):
        match = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
        if match and int(match.group(1)) < pr:
            if best is None or int(match.group(1)) > best[0]:
                best = (int(match.group(1)), path)
    return best[1] if best else None


def compare(old, new, end_to_end):
    print("end-to-end against %s (ratio = new / old):" % old["file"])
    for workload, runs in new["runs"].items():
        before = old["runs"].get(workload, {}).get("trace0")
        if before is None:
            print("  %-12s not in the earlier record" % workload)
            continue
        for metric in end_to_end:
            name = metric["name"]
            a = before["metrics"].get(name, {}).get("value")
            b = runs["trace0"]["metrics"].get(name, {}).get("value")
            if not a or b is None:
                continue
            ratio = b / a
            better = ratio > 1 if metric["better"] == "higher" else ratio < 1
            print("  %-12s %-15s %12.6g -> %12.6g  x%.3f  %s"
                  % (workload, name, a, b, ratio,
                     "better" if better else "worse" if ratio != 1 else "same"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pr", type=int, help="number in the output name")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    record = {
        "pr": args.pr,
        "commit": git("rev-parse", "HEAD").strip(),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no",
                          "--", "src", "tools", "perfbench").strip()),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "loc": {"src": cxx_lines("src"), "tools": cxx_lines("tools")},
        "runs": {},
    }
    for workload in manifest["workloads"]:
        name = workload["name"]
        record["runs"][name] = {
            "trace%d" % trace: run_workload(name, args.seed, args.seconds,
                                            trace)
            for trace in (0, 1)
        }

    out = os.path.join(ROOT, "BENCH_%d.json" % args.pr)
    with open(out, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("bench_record: wrote %s" % out, file=sys.stderr)

    prev = previous_record(args.pr)
    if prev is None:
        print("no earlier BENCH_*.json to compare with")
        return 0
    with open(prev) as handle:
        old = json.load(handle)
    old["file"] = os.path.basename(prev)
    compare(old, record, manifest["end_to_end"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
