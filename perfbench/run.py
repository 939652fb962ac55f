#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench (Release) from perfbench/ and src/ into the build tree
named by $CARGO_TARGET_DIR (default .bench_build), then runs it. The
benchmark's notes go to stderr; the last line on stdout is its JSON result.
Exits nonzero, printing no result, when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_root):
    cmake_dir = os.path.join(build_root, "cmake")
    # Compiler temporaries stay inside the build tree too.
    tmp = os.path.abspath(os.path.join(build_root, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", cmake_dir,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", cmake_dir, "-j4"],
                   check=True, stdout=sys.stderr, env=env)
    return cmake_dir


def main(argv):
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        cmake_dir = build(build_root)
    except (OSError, subprocess.CalledProcessError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 2

    if argv == ["--selftest"]:
        return subprocess.run([os.path.join(cmake_dir, "perfbench_selftest")],
                              stdout=sys.stderr).returncode

    args = [os.path.join(cmake_dir, "perfbench")] + argv + [
        "--workdir", os.path.join(build_root, "run"),
    ]
    if "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]:
        name = argv[argv.index("--workload") + 1] if "--workload" in argv else "x"
        seed = argv[argv.index("--seed") + 1] if "--seed" in argv else "1"
        args += ["--trace-out", os.path.join(
            build_root, "trace", "%s-seed%s.json" % (name, seed))]
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    # Library chatter (e.g. the fabric coordinator's digest line) stays
    # visible on stderr; only the result line goes to stdout.
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if lines and lines[-1].startswith("{"):
        print(lines[-1])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
