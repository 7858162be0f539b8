#!/usr/bin/env python3
"""Build and run the repository benchmark (see e2ebench/README.md).

Run from the root of a checkout:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --selftest     # the benchmark's own tests

The benchmark is a CMake package of its own (e2ebench/CMakeLists.txt)
that compiles the library from the checkout's src/. It is built into
$CARGO_TARGET_DIR (default .bench_build) under the checkout; an
unchanged tree rebuilds in well under a second. Build output goes to
stderr, so the last line on stdout is the benchmark's JSON result.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "e2ebench")
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def revision():
    """The git commit when the checkout is a repository, else a hash of
    the sources the benchmark builds."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, env=env)
        if result.returncode == 0:
            return "git:" + result.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "apophenia.h")):
        print("e2ebench: no library sources under src/; run from the root "
              "of a checkout", file=sys.stderr)
        return False
    configure = ["cmake", "-S", BENCH, "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if (not os.path.exists(os.path.join(out, "CMakeCache.txt"))
            and shutil.which("ninja")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for command in (configure, ["cmake", "--build", out, "-j", jobs]):
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            print("e2ebench: build failed", file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    out = build_dir()
    if not build(out):
        return 1
    if args.selftest:
        return subprocess.run(["ctest", "--test-dir", out,
                               "--output-on-failure"]).returncode
    command = [os.path.join(out, "e2e_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--revision", revision(),
               "--out", os.path.join(out, "traces")]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
