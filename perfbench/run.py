#!/usr/bin/env python3
"""Build and run the COPS-HTTP loopback benchmark (see README.md here).

Run from the repository root:

    python3 perfbench/run.py --workload hot_keepalive --seed 1 --seconds 10 --trace 0

The first run configures a Release build of this directory (which compiles
the server from ../src) into $CARGO_TARGET_DIR, or .bench_build when that is
unset, and writes the SpecWeb99 fileset under it.  Later runs only re-check
the build.  Build output goes to stderr; the benchmark's last stdout line is
its JSON result, and the exit code is the benchmark's.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def commit_id():
    """The git commit when there is one, else a digest of the server sources."""
    if os.path.isdir(".git") and shutil.which("git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    for top, dirs, files in os.walk("src"):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(top, name)
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(out_dir):
    """Configure (once) and build; True on success.  Output goes to stderr."""
    def step(cmd):
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0

    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not step(cmd):
            return False
    return step(["cmake", "--build", out_dir, "--target", "cops_perfbench",
                 "-j", str(os.cpu_count() or 1)])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    if not os.path.isdir("src") or not build(out_dir):
        print("perfbench: build failed (run from the repository root)",
              file=sys.stderr)
        return 1
    cmd = [os.path.join(out_dir, "cops_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--fixture", os.path.join(out_dir, "fixture"),
           "--commit", commit_id()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
