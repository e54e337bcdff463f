#!/usr/bin/env python3
"""Build and run the E26 end-to-end serving benchmark.

Usage (from the repository root):

    python3 e2ebench/run.py --workload big_tree_paths --seed 1 \
        --seconds 35 --trace 0

Configures and builds `e2ebench/` (the pmtree library plus the benchmark
binary, Release) into `$CARGO_TARGET_DIR/e2ebench`, or
`.bench_build/e2ebench` when that variable is unset, then runs the binary
with the same arguments. The binary's last output line is the result
object; build logs go to stderr. Exits nonzero without a result when the
sources are missing, the build fails or a correctness gate fails.
"""
import fcntl
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message, code=2):
    print("e2ebench/run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "e2ebench")


def build(out):
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                fail("cmake configure failed")
        jobs = str(os.cpu_count() or 1)
        make = ["cmake", "--build", out, "--target", "e2ebench", "-j", jobs]
        if subprocess.run(make, stdout=sys.stderr).returncode != 0:
            fail("build failed")
    return os.path.join(out, "e2ebench")


def source_digest():
    """sha256 over the library and benchmark sources, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for top in ("include", "src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    """HEAD of the git repository rooted here, or "none"."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True)
    except OSError:
        return "none"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "none"
    return lines[1]


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "include", "pmtree")):
        fail("pmtree sources not found next to e2ebench/")
    binary = build(build_dir())
    args = [binary] + sys.argv[1:] + [
        "--commit", commit(), "--source-digest", source_digest()]
    sys.exit(subprocess.run(args).returncode)


if __name__ == "__main__":
    main()
