#!/usr/bin/env python3
"""Builds and runs the serving benchmark.

    python3 servebench/run.py --workload cold_wire --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The first call configures and builds
the benchmark binary (the repository's libraries from source, Release)
into $CARGO_TARGET_DIR/servebench, or .bench_build/servebench when that
variable is unset; later calls rebuild only what changed.  Build output
goes to stderr, so the binary's last stdout line -- one JSON object with
"correct", "attempted", "failed" and "metrics" -- stays the last line.
Run records and traces land in .bench_out/.

Exits non-zero without a result line when the build fails (for example
when the directory holds no repository source tree) or the run fails.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[servebench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "servebench")


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        log("configuring: " + " ".join(cmd))
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out, ignore_errors=True)  # retry from scratch next time
            return None
    cmd = ["cmake", "--build", out, "--target", "servebench", "-j",
           str(min(4, os.cpu_count() or 1))]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    binary = os.path.join(out, "servebench")
    return binary if os.path.exists(binary) else None


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def src_digest():
    """SHA-256 over the repository's source tree and build file, so a run
    names the code it measured even in a checkout that is not a git
    repository."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        paths += [os.path.join(top, f) for f in sorted(files)]
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["cold_wire", "sweep_inproc"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        log("build failed; no result")
        return 2
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--src-digest", src_digest(),
           "--out-dir", out_dir]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s; killed")
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
