#!/usr/bin/env python3
"""Build and run the LDplayer replay benchmark.

    python3 perfbench/run.py --workload udp_hot --seed 1 --seconds 10 --trace 0

Builds ldp-perfbench from the repository sources (CMake, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
measurement and passes its report through; the last line of standard output
is the JSON result. See perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configure as Release, then (re)build the benchmark binary; stdout of
    the tools goes to stderr so the result stays the last line of stdout.
    Configuring on every run keeps a build tree left in another build type
    from being measured."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "--target", "ldp-perfbench",
              "-j", jobs]]
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as exc:
            log(f"build failed: {exc}")
            return False
        if proc.returncode != 0:
            log(f"build failed: {' '.join(cmd)} exited {proc.returncode}")
            return False
    return True


def git(root, *args):
    """Output of a git command in root, or None."""
    try:
        out = subprocess.run(["git", *args], cwd=root, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def sources_digest(root):
    """A digest of the sources the benchmark builds (src/ and perfbench/)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(root)).encode() + b"\0")
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def commit_of(root):
    """The git commit, with "+dirty:" and the sources digest when src/ or
    perfbench/ differ from it; outside a git checkout, the digest alone."""
    top = git(root, "rev-parse", "--show-toplevel")
    head = git(root, "rev-parse", "HEAD")
    status = git(root, "status", "--porcelain", "--", "src", "perfbench")
    if top is None or Path(top).resolve() != root or head is None or status is None:
        return sources_digest(root)
    return head if not status else f"{head}+dirty:{sources_digest(root)}"


def run_once(cmd, root, deadline):
    """Run ldp-perfbench; returns (exit code, stdout lines, parsed result)."""
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("run exceeded its time budget and was killed")
        return 3, [], None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode not in (0, 1) or not isinstance(result, dict):
        log(f"ldp-perfbench exited {proc.returncode} without a result")
        return proc.returncode or 4, lines, None
    return proc.returncode, lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    build_dir = target / "perfbench"
    work_dir = target / "perfbench-work"
    if not build(root, build_dir):
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    cmd = [str(build_dir / "ldp-perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--work-dir", str(work_dir), "--commit", commit_of(root)]
    try:
        if args.trace == "1":
            # The untraced baseline for bench.trace_overhead_frac runs in its
            # own process, so both measured replays are a process's first.
            code, lines, base = run_once(cmd + ["--trace", "0"], root, deadline)
            if base is None:
                return code
            sys.stderr.write("\n".join(lines) + "\n")
            cpu = base["metrics"]["cpu_ms_per_kq"]["value"]
            cmd += ["--untraced-cpu-ms-per-kq", repr(cpu)]
        code, lines, result = run_once(cmd + ["--trace", args.trace], root, deadline)
    finally:
        for pcap in work_dir.glob("*.pcap"):
            pcap.unlink()
    if result is None:
        return code
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
