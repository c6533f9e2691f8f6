#!/usr/bin/env python3
"""vC2M end-to-end benchmark (see perfbench/README.md).

One workload, one process:

    python3 perfbench/run.py --workload sweep-fig4 --seed 42 --seconds 20 --trace 0

builds the runner from the checkout's sources into .bench_build/ (first
run only; later runs rebuild incrementally), runs the workload and prints
the runner's JSON result as the last line of stdout.

Every workload, default seeds, human-readable table:

    python3 perfbench/run.py --all [--seconds S] [--trace 1] [--held-out]

Run from the root of a checkout; the script exits non-zero without a
result when the checkout has no vC2M sources to build.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_BASE = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_BASE, "perfbench")
RUNNER = os.path.join(BUILD, "perfbench_runner")
RESULTS = os.path.join(BUILD_BASE, "results")

# Default seed per workload (the seeds the workloads were sized on), and
# one held-out seed kept for confirming a claimed gain after the fact.
DEFAULT_SEEDS = {
    "sweep-fig4": 42,
    "serve-saturated": 7,
    "serve-churn": 7,
    "des-certify": 11,
}
HELD_OUT_SEED = 90127


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; output goes to stderr so
    stdout carries only the runner's result."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no vC2M sources (src/CMakeLists.txt) next to perfbench/")
        return False
    os.makedirs(BUILD_BASE, exist_ok=True)
    with open(os.path.join(BUILD_BASE, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench_runner",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                log("perfbench: build step failed:", " ".join(cmd))
                return False
    return True


def source_digest():
    """SHA-256 over the sources the runner is built from: identifies the
    code under test even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def runner_cmd(workload, seed, seconds, trace, smoke, digest):
    cmd = [RUNNER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", RESULTS, "--source-digest", digest]
    return cmd + (["--smoke"] if smoke else [])


def details_path(workload, seed, trace, smoke):
    tag = f"{workload}-s{seed}" + ("-smoke" if smoke else "")
    return os.path.join(RESULTS, f"{tag}-trace{trace}.json")


def run_all(args, digest):
    """Every workload in its own process; prints each metric by name and
    unit, the workload's own metric names, and the error rate."""
    ok = True
    for workload, default_seed in DEFAULT_SEEDS.items():
        seed = HELD_OUT_SEED if args.held_out else default_seed
        proc = subprocess.run(
            runner_cmd(workload, seed, args.seconds, args.trace, args.smoke, digest),
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: runner failed (exit {proc.returncode})")
            ok = False
            continue
        result = json.loads(lines[-1])
        with open(details_path(workload, seed, args.trace, args.smoke)) as f:
            details = json.load(f)
        ok = ok and result["correct"]
        print(f"\n{workload} (seed {seed}): correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"error_rate={details['error_rate']:.6g} digest={details['digest']}")
        for name, m in result["metrics"].items():
            print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
        if not args.trace:
            for name, m in details["workload_metrics"].items():
                print(f"  ({name}){'':{max(0, 30 - len(name))}s} "
                      f"{m['value']:>16.6g} {m['unit']}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(DEFAULT_SEEDS))
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--seed", type=int, help="workload seed (default: per workload)")
    p.add_argument("--held-out", action="store_true",
                   help=f"with --all: use the held-out seed {HELD_OUT_SEED}")
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny input sizes")
    args = p.parse_args()
    if args.all == (args.workload is not None):
        p.error("give exactly one of --workload and --all")
    if args.seconds < 1:
        p.error("--seconds must be >= 1")

    seed = None
    if args.workload:
        seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
        if not 0 <= seed < 2 ** 53:
            p.error("--seed must be in [0, 2^53)")

    if not build():
        return 1
    digest = source_digest()
    os.makedirs(RESULTS, exist_ok=True)
    if args.all:
        return run_all(args, digest)
    return subprocess.run(runner_cmd(args.workload, seed, args.seconds,
                                     args.trace, args.smoke, digest)).returncode


if __name__ == "__main__":
    sys.exit(main())
