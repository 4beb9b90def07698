#!/usr/bin/env python3
"""Loopback serving benchmark for upsimd.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first run configures and builds the
upsim libraries and the benchmark program (perfbench/*.cpp) under .bench_build/ (or
$CARGO_TARGET_DIR) in Release mode; later runs only check that the build is
up to date.  The program's last line of stdout is the JSON result; with
--trace 1 it also writes the replay's spans as Chrome trace JSON next to the
build.  Workloads, metrics and the layer table are in perfbench/README.md.
"""
import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("usi_upsim_hot", "campus_upsim_miss", "usi_availability",
             "campus_churn")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run(command, timeout, **kwargs):
    """Runs `command` to completion and returns its exit code.  On timeout,
    SIGTERM or SIGINT the child is killed and waited for first."""
    child = subprocess.Popen(command, **kwargs)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail("%s exceeded %d s" % (Path(command[0]).name, timeout))


def build(source, build_dir):
    """Configures once, then builds incrementally; output goes to a log."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(source), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "upsim_perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = run(step, BUILD_TIMEOUT_S, stdout=log,
                           stderr=subprocess.STDOUT)
            except OSError as e:
                fail("build step %s failed: %s" % (step[:2], e))
            if code != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed (log: %s)" % log_path)
    return build_dir / "upsim_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    source = Path(__file__).resolve().parent
    root = source.parent
    golden = root / "tests" / "golden" / "fig11_upsim_t1_p2.golden"
    if not (root / "src" / "CMakeLists.txt").is_file() or not golden.is_file():
        fail("run from a checkout of the upsim repository (src/ and "
             "tests/golden/ are missing)")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    binary = build(source, target / "perfbench")

    spans = target / "perfbench" / ("spans_%s.json" % args.workload)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--golden", str(golden),
               "--spans-out", str(spans)]
    sys.exit(run(command, RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
