#!/usr/bin/env python3
"""Build and run the vmcons benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload whatif_batch --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which builds the library
from the checkout's src/) under .bench_build/perfbench; later calls only
rebuild what changed. The benchmark binary's standard output is relayed as
is, so its last line is the result object. Build output goes to standard
error. With --trace 1 the Chrome trace lands in .bench_build/perfbench/traces.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SOURCE_ROOT = BENCH_DIR.parent
OUT_DIR = Path(".bench_build") / "perfbench"
BUILD_DIR = OUT_DIR / "build"
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(targets):
    if not (SOURCE_ROOT / "CMakeLists.txt").is_file() or not (SOURCE_ROOT / "src").is_dir():
        fail(f"no vmcons source tree at {SOURCE_ROOT}; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    command = ["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target", *targets]
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def source_revision():
    """Git revision when available, plus a digest of the built sources."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = SOURCE_ROOT / top
        files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
        for file in files:
            digest.update(str(file.relative_to(SOURCE_ROOT)).encode())
            digest.update(file.read_bytes())
    git = "nogit"
    if (SOURCE_ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(SOURCE_ROOT), "rev-parse", "--short=12", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            git = rev.stdout.strip() or git
        except (OSError, subprocess.SubprocessError):
            pass
    return f"{git}+src:{digest.hexdigest()[:12]}"


def run_bounded(command):
    """Runs command in its own process group; kills the group on timeout."""
    process = subprocess.Popen(command, stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        # Reap any worker the benchmark forked and left behind.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return process.returncode, stdout


def expected_metrics(workload, trace):
    """Metric names BENCHMARK.json promises for this mode, if it lists the
    workload (an unlisted one, like whatif_batch, may print more)."""
    spec_path = Path("BENCHMARK.json")
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    if workload not in {w["name"] for w in spec["workloads"]}:
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        build(["perfbench_test"])
        test = (BUILD_DIR / "perfbench_test").resolve()
        sys.exit(subprocess.run([str(test)], cwd=OUT_DIR).returncode)
    if not args.workload:
        fail("--workload is required")

    build(["vmcons_perfbench"])
    command = [str(BUILD_DIR / "vmcons_perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(OUT_DIR / "work"),
               "--git-rev", source_revision()]
    if args.trace:
        traces = OUT_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    code, stdout = run_bounded(command)
    if code != 0:
        fail(f"benchmark exited with code {code}")

    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("benchmark printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(result)}")
    expected = expected_metrics(args.workload, args.trace)
    printed = set(result["metrics"])
    if expected is not None and not (printed <= expected and
                                     expected - printed <= {"core.batch.scaling_eff",
                                                            "core.shard.scaling_eff"}):
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(expected - printed)}, "
             f"unexpected {sorted(printed - expected)}")
    sys.stdout.write(stdout if stdout.endswith("\n") else stdout + "\n")


if __name__ == "__main__":
    main()
