#!/usr/bin/env python3
"""Build and run the StormTrack benchmark (stbench).

Usage, from the root of a checkout:

    python3 stbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: coupled_field_ckpt, daemon_sessions, trace_replay (see
stbench/README.md). The first run in a checkout configures and builds the
library and the stbench binary in Release mode under $CARGO_TARGET_DIR (default
.bench_build); later runs only check the build is current. The binary runs
with OpenMP pinned to one thread, so every workload is single-process and
its thread count stays within the host's cores.

Prints context lines, the binary's report, and as the last line one JSON
object {"correct", "attempted", "failed", "metrics"}. Exits non-zero, with
no result line, when the build or the run fails, and non-zero with the
result line when a correctness check failed.
"""

import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("coupled_field_ckpt", "daemon_sessions", "trace_replay")
RUN_TIMEOUT_S = 170.0
BUILD_TIMEOUT_S = 840.0
# One OpenMP thread per process: with the runtime's default (one per core)
# the weather and nest loops spin threads next to the daemon's pool and the
# coupled run's wall time spreads by 2x from run to run.
OMP_THREADS = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def log(msg):
    print(f"stbench/run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    """$CARGO_TARGET_DIR/stbench, relative to the checkout root."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (target if target.is_absolute() else ROOT / target) / "stbench"


def build(directory):
    """Configure (once) and build the binary; returns its path or None."""
    directory.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(directory / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (directory / "Makefile").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(directory),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(directory), "-j", jobs])
        for cmd in steps:
            try:
                proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                      stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as exc:
                log(f"build step failed: {exc}")
                return None
            if proc.returncode != 0:
                log(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
                return None
    binary = directory / "stbench"
    return binary if binary.exists() else None


def source_digest():
    """SHA-256 over the library and benchmark sources, so a result can be
    tied to its code even where the checkout is not a git repository."""
    h = hashlib.sha256()
    files = []
    for base in (ROOT / "src", BENCH_DIR):
        if base.is_dir():
            files += [p for p in base.rglob("*")
                      if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt",
                                                       ".py")]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    binary = build(build_dir())
    if binary is None:
        return 3

    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = OMP_THREADS
    env["OMP_DYNAMIC"] = "false"
    env["OMP_WAIT_POLICY"] = "PASSIVE"
    print(f"context: git_sha={git_sha()} source_sha256={source_digest()} "
          f"build_type=Release omp_threads={OMP_THREADS}", flush=True)

    # A fixed-length name: the peak memory of a run depends on where the
    # allocator happened to place its large checkpoint buffers, and the
    # length of the paths it builds under this directory is enough to move
    # the field run's peak by 5 MiB (23.8 against 29.3 MiB for one seed).
    state_dir = Path(".bench_state") / f"run-{os.getpid():010d}"
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", repr(args.seconds), "--trace",
           args.trace, "--state-dir", str(state_dir)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S:.0f} s; killed")
        return 4
    lines = out.rstrip("\n").splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(out)
        log(f"stbench exited {proc.returncode} without a result")
        return proc.returncode or 5
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stdout.write(out)
        log("stbench's last line is not a result object")
        return 5
    print("\n".join(lines), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
