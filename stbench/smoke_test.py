#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (under a minute).

Run from the root of a checkout:

    python3 stbench/smoke_test.py

For every workload it checks that
  * an end-to-end run and a traced run print every metric BENCHMARK.json
    names, with its unit, and nothing else;
  * the end-to-end values are finite and non-zero, and the run is correct;
  * a deliberately wrong expected fingerprint makes the correctness check
    fail (negative test: result "correct": false, non-zero exit);
  * a held-out seed, never used while tuning the benchmark, runs clean.
Exits 0 when every check passes.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's build step)

HELD_OUT_SEED = 918273645


def spec():
    with open(run.ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    return [w["name"] for w in bench["workloads"]], e2e, layers


def drive(binary, workload, seed, trace, extra=()):
    env = dict(os.environ, OMP_NUM_THREADS=run.OMP_THREADS)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny",
           "--state-dir", f".bench_state/smoke-{os.getpid()}", *extra]
    proc = subprocess.run(cmd, cwd=run.ROOT, env=env, capture_output=True,
                          text=True, timeout=run.RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stdout + proc.stderr


def main():
    workloads, e2e, layers = spec()
    binary = run.build(run.build_dir())
    if binary is None:
        print("FAIL: build")
        return 1
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in workloads:
        for trace, names in ((0, e2e), (1, layers)):
            code, result, out = drive(binary, w, 7, trace)
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{w} trace={trace}: runs clean")
            if result is None:
                print(out)
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == names, f"{w} trace={trace}: every named metric "
                  "present with its unit")
            values = [v["value"] for v in result["metrics"].values()]
            check(all(isinstance(v, (int, float)) and math.isfinite(v)
                      for v in values), f"{w} trace={trace}: values finite")
            if trace == 0:
                check(all(v > 0 for v in values),
                      f"{w}: end-to-end values non-zero")
        code, result, _ = drive(binary, w, 7, 0, ["--corrupt-expected"])
        check(code != 0 and result is not None and not result["correct"]
              and result["failed"] > 0,
              f"{w}: wrong expected fingerprint fails the check")
        code, result, _ = drive(binary, w, HELD_OUT_SEED, 0)
        check(code == 0 and result is not None and result["correct"]
              and result["failed"] == 0, f"{w}: held-out seed runs clean")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
