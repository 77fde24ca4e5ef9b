#!/usr/bin/env python3
"""Smoke test of the benchmark.

Runs every workload of BENCHMARK.json in its smoke configuration (tiny
inputs, one second), untraced and traced, and checks that:

- the last stdout line is the result object, with every metric the
  benchmark declares for that mode, each with its declared unit;
- the correctness gate and, in traced runs, the recomposition check
  passed: no failed operation;
- the stamp line before it names the host, the code and the mode;
- in a directory holding only BENCHMARK.json and the benchmark's own
  files, the benchmark exits non-zero without printing a result.

Run from the repository root:  python3 perfbench/test/smoke.py
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

STAMP_KEYS = {"workload", "seed", "seconds", "trace_sink", "smoke", "nproc",
              "ocaml", "git_commit", "source_digest"}


def run(cwd, workload, trace):
    return subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check(spec, workload, trace):
    out = run(".", workload, trace)
    where = f"{workload} --trace {trace}"
    assert out.returncode == 0, f"{where}: exit {out.returncode}\n{out.stderr}"
    lines = out.stdout.strip().splitlines()
    result, stamp = json.loads(lines[-1]), json.loads(lines[-2])["stamp"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] and result["failed"] == 0, f"{where}: {result}"
    assert result["attempted"] >= 1, where
    declared = spec["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected, f"{where}: metrics {got} != {expected}"
    assert STAMP_KEYS <= set(stamp), f"{where}: stamp {stamp}"
    assert stamp["trace_sink"] == bool(trace) and stamp["workload"] == workload
    print(f"ok {where}: {result['attempted']} operations", flush=True)


def check_bare(spec):
    """Without the program's sources the benchmark must fail cleanly."""
    os.makedirs(".perfbench_run", exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".perfbench_run") as bare:
        shutil.copy("BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(path, os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("_build"))
        out = run(bare, spec["workloads"][0]["name"], 0)
        assert out.returncode != 0, "bare checkout: exit 0"
        assert '"metrics"' not in out.stdout, "bare checkout printed a result"
    print("ok bare checkout fails without a result", flush=True)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check(spec, w["name"], trace)
    check_bare(spec)


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"FAIL {e}", file=sys.stderr)
        sys.exit(1)
