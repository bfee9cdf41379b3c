#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it runs perfbench/run.py twice untraced
and twice traced with one seed and --size tiny, and checks that

  * every run exits 0 and reports correct == true and failed == 0;
  * every end_to_end metric (untraced) and every per_layer metric (traced)
    is reported with the unit BENCHMARK.json gives it;
  * the counted metrics repeat exactly between the two runs of the seed.

It also checks that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and perfbench/. Exits
nonzero on the first failure. Takes about a minute after the build.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
# Counted metrics: functions of the seed and the op prefix only, never of
# the clock, so two runs of one seed must agree exactly.
COUNTED = {
    0: ["pio_per_op", "pio_per_lookup", "pio_worst_op", "pio_worst_lookup",
        "space_amp"],
    1: ["disk_array.parallel_ios", "disk_array.blocks_read",
        "disk_array.blocks_written", "disk_array.round_utilization",
        "buffer_pool.hit_rate", "buffer_pool.evictions_per_op",
        "buffer_pool.dirty_evictions_per_op", "buffer_pool.flush_rounds",
        "backend.blocks_per_op", "rebuild.count",
        "rebuild.migrating_op_frac", "static_build.sort_pio",
        "static_build.total_pio", "static_build.levels"],
}


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check(cond, msg):
    if not cond:
        print(f"FAIL: {msg}")
        sys.exit(1)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            wanted = spec["per_layer" if trace else "end_to_end"]
            results = []
            for _ in range(2):
                p = run(name, trace)
                check(p.returncode == 0,
                      f"{name} trace={trace}: exit {p.returncode}\n"
                      f"{p.stdout}{p.stderr}")
                out = json.loads(p.stdout.strip().splitlines()[-1])
                check(sorted(out) == ["attempted", "correct", "failed",
                                      "metrics"],
                      f"{name}: result keys {sorted(out)}")
                check(out["correct"] and out["failed"] == 0 and
                      out["attempted"] >= 1,
                      f"{name} trace={trace}: {out['failed']} failed ops")
                for m in wanted:
                    got = out["metrics"].get(m["name"])
                    check(got is not None and got["unit"] == m["unit"],
                          f"{name} trace={trace}: {m['name']} missing or "
                          f"wrong unit: {got}")
                check(len(out["metrics"]) == len(wanted),
                      f"{name} trace={trace}: extra metrics")
                results.append(out["metrics"])
            for m in COUNTED[trace]:
                a, b = results[0][m]["value"], results[1][m]["value"]
                check(a == b, f"{name} trace={trace}: {m} differs between "
                              f"runs of one seed: {a} vs {b}")
            print(f"ok  {name:14s} trace={trace}")

    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = run(spec["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(p.returncode != 0 and not p.stdout.strip(),
          "benchmark ran without the library sources")
    print("ok  refuses to run without src/")


if __name__ == "__main__":
    main()
