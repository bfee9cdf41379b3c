#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1> [--size full|tiny]

Run from anywhere inside a checkout. Builds perfbench/ (which compiles the
library under src/) into .bench_build/perfbench with CMake, runs the pdbench
program for one workload, and prints:

  * a report: the host/config stamp and every metric the run produced, by
    name, with its unit (lines starting with '#');
  * as the last line, the result object
        {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
    whose metrics are BENCHMARK.json's end_to_end set with --trace 0 and its
    per_layer set with --trace 1, each as {"value": v, "unit": u}.

Exits 0 when every answer was right, 1 when some op failed (the result line
is still printed), and 2 without a result when the build or the run itself
could not be done. --size tiny shrinks every workload for the smoke test.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170
# Compiler and pdbench temporaries stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=str(BUILD / "tmp"))


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then an incremental build (a no-op when current)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD.parent / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *gen])
        steps.append(["cmake", "--build", str(BUILD), "--target", "pdbench",
                      "-j", jobs])
        for cmd in steps:
            try:
                p = subprocess.run(cmd, stdout=subprocess.PIPE,
                                   stderr=subprocess.STDOUT, text=True,
                                   env=ENV)
            except OSError as e:
                fail(f"cannot run {cmd[0]}: {e}")
            if p.returncode != 0:
                sys.stderr.write(p.stdout)
                fail("build failed: " + " ".join(cmd))
    return BUILD / "pdbench"


def run_pdbench(binary, args):
    scratch = BUILD / "scratch" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--dir", str(scratch)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S, env=ENV)
    except subprocess.TimeoutExpired:
        fail(f"pdbench did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode not in (0, 1) or not lines:
        fail(f"pdbench exited with {p.returncode}")
    return p.returncode, json.loads(lines[-1])


def report(out):
    c = out["config"]
    print(f"# workload {c['workload']}  seed {c['seed']}  seconds "
          f"{c['seconds']}  trace {int(c['trace'])}  size {c['size']}")
    print(f"# host: nproc {c['nproc']}  cpu {c['cpu_model']}  simd "
          f"{c['simd_level']}  build {c['build_type']}")
    print(f"# config: D={c['num_disks']} B={c['block_items']} item_bytes="
          f"{c['item_bytes']} degree={c['degree']} n={c['n']} "
          f"prefix_ops={c['prefix_ops']} backend={c['backend']} "
          f"io_threads={c['io_threads']} cache_frames={c['cache_frames']} "
          f"seek_latency_us={c['seek_latency_us']} "
          f"setup_reps={c['setup_reps']}")
    print(f"# ops: attempted {out['attempted']}  failed {out['failed']}  "
          f"(wrong answers {out['wrong_answers']}, exceptions "
          f"{out['exceptions']}, paper-bound violations "
          f"{out['pio_bound_violations']}, traced I/O match "
          f"{out['traced_io_match']})")
    for name, (value, unit, kind) in sorted(out["metrics"].items()):
        print(f"#   {name:38s} {value:>16.6g} {unit:16s} {kind}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    binary = build()
    rc, out = run_pdbench(binary, args)
    report(out)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = out["metrics"].get(m["name"])
        if got is None:
            fail(f"pdbench did not report {m['name']}")
        if got[1] != m["unit"]:
            fail(f"{m['name']}: unit {got[1]!r}, BENCHMARK.json says "
                 f"{m['unit']!r}")
        metrics[m["name"]] = {"value": got[0], "unit": m["unit"]}
    correct = bool(out["correct"]) and rc == 0
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
