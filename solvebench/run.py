#!/usr/bin/env python3
"""Build bench_solve from this checkout and run it.

Run from the repository root:

  python3 solvebench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 solvebench/run.py --calibrate [--seconds S]
  python3 solvebench/run.py --smoke [--binary PATH]

The first form builds the library and bench_solve from source into
$CARGO_TARGET_DIR/solvebench (default .bench_build/solvebench), runs one
workload and relays its output; the last line of stdout is the JSON result.
Build logs go to stderr. Without the library sources next to solvebench/ it
exits nonzero before printing a result.

--calibrate runs two sets of ten runs of every workload, each run with its
own seed, and prints for each end-to-end metric the quartile spread of each
set (IQR / median, as statistics.quantiles gives it) and how far the second
set's median moved from the first's, next to the bound in BENCHMARK.json.

--smoke runs every workload at a small scale, untraced and traced, and checks
that each metric BENCHMARK.json names is printed as "name value unit" and in
the result line with that unit (the ctest case bench_solve_smoke).
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
CALIBRATION_SETS = 2
CALIBRATION_RUNS = 10


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "solvebench"


def jobs():
    return str(min(4, os.cpu_count() or 1))


def build():
    """Configure (once) and build bench_solve; return its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("run.py: library sources not found (expected CMakeLists.txt "
                 f"and src/ in {ROOT})")
    bdir = build_dir()
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        cfg = ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    steps.append(["cmake", "--build", str(bdir), "--target", "bench_solve", "-j", jobs()])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
            sys.exit(f"run.py: build failed: {e}")
    return bdir / "bench_solve"


def run_bench(binary, workload, seed, seconds, trace, extra=()):
    """Run one workload; return (exit code, stdout, parsed result or None)."""
    work = Path(binary).resolve().parent / "work"
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--workdir={work}",
           f"--out={work / f'result_{workload}_{int(trace)}.json'}"]
    if trace:
        cmd.append("--traced")
    cmd += list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, proc.stdout, result


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def quartile_spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def calibrate(binary, seconds):
    bench = load_benchmark()
    runs, sets = CALIBRATION_RUNS, CALIBRATION_SETS
    print("| workload | metric | bound | " +
          " | ".join(f"set {s + 1} median | set {s + 1} spread" for s in range(sets)) +
          " | drift |")
    print("|---|---|---|" + "---|---|" * sets + "---|")
    for wl in bench["workloads"]:
        values = {m["name"]: [[] for _ in range(sets)] for m in bench["end_to_end"]}
        for s in range(sets):
            for i in range(runs):
                seed = 1 + s * runs + i
                rc, out, res = run_bench(binary, wl["name"], seed, seconds, False)
                if rc != 0 or not res or not res["correct"]:
                    sys.stdout.write(out)
                    sys.exit(f"run.py: {wl['name']} seed {seed} failed (exit {rc})")
                for name in values:
                    values[name][s].append(res["metrics"][name]["value"])
                print(f"# {wl['name']} set {s + 1} seed {seed} done", file=sys.stderr)
        for m in bench["end_to_end"]:
            sets_v = values[m["name"]]
            meds = [statistics.median(v) for v in sets_v]
            sign = 1.0 if m["better"] == "lower" else -1.0
            drift = sign * (meds[-1] - meds[0]) / meds[0]
            cells = " | ".join(f"{med:.6g} | {quartile_spread(v):.4f}"
                               for med, v in zip(meds, sets_v))
            print(f"| {wl['name']} | {m['name']} | {m['bound']} | {cells} | {drift:+.4f} |",
                  flush=True)


def smoke(binary):
    bench = load_benchmark()
    failures = []
    for wl in bench["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            rc, out, res = run_bench(binary, wl["name"], 1, 0, trace,
                                     ["--scale=0.15", "--reps=1"])
            tag = f"{wl['name']} trace={trace}"
            before = len(failures)
            if rc != 0 or not res or res.get("correct") is not True:
                failures.append(f"{tag}: exit {rc}, result {res}")
                continue
            for m in bench[group]:
                line = re.compile(rf"^{re.escape(m['name'])} \S+ {re.escape(m['unit'])}( |$)",
                                  re.M)
                if not line.search(out):
                    failures.append(f"{tag}: no '{m['name']} <value> {m['unit']}' line")
                got = res["metrics"].get(m["name"], {})
                if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    failures.append(f"{tag}: result line lacks {m['name']} [{m['unit']}]")
            print(f"smoke {tag}: {'ok' if len(failures) == before else 'FAILED'}")
    for f in failures:
        print("FAIL", f)
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--calibrate", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary", help="use this bench_solve instead of building one")
    args = ap.parse_args()

    binary = Path(args.binary) if args.binary else build()
    if args.smoke:
        return smoke(binary)
    if args.calibrate:
        calibrate(binary, args.seconds)
        return 0
    if not args.workload:
        ap.error("--workload is required")
    rc, out, res = run_bench(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    if res is None:
        print(f"run.py: bench_solve printed no result (exit {rc})", file=sys.stderr)
        return rc or 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
