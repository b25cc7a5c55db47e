#!/usr/bin/env python3
"""Build and run the walker-system benchmark.

One run:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds the program from ../src in Release (once per checkout, into
$CARGO_TARGET_DIR or .bench_build), runs one workload and prints its
result as the last line of stdout: one JSON object with the keys
correct, attempted, failed and metrics.

Repeat mode:
    python3 perfbench/run.py --repeat 10 [--workload <name>] [--seconds <s>] [--trace <0|1>]

runs each workload (or the one named) with seeds 1..N and prints, per
metric, the median, the quartiles and the spread (interquartile range
over the median) that the bounds in BENCHMARK.json are set from.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["join-probe", "point-lookup", "mixed-rw", "burst"]
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(ROOT, "src", "service", "index_service.hh")):
        sys.exit("perfbench: the program's sources (src/) are not in this checkout")
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def run_once(binary, workload, seed, seconds, trace, extra=()):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", os.path.join(build_dir(), f"spans-{workload}-{seed}.json")]
    cmd += list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                          text=True)
    if proc.returncode != 0:
        sys.exit(f"perfbench: {workload} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"perfbench: {workload} printed no result")
    return lines[-1]


def repeat(binary, args):
    workloads = [args.workload] if args.workload else WORKLOADS
    for w in workloads:
        results = []
        for seed in range(1, args.repeat + 1):
            results.append(json.loads(run_once(binary, w, seed, args.seconds, args.trace)))
        fails = sorted({(r["failed"], r["attempted"]) for r in results})
        print(f"{w}: {args.repeat} runs, all correct: "
              f"{all(r['correct'] for r in results)}, failed/attempted: "
              f"{', '.join(f'{f}/{a}' for f, a in fails)}")
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / abs(med) if med else float("nan")
            print(f"  {name:32s} median {med:14.6g} {unit:6s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.3f}")
        sys.stdout.flush()


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run each workload N times (seeds 1..N) and summarize")
    ap.add_argument("--break-oracle", action="store_true",
                    help="corrupt one expected record: the run must report correct=false")
    args = ap.parse_args()

    binary = build()
    if args.repeat:
        repeat(binary, args)
        return
    if not args.workload:
        ap.error("--workload is required unless --repeat is given")
    extra = ["--break-oracle"] if args.break_oracle else []
    print(run_once(binary, args.workload, args.seed, args.seconds, args.trace, extra))


if __name__ == "__main__":
    main()
