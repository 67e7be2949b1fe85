#!/usr/bin/env python3
"""Entry point of the end-to-end BatteryLab benchmark (see README.md).

Builds bench/e2e (a standalone CMake package over the repository's src/)
into .bench_build/e2e on first use, then runs each workload in its own
process.

  run.py --workload W --seed N --seconds S --trace 0|1
      One run. Prints every metric as "name value unit" and, as the last
      line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
      metrics untraced, the layer ledger traced. A traced run first runs the
      same workload untraced to report bench.trace_overhead_ratio, and
      writes the ledger and a Perfetto trace under
      .bench_build/e2e/artifacts/<workload>-<seed>/.
  run.py --repeat N [--workload W|all] [--seed N] [--seconds S] [--out F]
      N runs per workload (seeds N, N+1, ...); prints the median and
      quartiles of every end-to-end metric and saves the runs to F.
  run.py --check-repeat A.json B.json
      Applies the bounds in BENCHMARK.json to two --repeat sets: medians
      within each metric's bound, spreads within it, identical outcome
      digests per seed, no failed operation.
  run.py --scale smoke
      Every workload at its smallest size, correctness only.

Exit status is 0 only when the benchmark ran and every check held.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build" / "e2e"
BINARY = BUILD / "bench_e2e"
WORKLOADS = ["paper_job", "usability_session", "fleet_query",
             "scenario_corpus"]
OVERHEAD = "bench.trace_overhead_ratio"


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"missing {path}")
    return json.loads(path.read_text())


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no platform sources under {ROOT / 'src'}; cannot build")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(PACKAGE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        step(configure)
    step(["cmake", "--build", str(BUILD), "-j", jobs])


def step(cmd):
    # Build output goes to stderr: stdout carries only the result.
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail(f"build step failed: {' '.join(cmd)}", result.returncode)


def run_binary(workload, seed, seconds, trace, artifacts=None):
    """Runs one workload; returns (lines, result object, exit status)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", str(BUILD)]
    if artifacts is not None:
        cmd += ["--artifacts", str(artifacts)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail(f"{workload}: no result (exit {proc.returncode})", 1)
    return lines[:-1], json.loads(lines[-1]), proc.returncode


def info_value(lines, name):
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and parts[0] == name:
            return parts[1]
    fail(f"missing {name} in the workload output", 1)


def expected_names(spec, trace):
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def single(args, spec):
    status = 0
    lines, result, code = run_binary(args.workload, args.seed, args.seconds,
                                     False)
    if args.trace == 1:
        status |= code
        untraced_mean = float(info_value(lines, "op_mean_s"))
        artifacts = BUILD / "artifacts" / f"{args.workload}-{args.seed}"
        lines, result, code = run_binary(args.workload, args.seed,
                                         args.seconds, True, artifacts)
        traced_mean = result["metrics"]["bench.op_s"]["value"]
        ratio = traced_mean / untraced_mean - 1.0
        result["metrics"][OVERHEAD] = {"value": ratio, "unit": "ratio"}
        lines.append(f"{OVERHEAD} {ratio!r} ratio")
    status |= code
    got = sorted(result["metrics"])
    want = sorted(expected_names(spec, args.trace == 1))
    if got != want:
        fail(f"metrics {got} do not match BENCHMARK.json {want}", 1)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 1 if status != 0 or not result["correct"] else 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(args, spec):
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    runs = {}
    status = 0
    for workload in workloads:
        runs[workload] = []
        for i in range(args.repeat):
            seed = args.seed + i
            lines, result, code = run_binary(workload, seed, args.seconds,
                                             False)
            status |= code
            runs[workload].append({
                "seed": seed,
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "digest": info_value(lines, "outcome_digest"),
                "metrics": {k: v["value"]
                            for k, v in result["metrics"].items()},
            })
            print(f"{workload} seed {seed} done", file=sys.stderr)
    for workload, rows in runs.items():
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in rows]
            q1, med, q3 = quartiles(values)
            print(f"{workload}.{metric['name']} {med!r} {metric['unit']} "
                  f"q1={q1!r} q3={q3!r} spread={(q3 - q1) / med:.4f} "
                  f"n={len(values)}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seconds": args.seconds, "runs": runs}, indent=1) + "\n")
    return 1 if status != 0 else 0


def check_repeat(paths, spec):
    a, b = (json.loads(Path(p).read_text())["runs"] for p in paths)
    problems = []
    for workload in sorted(set(a) | set(b)):
        if workload not in a or workload not in b:
            problems.append(f"{workload}: only in one set")
            continue
        for tag, rows in (("A", a[workload]), ("B", b[workload])):
            for r in rows:
                if r["failed"] != 0 or not r["correct"]:
                    problems.append(
                        f"{workload} {tag} seed {r['seed']}: "
                        f"{r['failed']} failed of {r['attempted']}")
        digests_a = {r["seed"]: r["digest"] for r in a[workload]}
        for r in b[workload]:
            d = digests_a.get(r["seed"])
            if d is not None and d != r["digest"]:
                problems.append(f"{workload} seed {r['seed']}: outcome digest "
                                f"{d} != {r['digest']}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            _, med_a, _ = quartiles([r["metrics"][name] for r in a[workload]])
            for tag, rows in (("A", a[workload]), ("B", b[workload])):
                q1, med, q3 = quartiles([r["metrics"][name] for r in rows])
                spread = (q3 - q1) / med
                if name != "setup_s" and spread > bound:
                    problems.append(f"{workload}.{name} {tag}: spread "
                                    f"{spread:.4f} > bound {bound}")
            _, med_b, _ = quartiles([r["metrics"][name] for r in b[workload]])
            change = (med_b - med_a) / med_a
            print(f"{workload}.{name} A={med_a!r} B={med_b!r} "
                  f"change={change:+.4f} bound={bound}")
            if abs(change) > bound:
                problems.append(f"{workload}.{name}: medians differ by "
                                f"{change:+.4f}, bound {bound}")
    for p in problems:
        print(f"FAIL {p}")
    print("check-repeat: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int)
    parser.add_argument("--out")
    parser.add_argument("--check-repeat", nargs=2, metavar=("A", "B"))
    parser.add_argument("--scale", choices=["full", "smoke"], default="full")
    args = parser.parse_args()

    spec = load_spec()
    if args.check_repeat:
        return check_repeat(args.check_repeat, spec)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    build()
    if args.scale == "smoke":
        return subprocess.run([str(BINARY), "--workload", "all", "--scale",
                               "smoke", "--seed", str(args.seed), "--work-dir",
                               str(BUILD)]).returncode
    if args.repeat:
        return repeat(args, spec)
    if args.workload == "all":
        fail("--workload must name one workload unless --repeat is given")
    return single(args, spec)


if __name__ == "__main__":
    sys.exit(main())
