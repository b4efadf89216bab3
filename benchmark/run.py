#!/usr/bin/env python3
"""The repository benchmark: builds enld_bench from this checkout, runs one
workload (or all three with --workload all), checks its outputs and prints
its metrics.

    python3 benchmark/run.py --workload stream-emnist --seed 1 --seconds 30 \\
        --trace 0

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under that root; the first run builds the library and
the runner (about a minute on 4 cores), later runs only relink if needed.
Every metric is printed by name with its unit and sample count; the last
line of standard output is the JSON result. --trace 0 gives the end-to-end
metrics, --trace 1 the per-layer ones (README.md). The exit code is 0 only
when the output check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # Leave nothing behind in the checkout.

import benchlib  # noqa: E402

WORKLOADS = ("stream-emnist", "serve-cifar100", "restart-tiny")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds enld_bench; returns its path."""
    cmake_dir = build_dir / "cmake"
    if not (cmake_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, pool_size()))
    subprocess.run(["cmake", "--build", str(cmake_dir), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return cmake_dir / "enld_bench"


def pool_size():
    """nproc: the CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def source_id(root):
    """The git sha when the checkout is a repository, else a digest of the
    sources the benchmark builds."""
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, check=True)
            return sha.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")) + sorted(HERE.glob("*.cc")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def cpu_ticks():
    """Aggregate CPU ticks from /proc/stat: (steal, total), or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def print_table(title, rows):
    print(title)
    for name, (value, unit, note) in rows.items():
        shown = value if isinstance(value, str) else "%.6g" % value
        print("  %-34s %14s %-8s %s" % (name, shown, unit, note))


def run_workload(binary, build_dir, root, workload, args):
    """Runs one workload, prints its metrics and result line; returns
    whether the output check passed."""
    work = build_dir / "work" / ("%s-%d-%d" % (workload, args.seed,
                                               os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ticks_before = cpu_ticks()
    try:
        subprocess.run([str(binary), "--workload", workload,
                        "--seed", str(args.seed),
                        "--seconds", repr(args.seconds),
                        "--trace", str(args.trace),
                        "--threads", str(pool_size()),
                        "--work_dir", str(work),
                        "--out", str(work / "raw.json")],
                       check=True, timeout=RUN_TIMEOUT_S, stdout=sys.stderr)
        with open(work / "raw.json") as f:
            raw = json.load(f)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ticks_after = cpu_ticks()

    attempted, failures = benchlib.check_run(raw)
    meta = {"workload": workload, "seed": args.seed, "trace": args.trace,
            "nproc": pool_size(), "pool_threads": raw["threads"],
            "source": source_id(root), "build_flags": raw["build_flags"]}
    if ticks_before and ticks_after:
        # Host steal during the run: on a shared VM, a run with more than a
        # few percent measured the neighbours as much as the program.
        meta["host_steal_share"] = round(
            (ticks_after[0] - ticks_before[0])
            / max(1, ticks_after[1] - ticks_before[1]), 4)
    print("meta " + json.dumps(meta, sort_keys=True))
    e2e = benchlib.end_to_end(raw)
    print_table("end to end (%s, seed %d)" % (workload, args.seed),
                {k: (v, u, "n=%d" % n) for k, (v, u, n) in e2e.items()})
    print_table("also reported", {
        k: (v, u, "n=%d" % n)
        for k, (v, u, n) in benchlib.extra_end_to_end(
            raw, attempted, len(failures)).items()})
    if args.trace:
        layers = benchlib.per_layer(raw)
        print_table("per layer (traced phase of %d requests)"
                    % len(raw["traced"]["requests"]), layers)
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u, _) in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in e2e.items()}
    for failure in failures:
        print("FAILED " + failure)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}),
          flush=True)
    return not failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = HERE.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        log("benchmark: no ENLD sources at %s; run from a full checkout"
            % (root / "src"))
        return 2
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    binary = build(build_dir)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(binary, build_dir, root, w, args)
               for w in workloads]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
