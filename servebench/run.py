"""Entry point of the xmlq serving benchmark.

  python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds servebench (this directory's
CMake package, which compiles the xmlq libraries from ../src in Release mode)
under $CARGO_TARGET_DIR (default .bench_build), runs one workload, and prints
as the last line of stdout one JSON object:

  {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 the per-layer metrics, summarized from the traced pass's spans.
The line before it carries the run's context: host (nproc,
hardware_concurrency, build type, 1-minute load average at start and end,
the share of CPU time the hypervisor stole during the run),
the input record and the sample counts.

Optional: --scale tiny (the self-test's seconds-long inputs).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END_UNITS = {
    "setup_s": "s",
    "qps": "1/s",
    "p50_us": "us",
    "p90_us": "us",
    "write_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "bytes_per_input_byte": "B/B",
}

RUN_TIMEOUT_S = 170


def log(message):
    print("servebench: " + message, file=sys.stderr, flush=True)


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def build():
    """Configures (once) and builds servebench; returns the binary path."""
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "servebench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "servebench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(step))
            sys.exit(2)
    return build_dir, os.path.join(build_dir, "servebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    build_dir, binary = build()
    spans = os.path.join(
        build_dir, "spans-%s-%d.ndjson" % (args.workload, args.seed))
    load_start = os.getloadavg()[0]
    steal_start, total_start = cpu_ticks()
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--spans", spans, "--scale", args.scale],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        sys.exit(3)
    if proc.returncode != 0 or not proc.stdout.strip():
        log("run failed with exit code %d" % proc.returncode)
        sys.exit(3)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    load_end = os.getloadavg()[0]
    steal_end, total_end = cpu_ticks()

    if args.trace:
        sys.path.insert(0, HERE)
        import summarize  # pylint: disable=import-outside-toplevel
        metrics = summarize.summarize(spans)
    else:
        metrics = {name: {"value": raw["metrics"][name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    if raw["failed"]:
        log("first failure: " + raw["first_error"])

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "hardware_concurrency": raw["hardware_concurrency"],
            "build_type": raw["build_type"],
            "loadavg_1m_start": load_start,
            "loadavg_1m_end": load_end,
            "cpu_steal_share": (steal_end - steal_start) /
                               max(1, total_end - total_start),
        },
        "inputs": raw["inputs"],
        "samples": raw["samples"],
        "spans": os.path.relpath(spans, ROOT) if args.trace else None,
    }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
