"""Self-test of the serving benchmark: a seconds-long, tiny-scale pass of
every workload, untraced and traced.

  python3 servebench/selftest.py        (from the root of a source checkout)

Asserts, for each workload and trace mode, that the result line has exactly
the contract's keys, that every metric BENCHMARK.json names for that mode is
printed with its unit and a finite value, and that no operation failed. For
the traced runs it also asserts that one traced request holds a span for
each layer a read crosses, and one traced write a span for each layer a
write crosses. Exits non-zero on the first failed assertion.
"""

import json
import math
import os
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Span (or per-request count) names marking each layer a traced read and a
# traced write cross; servebench.cc records them around the calls into
# each module.
READ_LAYERS = {
    "net": ["net.rtt", "net.frame"],
    "api": ["api.query"],
    "cache": ["cache.normalize"],
    "xquery": ["xquery.compile"],
    "opt": ["opt.choose"],
    "exec": ["exec.profiled", "exec.tau_ns"],
    "xml": ["xml.serialize"],
}
WRITE_LAYERS = {
    "api": ["api.load"],
    "xml": ["xml.parse"],
    "storage": ["storage.build"],
}


def check(condition, message):
    if not condition:
        print("selftest: FAIL: " + message, file=sys.stderr)
        sys.exit(1)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    check(proc.returncode == 0, "%s trace=%d exited %d" %
          (workload, trace, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def check_result(workload, trace, result, expected):
    tag = "%s trace=%d" % (workload, trace)
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          tag + ": result keys " + str(sorted(result)))
    check(result["correct"] is True, tag + ": answers not correct")
    check(result["failed"] == 0, tag + ": %d failed" % result["failed"])
    check(result["attempted"] >= 1, tag + ": nothing attempted")
    metrics = result["metrics"]
    check(set(metrics) == set(expected),
          tag + ": metric names differ: " +
          str(sorted(set(metrics) ^ set(expected))))
    for name, unit in expected.items():
        value = metrics[name]["value"]
        check(metrics[name]["unit"] == unit, tag + ": unit of " + name)
        check(isinstance(value, (int, float)) and math.isfinite(value),
              tag + ": value of " + name)


def check_spans(workload, path):
    spans, counts = [], []
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            if "span" in record:
                spans.append(record)
            elif "count" in record:
                counts.append(record)
    parent_of = {s["id"]: s["parent"] for s in spans}
    roots = {s["id"]: s["span"] for s in spans if not s["parent"]}
    root_of_req = {s["req"]: s["id"] for s in spans if not s["parent"]}

    def root(span_id):
        while parent_of.get(span_id):
            span_id = parent_of[span_id]
        return span_id

    crossed = defaultdict(set)  # root span id -> names of spans and counts
    for s in spans:
        crossed[root(s["id"])].add(s["span"])
    for c in counts:
        if c["req"] in root_of_req:
            crossed[root_of_req[c["req"]]].add(c["count"])

    # Only absolute-path texts reach the XPath front end.
    check(any("xpath.compile" in crossed[i] for i, name in roots.items()
              if name == "request"),
          workload + ": no traced request crosses the xpath layer")
    for kind, layers in (("request", READ_LAYERS), ("write", WRITE_LAYERS)):
        ids = [i for i, name in roots.items() if name == kind]
        check(ids, "%s: no traced %s" % (workload, kind))
        got = crossed[ids[0]]
        for layer, markers in layers.items():
            check(all(m in got for m in markers),
                  "%s: traced %s lacks the %s layer (%s)" %
                  (workload, kind, layer, ", ".join(markers)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    modes = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, expected in modes.items():
            context, result = run(workload, trace)
            check_result(workload, trace, result, expected)
            if trace:
                check_spans(workload, os.path.join(ROOT, context["spans"]))
            print("selftest: %s trace=%d ok (%d operations)" %
                  (workload, trace, result["attempted"]), flush=True)
    print("selftest: ok")


if __name__ == "__main__":
    main()
