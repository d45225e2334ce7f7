"""Span summarizer: turns a traced pass's span file into per-layer metrics.

The span file is NDJSON written by servebench (see servebench.cc):

  {"counter": name, "value": v}            pass-level counters
  {"span": name, "id", "parent", "req", "start_ns", "end_ns"}
  {"count": name, "req", "value"}          per-request counts

A span's self time is its duration minus the part of its interval that its
child spans cover. Layer costs that are not nested in time (the wire round
trip versus the in-process rungs of the same request) are differences of
rungs of one request, as the serving ladder defines them:

  net.self  = net.rtt - api.query - xml.serialize
  api.self  = api.query - exec.tau - cache.normalize
  api.swap  = api.load - xml.parse - storage.build

Usage: python3 summarize.py SPANS.ndjson   (prints the metrics as JSON)
"""

import json
import statistics
import sys
from collections import defaultdict

# Every per-layer metric, with its unit, in the order BENCHMARK.json lists it.
UNITS = {
    "net.rtt_us": "us",
    "net.self_us": "us",
    "net.frame_us": "us",
    "net.response_bytes": "B",
    "net.overload_responses": "count",
    "exec.admission_peak_running": "count",
    "api.query_us": "us",
    "api.self_us": "us",
    "api.load_ms": "ms",
    "api.swap_ms": "ms",
    "cache.normalize_us": "us",
    "cache.hit_ratio": "ratio",
    "cache.invalidations": "count",
    "cache.evictions": "count",
    "cache.replans": "count",
    "xquery.compile_us": "us",
    "xpath.compile_us": "us",
    "opt.choose_us": "us",
    "opt.qerror_max": "ratio",
    "exec.tau_us": "us",
    "exec.nodes_visited": "count",
    "exec.index_probes": "count",
    "exec.results": "count",
    "xml.serialize_us": "us",
    "xml.serialize_mb_s": "MB/s",
    "xml.parse_ms": "ms",
    "storage.build_ms": "ms",
    "storage.dom_bytes_per_input_byte": "B/B",
    "storage.succinct_bytes_per_input_byte": "B/B",
    "storage.region_bytes_per_input_byte": "B/B",
    "storage.value_bytes_per_input_byte": "B/B",
    "trace.p50_us": "us",
    "trace.overhead_us": "us",
    "trace.unattributed_us": "us",
}

# Counters servebench measures over the untraced pass and passes through.
PASS_COUNTERS = [
    "net.overload_responses", "exec.admission_peak_running",
    "cache.hit_ratio", "cache.invalidations", "cache.evictions",
    "cache.replans", "storage.dom_bytes_per_input_byte",
    "storage.succinct_bytes_per_input_byte",
    "storage.region_bytes_per_input_byte",
    "storage.value_bytes_per_input_byte",
]


def load(path):
    counters, spans, counts = {}, [], []
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            if "counter" in record:
                counters[record["counter"]] = record["value"]
            elif "span" in record:
                spans.append(record)
            else:
                counts.append(record)
    return counters, spans, counts


def covered_ns(start, end, intervals):
    """Length of [start, end) covered by the union of `intervals`."""
    total, cursor = 0, start
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            total += e - s
            cursor = e
    return total


def self_times_ns(spans):
    """Span id -> duration minus the time its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"]:
            children[s["parent"]].append((s["start_ns"], s["end_ns"]))
    return {
        s["id"]: (s["end_ns"] - s["start_ns"]) -
        covered_ns(s["start_ns"], s["end_ns"], children[s["id"]])
        for s in spans
    }


def median(values):
    return statistics.median(values) if values else None


def summarize(path):
    counters, spans, counts = load(path)
    # Per root (one request or one write): span name -> duration in ns.
    by_root = defaultdict(dict)
    parent_of = {s["id"]: s["parent"] for s in spans}

    def root(span_id):
        while parent_of.get(span_id):
            span_id = parent_of[span_id]
        return span_id

    for s in spans:
        by_root[root(s["id"])][s["span"]] = s["end_ns"] - s["start_ns"]

    per_req = defaultdict(dict)  # (req, name) counts of traced requests
    sweep = defaultdict(list)    # deterministic per-text counters
    for c in counts:
        if c["count"] in ("exec.nodes_visited", "exec.index_probes",
                          "exec.results", "opt.qerror"):
            sweep[c["count"]].append(c["value"])
        else:
            per_req[c["req"]][c["count"]] = c["value"]
    req_of_root = {s["id"]: s["req"] for s in spans if not s["parent"]}

    def durations_us(name):
        return [r[name] / 1e3 for r in by_root.values() if name in r]

    def rung_diff_us(total, parts, extra=lambda root_id: 0.0):
        out = []
        for root_id, r in by_root.items():
            if total in r and all(p in r for p in parts):
                out.append((r[total] - sum(r[p] for p in parts)) / 1e3 -
                           extra(root_id))
        return out

    def tau_us(root_id):
        return per_req[req_of_root[root_id]].get("exec.tau_ns", 0) / 1e3

    m = {}
    m["net.rtt_us"] = median(durations_us("net.rtt"))
    m["net.self_us"] = median(
        rung_diff_us("net.rtt", ["api.query", "xml.serialize"]))
    m["net.frame_us"] = median(durations_us("net.frame"))
    sizes = [r["net.response_bytes"] for r in per_req.values()
             if "net.response_bytes" in r]
    m["net.response_bytes"] = statistics.fmean(sizes) if sizes else None
    m["api.query_us"] = median(durations_us("api.query"))
    m["api.self_us"] = median(
        rung_diff_us("api.query", ["cache.normalize"], tau_us))
    m["api.load_ms"] = median([d / 1e3 for d in durations_us("api.load")])
    m["api.swap_ms"] = median([
        d / 1e3 for d in rung_diff_us("api.load",
                                      ["xml.parse", "storage.build"])])
    m["cache.normalize_us"] = median(durations_us("cache.normalize"))
    m["xquery.compile_us"] = median(durations_us("xquery.compile"))
    m["xpath.compile_us"] = median(durations_us("xpath.compile"))
    m["opt.choose_us"] = median(durations_us("opt.choose"))
    m["opt.qerror_max"] = max(sweep["opt.qerror"], default=None)
    m["exec.tau_us"] = median([
        r["exec.tau_ns"] / 1e3 for r in per_req.values() if "exec.tau_ns" in r])
    for name in ("exec.nodes_visited", "exec.index_probes", "exec.results"):
        m[name] = statistics.fmean(sweep[name]) if sweep[name] else None
    m["xml.serialize_us"] = median(durations_us("xml.serialize"))
    ser_ns = ser_bytes = 0
    for root_id, r in by_root.items():
        req = per_req.get(req_of_root.get(root_id), {})
        if "xml.serialize" in r and "net.response_bytes" in req:
            ser_ns += r["xml.serialize"]
            ser_bytes += req["net.response_bytes"]
    m["xml.serialize_mb_s"] = ser_bytes / (ser_ns / 1e9) / 1e6 if ser_ns else None
    m["xml.parse_ms"] = median([d / 1e3 for d in durations_us("xml.parse")])
    m["storage.build_ms"] = median(
        [d / 1e3 for d in durations_us("storage.build")])
    for name in PASS_COUNTERS:
        m[name] = counters.get(name)
    user = "net.rtt" if counters.get("user_span") == 1 else "embedded"
    m["trace.p50_us"] = median(durations_us(user))
    if m["trace.p50_us"] is not None and "untraced.p50_us" in counters:
        m["trace.overhead_us"] = m["trace.p50_us"] - counters["untraced.p50_us"]
    else:
        m["trace.overhead_us"] = None
    self_ns = self_times_ns(spans)
    m["trace.unattributed_us"] = median([
        self_ns[s["id"]] / 1e3 for s in spans if s["span"] == "request"])

    missing = [name for name in UNITS if m.get(name) is None]
    if missing:
        raise ValueError("span file lacks data for: " + ", ".join(missing))
    return {name: {"value": m[name], "unit": unit}
            for name, unit in UNITS.items()}


if __name__ == "__main__":
    print(json.dumps(summarize(sys.argv[1]), indent=1))
