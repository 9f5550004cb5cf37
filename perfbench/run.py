#!/usr/bin/env python3
"""Wall-clock FTMP benchmark on loopback UDP multicast (see NOTES.md).

Builds perfbench/ (which compiles the repository's libraries from ../src),
runs one workload per process, checks its correctness gate, prints every
metric by name and unit, and prints one JSON result as the last line.

  python3 perfbench/run.py --workload flood_lamport --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --all [--seconds S] [--seed N] [--trace 0|1]
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --write-manifest      # (re)writes BENCHMARK.json

--trace 0 reports the end-to-end metrics of an untraced run. --trace 1 runs
the workload untraced and then traced (same seed and settings), reports the
per-layer metrics of the traced run, and prints the tracing overhead as the
traced-minus-untraced difference of every end-to-end metric.

Exit codes: 0 = ran, gate passed; 1 = correctness gate failed; 2 = build or
usage error; 3 = multicast loopback unavailable. Only code 0 and 1 print a
result line.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "ftmp_perfbench")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")

RUN_SECONDS = 20

# The workloads BENCHMARK.json lists.
WORKLOADS = [
    ("paced_llft",
     "open-loop Poisson 1000 msg/s, 3 members, LLFT, batching: latency set by grant hops "
     "and timer flushes; the only LLFT grants and leader crash/re-admission"),
    ("invoke_orb",
     "8 closed-loop clients (5 ms mean think time) invoke ~1 KiB GIOP calls on 3 active "
     "replicas: marshalling, ORB dispatch, duplicate suppression; no batching"),
]

# Runnable here (and by --all and --self-test) but left out of
# BENCHMARK.json: its throughput follows the shared host's speed, which
# moved its ten-run spread to 0.19 (NOTES.md, "Steadiness").
EXTRA_WORKLOADS = [
    ("flood_lamport",
     "closed-loop 64 B flood, 3 members, Lamport, batching and a 256-message window: "
     "the highest ordered rate, and the only flow-window backpressure"),
]
ALL_WORKLOADS = EXTRA_WORKLOADS + WORKLOADS

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.1),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p99_ms", "ms", "lower", 0.25),
    ("failover_ms", "ms", "lower", 0.15),
    ("datagrams_per_op", "count", "lower", 0.1),
    ("rss_peak_mib", "MiB", "lower", 0.25),
]

# (name, unit, better). Timings of call sites only some workloads run
# (ftmp.send_us_per_op, orb.invoke_us, orb.event_us_per_delivery,
# ftmp.ordering.slot_wait_p50_ms, bench.gen_lag_p99_ms and the ftmp and orb
# self times), and ftmp.flow.queued_frac (0 without flood_lamport), are
# printed but are not part of the per-workload result (NOTES.md).
PER_LAYER = [
    ("net.recv_us_per_dgram", "us", "lower"),
    ("net.dgrams_per_recv_call", "count", "higher"),
    ("net.recv_empty_frac", "ratio", "higher"),
    ("net.send_us_per_dgram", "us", "lower"),
    ("common.bufs_per_dgram_in", "count", "lower"),
    ("common.copied_bytes_per_op", "B", "lower"),
    ("runtime.ingest_us_per_dgram", "us", "lower"),
    ("runtime.tick_us", "us", "lower"),
    ("runtime.drain_us_per_dgram", "us", "lower"),
    ("runtime.sync_us_per_round", "us", "lower"),
    ("ftmp.batch.fill", "ratio", "higher"),
    ("ftmp.batch.subframes_per_dgram", "count", "higher"),
    ("ftmp.rmp.heartbeats_per_op", "count", "lower"),
    ("ftmp.rmp.nacks_per_kop", "count", "lower"),
    ("ftmp.ordering.wait_p50_ms", "ms", "lower"),
    ("ftmp.ordering.wait_p99_ms", "ms", "lower"),
    ("ftmp.ordering.grants_per_op", "count", "lower"),
    ("ftmp.pgmp.detect_ms", "ms", "lower"),
    ("ftmp.pgmp.install_ms", "ms", "lower"),
    ("ftmp.ordering.resume_ms", "ms", "lower"),
    ("ftmp.pgmp.false_suspicions", "count", "lower"),
    ("giop.marshal_us_per_op", "us", "lower"),
    ("ft.dups_per_op", "count", "lower"),
    ("bench.round_us", "us", "lower"),
    ("bench.uncovered_frac", "ratio", "lower"),
    ("net.self_us_per_op", "us", "lower"),
    ("runtime.self_us_per_op", "us", "lower"),
    ("giop.self_us_per_op", "us", "lower"),
    ("bench.self_us_per_op", "us", "lower"),
]


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    def __init__(self, code, msg):
        super().__init__(msg)
        self.code = code


def build():
    """Configures (once) and builds the benchmark binary; build output goes
    to stderr so stdout keeps only the report."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        raise BenchError(2, "repository sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "ftmp_perfbench", "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
        if r.returncode != 0:
            raise BenchError(2, "build failed: " + " ".join(cmd))


def run_child(workload, seed, seconds, trace, extra=()):
    """Runs one workload in its own process; returns (exit code, report)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        # One file per workload (the latest traced run): each holds up to
        # 300 000 spans, about 18 MB.
        cmd += ["--spans", os.path.join(spans_dir, workload + ".csv")]
    cmd += list(extra)
    # A run takes about seconds + 5 s; a trace run makes two of them.
    timeout = 2 * seconds + 30
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           cwd=ROOT, timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(2, "%s did not finish within %d s" % (workload, timeout))
    if r.returncode == 3:
        raise BenchError(3, "multicast loopback unavailable on this host "
                            "(see the message above); no numbers were taken")
    lines = r.stdout.strip().splitlines()
    if r.returncode not in (0, 1) or not lines:
        raise BenchError(2, "%s exited with code %d and no report" % (workload, r.returncode))
    return r.returncode, json.loads(lines[-1])


def fmt(value):
    return "%.6g" % value


def print_report(rep, header):
    print(header)
    print("  correct=%s attempted=%d failed=%d order_digest=%s" % (
        rep["correct"], rep["attempted"], rep["failed"],
        rep.get("notes", {}).get("order_digest", "?")))
    for v in rep.get("violations", []):
        print("  VIOLATION: " + v)
    for name, m in rep["metrics"].items():
        n = " (n=%d)" % m["samples"] if "samples" in m else ""
        print("  %-34s %14s %-6s%s" % (name, fmt(m["value"]), m["unit"], n))


def select(rep, wanted):
    """The result metrics named in `wanted`, checked against their units."""
    out = {}
    for name, unit in wanted:
        m = rep["metrics"].get(name)
        if m is None:
            raise BenchError(2, "%s: metric %s missing from the report" % (rep["workload"], name))
        if m["unit"] != unit:
            raise BenchError(2, "%s: metric %s has unit %s, expected %s"
                             % (rep["workload"], name, m["unit"], unit))
        out[name] = {"value": m["value"], "unit": unit}
    return out


def run_workload(workload, seed, seconds, trace):
    """Runs, prints and returns (code, result line) for one workload."""
    code, plain = run_child(workload, seed, seconds, False)
    print_report(plain, "== %s seed=%d seconds=%g untraced" % (workload, seed, seconds))
    if not trace:
        result = {"correct": plain["correct"], "attempted": plain["attempted"],
                  "failed": plain["failed"],
                  "metrics": select(plain, [(n, u) for n, u, _, _ in END_TO_END])}
        return code, result
    tcode, traced = run_child(workload, seed, seconds, True)
    print_report(traced, "== %s seed=%d seconds=%g traced" % (workload, seed, seconds))
    print("  tracing overhead (traced - untraced):")
    for name, unit, _, _ in END_TO_END:
        a, b = plain["metrics"][name]["value"], traced["metrics"][name]["value"]
        rel = " (%+.1f%%)" % (100.0 * (b - a) / a) if a else ""
        print("  %-34s %14s %-6s%s" % (name, fmt(b - a), unit, rel))
    result = {"correct": plain["correct"] and traced["correct"],
              "attempted": traced["attempted"], "failed": traced["failed"],
              "metrics": select(traced, [(n, u) for n, u, _ in PER_LAYER])}
    return max(code, tcode), result


def self_test():
    """Short run of every workload: names and units match BENCHMARK.json,
    every named metric is printed, and the gate rejects a swapped log."""
    problems = []
    try:
        with open(MANIFEST) as f:
            if json.load(f) != manifest():
                problems.append("BENCHMARK.json differs from run.py's tables "
                                "(run --write-manifest)")
    except (OSError, ValueError) as e:
        problems.append("cannot read BENCHMARK.json: %s" % e)
    r = subprocess.run([BINARY, "--gate-self-test"], stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        problems.append("gate self-test on synthetic logs failed")
    for workload, _ in ALL_WORKLOADS:
        for trace in (False, True):
            code, rep = run_child(workload, 7, 3, trace)
            wanted = [(n, u) for n, u, _, _ in END_TO_END]
            if trace:
                wanted += [(n, u) for n, u, _ in PER_LAYER]
            try:
                select(rep, wanted)
            except BenchError as e:
                problems.append(str(e))
            if code != 0 or not rep["correct"]:
                problems.append("%s (trace %d) failed its gate: %s"
                                % (workload, trace, rep.get("violations")))
        code, rep = run_child(workload, 7, 3, False, ["--corrupt-log"])
        if code != 1 or rep["correct"]:
            problems.append("%s: gate accepted a delivery log with two entries swapped"
                            % workload)
        else:
            print("%s: swapped log rejected: %s" % (workload, rep["violations"][0]))
    for p in problems:
        print("SELF-TEST PROBLEM: " + p)
    print("self-test: %s" % ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[w for w, _ in ALL_WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-manifest", action="store_true")
    args = ap.parse_args()

    if args.write_manifest:
        with open(MANIFEST, "w") as f:
            json.dump(manifest(), f, indent=2)
            f.write("\n")
        print("wrote " + MANIFEST)
        return 0
    if not (args.self_test or args.all or args.workload):
        ap.error("one of --workload, --all, --self-test or --write-manifest is required")
    try:
        build()
        if args.self_test:
            return self_test()
        names = [w for w, _ in ALL_WORKLOADS] if args.all else [args.workload]
        results, worst = {}, 0
        for w in names:
            code, results[w] = run_workload(w, args.seed, args.seconds, bool(args.trace))
            worst = max(worst, code)
        print(json.dumps(results if args.all else results[names[0]]))
        return worst
    except BenchError as e:
        log("run.py: " + str(e))
        return e.code


if __name__ == "__main__":
    sys.exit(main())
