#!/usr/bin/env python3
"""Build and run the CHEF fixed-work benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads: solver-bound, interp-bound, cluster-batch (see README.md).

The first call builds perfbench/ (and the src/ tree it compiles) with
CMake into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.
Then the benchmark binary runs one fixed-work repetition per process,
fresh processes until --seconds have passed and at least a fixed number
(TIMED) of repetitions are done, so no repetition inherits another's
heap. An untimed warm-up repetition comes first; it also replays the
relevant test cases. With --trace 1, traced and untraced repetitions
alternate.

End-to-end times come from the fastest of the first TIMED repetitions,
set-up time and per-layer times are medians; every work count must
repeat exactly, and at the default seed must equal
perfbench/expected_counts.json
(`--record` rewrites that file's entry for the workload instead). The
last stdout line is the JSON result. Exits non-zero, printing no result,
when the build or a repetition fails to run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected_counts.json")
DEFAULT_SEED = 1
WORKLOADS = ("solver-bound", "interp-bound", "cluster-batch")
END_TO_END = ("explore_s", "hl_paths", "hl_paths_per_s", "jobs_per_s")
# End-to-end times come from the fastest of a workload's first TIMED
# repetitions, so the statistic rests on the same number of samples however
# fast the code is. About TIMED repetitions fit in 25 s.
TIMED = {"solver-bound": 20, "interp-bound": 16, "cluster-batch": 20}


def build():
    """Configures and builds chef_perfbench; returns its directory."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    directory = os.path.join(ROOT, base, "perfbench")
    steps = [
        ["cmake", "-S", HERE, "-B", directory, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", directory, "-j", "4", "--target",
         "chef_perfbench"],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return None
    return directory


def run_repetition(directory, args, trace, replay):
    """Runs one repetition; returns (record, text lines, peak RSS in MB),
    or None when the process failed."""
    out_dir = os.path.join(directory, "out")
    os.makedirs(out_dir, exist_ok=True)
    proc = subprocess.Popen(
        [os.path.join(directory, "chef_perfbench"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--trace", str(int(trace)), "--replay", str(int(replay)),
         "--out-dir", out_dir],
        stdout=subprocess.PIPE, universal_newlines=True)
    output = proc.stdout.read()
    proc.stdout.close()
    # wait4 gives this child's own peak RSS (ru_maxrss, KiB).
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = output.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(output)
        print("perfbench: repetition exited with %d" % proc.returncode,
              file=sys.stderr)
        return None
    return json.loads(lines[-1]), lines[:-1], usage.ru_maxrss / 1024.0


def median_metric(records, name):
    values = [r["metrics"][name]["value"] for r in records]
    samples = sum(r["metrics"][name]["samples"] for r in records)
    unit = records[0]["metrics"][name]["unit"]
    return statistics.median(values), unit, samples


def check_counts(args, records, problems):
    first = records[0]
    for index, record in enumerate(records[1:], 1):
        for key in ("counts", "other_counts"):
            if record[key] != first[key]:
                problems.append("repetition %d %s differ: %s vs %s" % (
                    index, key, record[key], first[key]))
    if args.record:
        expected = {}
        if os.path.exists(EXPECTED):
            with open(EXPECTED) as handle:
                expected = json.load(handle)
        expected[args.workload] = first["counts"]
        with open(EXPECTED, "w") as handle:
            json.dump(expected, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("recorded counts for %s" % args.workload)
    elif args.seed == DEFAULT_SEED:
        with open(EXPECTED) as handle:
            expected = json.load(handle).get(args.workload)
        if expected is None:
            problems.append("no recorded counts for %s" % args.workload)
            return
        for key in sorted(expected):
            if first["counts"].get(key) != expected[key]:
                problems.append("%s is %s, recorded %s" % (
                    key, first["counts"].get(key), expected[key]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's counts as the expected ones")
    args = parser.parse_args()
    if args.record and args.seed != DEFAULT_SEED:
        parser.error("--record needs the default seed %d" % DEFAULT_SEED)

    directory = build()
    if directory is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # The warm-up repetition replays the test cases and is checked like
    # every other, but its times stay out of the medians: the first
    # process after a pause runs on cold caches.
    result = run_repetition(directory, args, trace=False, replay=True)
    if result is None:
        return 1
    warmup = result[0]
    plain, traced = [], []
    ledger_text = []
    start = time.monotonic()
    # Traced runs report no end-to-end times, so they need no TIMED floor.
    timed = 1 if args.trace else TIMED[args.workload]
    while (len(plain) < timed or (args.trace and not traced)
           or time.monotonic() - start < args.seconds):
        trace = bool(args.trace) and len(traced) < len(plain)
        result = run_repetition(directory, args, trace, replay=False)
        if result is None:
            return 1
        record, text, rss_mb = result
        record["peak_rss_mb"] = rss_mb
        (traced if trace else plain).append(record)
        if trace:
            ledger_text = text
        print("repetition %d%s: explore_s %.6f, peak_rss_mb %.1f" % (
            len(plain) + len(traced), " (traced)" if trace else "",
            record["metrics"]["explore_s"]["value"], rss_mb))
    records = [warmup] + plain + traced

    problems = [p for r in records for p in r["problems"]]
    check_counts(args, records, problems)
    for line in ledger_text:
        print(line)
    for problem in problems:
        print("problem: %s" % problem)

    metrics = []  # (name, value, unit, samples)
    if not args.trace:
        # Times come from the fastest timed repetition. The host's speed
        # drifts in phases of minutes, which move a run's median far more
        # than its minimum (README.md, "Steadiness").
        fastest = min(plain[:timed],
                      key=lambda r: r["metrics"]["explore_s"]["value"])
        for name in END_TO_END:
            metric = fastest["metrics"][name]
            metrics.append((name, metric["value"], metric["unit"], timed))
        coverage = warmup["metrics"]["line_coverage_pct"]
        metrics.append(("line_coverage_pct", coverage["value"], "%",
                        coverage["samples"]))
        setup = [s for r in plain for s in r["setup_s"]]
        metrics.append(("setup_s", statistics.median(setup), "s", len(setup)))
        metrics.append(("peak_rss_mb",
                        statistics.median(r["peak_rss_mb"] for r in plain),
                        "MB", len(plain)))
    else:
        # Span-based metrics exist only in traced repetitions; the rest
        # come from the untraced ones, free of tracing overhead.
        for name in traced[0]["metrics"]:
            if name not in END_TO_END:
                source = plain if name in plain[0]["metrics"] else traced
                metrics.append((name,) + median_metric(source, name))
        replay = warmup["metrics"]["interp.replay_s"]
        metrics.append(("interp.replay_s", replay["value"], "s",
                        replay["samples"]))
        traced_s = median_metric(traced, "explore_s")[0]
        plain_s = median_metric(plain, "explore_s")[0]
        metrics.append(("obs.trace_overhead_pct",
                        100.0 * (traced_s / plain_s - 1.0), "%",
                        len(plain) + len(traced)))
    for name, value, unit, samples in metrics:
        print("metric %-32s %.17g %s n=%d" % (name, value, unit, samples))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
