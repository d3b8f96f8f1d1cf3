#!/usr/bin/env python3
"""The ncast performance ledger: one command per workload.

    python3 ledger/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 ledger/run.py --compare A.json B.json

Builds ledger/ (and with it the ncast libraries from src/) into
.bench_build/ledger, then runs rounds of repetitions of the workload, each
repetition in its own process, until --seconds have passed. --trace 0
reports the end-to-end metrics; --trace 1 runs the traced binary beside the
untraced one and reports the per-layer metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit status is 0
only when every repetition passed the correctness gate and every repeated
seed reproduced its deterministic outputs exactly.

Each run also writes its full record (every repetition, the environment) to
.bench_build/ledger/results/; --compare diffs two such records and refuses
records taken on different GF kernel tiers. See ledger/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ledger")

BUILD_JOBS = 4
RUN_LIMIT_S = 170  # a run (after the build) must end within this

# Untraced repetitions run this many at a time, each in its own
# single-threaded process, one CPU left for the rest of the machine. A
# shared host's CPUs run at different speeds at the same moment, so a run's
# median over several concurrent copies is steadier than over one copy at a
# time; see README.md.
COPIES = max(1, min(3, (os.cpu_count() or 1) - 1))

# Distinct derived seeds per run: each run's reported figures are medians
# over these, so one unlucky draw cannot move a run's result.
SUBSEEDS = {"scale_churn": 3, "stream_small": 5, "stream_large": 5}

SIM_METRICS = [
    ("decode_delay_p50_s", "sim-s"),
    ("decode_delay_p95_s", "sim-s"),
    ("join_latency_p50_s", "sim-s"),
    ("join_latency_p95_s", "sim-s"),
    ("repair_converge_s", "sim-s"),
    ("data_bytes_per_decoded_byte", "ratio"),
]
TIMED_METRICS = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")]

# Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = [
    ("overlay.join_ns_p50", "ns"), ("overlay.join_ns_p99", "ns"),
    ("overlay.leave_ns_p50", "ns"), ("overlay.repair_ns_p50", "ns"),
    ("overlay.busy_s", "s"),
    ("sim.events", "count"), ("sim.ns_per_event", "ns"),
    ("sim.handoffs", "count"), ("sim.epochs", "count"),
    ("sim.clamped_posts", "count"), ("sim.replay_ns_per_event", "ns"),
    ("node.data_messages", "count"), ("node.control_messages", "count"),
    ("node.control_bytes", "bytes"), ("node.control_dropped", "count"),
    ("node.join_retries", "count"), ("node.complaints", "count"),
    ("node.useful_share", "ratio"), ("node.absorb_wire_ns", "ns"),
    ("node.transport_ns", "ns"),
    ("coding.serialize_ns", "ns"), ("coding.deserialize_ns", "ns"),
    ("coding.absorb_ns", "ns"), ("coding.recoder_absorb_ns", "ns"),
    ("coding.recode_ns", "ns"),
    ("gf.madd_gbps_32B", "GB/s"), ("gf.madd_gbps_1KiB", "GB/s"),
    ("gf.tier", "id"), ("gf.madd_calls", "count"),
    ("gf.madd_mean_bytes", "bytes"),
] + [(layer + ".self_s", "s")
     for layer in ("overlay", "sim", "node", "coding", "gf")] + [
    (layer + ".busy_share", "ratio")
    for layer in ("overlay", "sim", "node", "coding", "gf", "unattributed")
] + [
    ("trace.run_wall_s", "s"), ("trace.run_cpu_s", "s"),
    ("trace.overhead_share", "ratio"),
]


def log(msg):
    print("ledger: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the ledger into BUILD."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if ("CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE + "\n") not in f.read():
                shutil.rmtree(BUILD)  # configured from another checkout
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(BUILD_JOBS)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def subseed(seed, j):
    """The j-th derived seed of a run (splitmix64 of seed and j)."""
    z = (seed * 0x9E3779B97F4A7C15 + (j + 1) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return (z ^ (z >> 31)) % 2**63


def run_reps(binary, workload, seed, deadline, copies=1, spans_out=None):
    """Runs `copies` repetitions of one seed at once, one process each."""
    cmd = [os.path.join(BUILD, binary), "--workload", workload,
           "--seed", str(seed)]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    procs = []
    try:
        for _ in range(copies):
            procs.append(subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                          stderr=sys.stderr, text=True))
        reps = []
        for proc in procs:
            out, _ = proc.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
            lines = out.strip().splitlines()
            if proc.returncode == 2 or not lines:
                raise RuntimeError("%s failed with exit code %d"
                                   % (binary, proc.returncode))
            rep = json.loads(lines[-1])
            rep["exit_code"] = proc.returncode
            reps.append(rep)
        return reps
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def gate(reps):
    """Correctness: every rep passed, repeats of a seed reproduced exactly."""
    problems = []
    first = {}
    for rep in reps:
        if rep["exit_code"] != 0 or not rep["ok"]:
            problems.append("seed %d: %s" % (rep["seed"], "; ".join(rep["errors"])))
        det = (rep["metrics"], rep["counts"])
        if rep["seed"] in first and first[rep["seed"]] != det:
            problems.append("seed %d did not reproduce its metrics/counts" % rep["seed"])
        first.setdefault(rep["seed"], det)
    return problems


def measure(args):
    k = SUBSEEDS[args.workload]
    seeds = [subseed(args.seed, j) for j in range(k)]
    spans_out = os.path.join(BUILD, "spans_%s.jsonl" % args.workload)
    deadline = time.monotonic() + RUN_LIMIT_S
    # Untraced rounds run COPIES repetitions of one derived seed at once;
    # the traced run alternates single untraced and traced repetitions.
    copies = 1 if args.trace else COPIES
    plain, traced = [], []
    start = time.monotonic()
    durations = []
    # Every derived seed runs at least once and some seed at least twice, so
    # that the determinism check has a repeat to compare (traced: at least
    # two pairs); after that a round starts only if a typical one still fits
    # in --seconds.
    min_rounds = 2 if args.trace else (k if copies > 1 else k + 1)
    while len(durations) < min_rounds or (
            time.monotonic() - start + statistics.median(durations) <= args.seconds):
        round_start = time.monotonic()
        s = seeds[len(durations) % k]
        plain += run_reps("ncast_ledger", args.workload, s, deadline, copies)
        if args.trace:
            traced += run_reps("ncast_ledger_traced", args.workload, s,
                               deadline, spans_out=spans_out)
        durations.append(time.monotonic() - round_start)
    return plain, traced


def summarize(args, plain, traced):
    metrics = {}
    if not args.trace:
        for name, unit in TIMED_METRICS:
            metrics[name] = {"value": statistics.median(r[name] for r in plain),
                             "unit": unit}
        by_seed = {}
        for r in plain:
            by_seed.setdefault(r["seed"], r["metrics"])
        for name, unit in SIM_METRICS:
            # null when undefined (e.g. nothing decoded; the gate has failed)
            values = [m[name] for m in by_seed.values() if m[name] is not None]
            if values:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
        return metrics
    # Tracing overhead: traced over untraced wall time of the same seed.
    for p, t in zip(plain, traced):
        t["layers"]["trace.overhead_share"] = t["wall_s"] / p["wall_s"] - 1.0
    for name, unit in LAYER_METRICS:
        # Absent, not 0, when the build cannot measure it (obs compiled out).
        values = [r["layers"][name] for r in traced if name in r["layers"]]
        if values:
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    return metrics


def environment(reps):
    env = dict(reps[0]["env"])
    env.pop("traced", None)
    return env


def compare(a_path, b_path):
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    if a["env"]["gf_tier"] != b["env"]["gf_tier"]:
        print("refusing to compare: GF tier %s vs %s"
              % (a["env"]["gf_tier"], b["env"]["gf_tier"]), file=sys.stderr)
        return 2
    for key in ("workload", "trace"):
        if a[key] != b[key]:
            print("refusing to compare: %s %s vs %s" % (key, a[key], b[key]),
                  file=sys.stderr)
            return 2
    print("%-32s %14s %14s %9s" % ("metric", "A", "B", "B/A"))
    for name in sorted(set(a["result"]["metrics"]) & set(b["result"]["metrics"])):
        va = a["result"]["metrics"][name]["value"]
        vb = b["result"]["metrics"][name]["value"]
        ratio = "%9.3f" % (vb / va) if va else "%9s" % "-"
        print("%-32s %14.6g %14.6g %s" % (name, va, vb, ratio))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(SUBSEEDS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None or args.seed is None or args.seed < 0:
        parser.error("--workload and a non-negative --seed are required")

    try:
        build()
        plain, traced = measure(args)
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError) as e:
        log("error: %s" % e)
        return 2

    problems = gate(plain + traced)
    for p in problems:
        log("correctness gate: " + p)
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in plain + traced),
        "failed": sum(r["failed"] for r in plain + traced),
        "metrics": summarize(args, plain, traced),
    }
    env = environment(plain)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "env": env, "result": result,
              "repetitions": plain + traced}
    results_dir = os.path.join(BUILD, "results")
    os.makedirs(results_dir, exist_ok=True)
    record_path = os.path.join(results_dir, "%s-seed%d-trace%d.json"
                               % (args.workload, args.seed, args.trace))
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1)
    print("env: " + json.dumps(env, sort_keys=True))
    print("repetitions: %d untraced, %d traced; record: %s"
          % (len(plain), len(traced), os.path.relpath(record_path, ROOT)))
    for name, m in result["metrics"].items():
        print("%-32s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
