#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

usage: python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                                [--trace 0|1] [--smoke]

Builds perfbench/papd_bench against the repository's sources (CMake, the
default RelWithDebInfo build, into $CARGO_TARGET_DIR or .bench_build), then
runs the workload once per process, repeatedly, for --seconds.  Each process
is one iteration with its own set-up, warm caches and peak RSS.

--trace 0 reports the end-to-end metrics: medians over the iterations (for
the throughput, the median of every chunk of the timed phase).
--trace 1 alternates traced and untraced iterations and reports the
per-layer metrics (medians over the traced iterations) plus the tracing
slowdown.  Every iteration is checked; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_sweep", "serving_fleet", "cluster_131k")
DEFAULT_SEED = 42
MIN_ITERATIONS = 3
ITERATION_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds papd_bench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("run.py: papd sources not found next to perfbench/")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir], check=True,
                       stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "papd_bench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "papd_bench")


def iterate(binary, workload, seed, traced, smoke):
    """One iteration in its own process; returns its record, or None."""
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    cmd += ["--traced"] if traced else []
    cmd += ["--smoke"] if smoke else []
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} iteration timed out")
        return None
    if proc.returncode != 0:
        log(f"run.py: {workload} iteration exited {proc.returncode}: {proc.stderr.strip()}")
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log(f"run.py: {workload} iteration printed no result")
        return None


def reference_fingerprint(workload, seed, smoke):
    if seed != DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)["smoke" if smoke else "full"].get(workload)


def source_hash():
    """SHA-1 over the simulator sources (identifies the commit without git)."""
    h = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def manifest(record, seed):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True).stdout.strip()
    except OSError:
        commit = ""
    m = {"nproc": os.cpu_count(), "cpu_model": cpu, "seed": seed,
         "git_commit": commit or None, "source_sha1": source_hash()}
    m.update(record["manifest"] if record else {})
    return m


def median(values):
    return statistics.median(values) if values else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny workload sizes (the benchmark's own test)")
    args = ap.parse_args()

    binary = build()
    reference = reference_fingerprint(args.workload, args.seed, args.smoke)

    untraced, traced = [], []
    attempted = failed = 0
    fingerprints = set()
    deadline = time.monotonic() + args.seconds
    while True:
        round_start = time.monotonic()
        # Traced runs alternate the two modes, so slowdown pairs share load.
        for is_traced in ((True, False) if args.trace else (False,)):
            attempted += 1
            rec = iterate(binary, args.workload, args.seed, is_traced, args.smoke)
            problems = ["no result"] if rec is None else list(rec["failures"])
            if rec is not None:
                fingerprints.add(rec["fingerprint"])
                if reference is not None and rec["fingerprint"] != reference:
                    problems.append(f"fingerprint {rec['fingerprint']} != reference {reference}")
                (traced if is_traced else untraced).append(rec)
            if len(fingerprints) > 1:
                problems.append("fingerprints differ across iterations or modes")
            if problems:
                failed += 1
                log(f"run.py: {args.workload} iteration {attempted} failed: {problems}")
        # Stop before a round that would overrun the measuring window.
        now = time.monotonic()
        if now + (now - round_start) > deadline and attempted >= MIN_ITERATIONS:
            break

    def rate(r):
        return r["sim_socket_s"] / r["timed_host_s"]

    def chunked_rate(records):
        """Socket-seconds per host second with every chunk of the timed phase
        (one run, period or step) at its median over the iterations, so a
        burst of host contention in one iteration moves few chunks."""
        if not records:
            return 0.0
        per_chunk = zip(*(r["chunks_s"] for r in records))
        return records[0]["sim_socket_s"] / sum(median(list(c)) for c in per_chunk)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {}
    if args.trace:
        # A layer a workload never enters reports 0.
        for m in spec["per_layer"]:
            metrics[m["name"]] = median([{**r["quality"], **r["layers"]}.get(m["name"], 0.0)
                                         for r in traced])
        traced_rate = median([rate(r) for r in traced])
        metrics["trace.slowdown"] = (median([rate(r) for r in untraced]) / traced_rate
                                     if traced_rate > 0 else 0.0)
    else:
        metrics["socket_s_per_host_s"] = chunked_rate(untraced)
        metrics["setup_s"] = median([r["setup_s"] for r in untraced])
        metrics["peak_rss_mb"] = median([r["peak_rss_mb"] for r in untraced])
        for name, value in (untraced[0]["quality"].items() if untraced else ()):
            print(f"{name} {value!r} (simulated output, fixed by the seed)")

    print("manifest " + json.dumps(manifest((traced or untraced or [None])[0], args.seed)))
    out = {}
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
        out[name] = {"value": value, "unit": units[name]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))


if __name__ == "__main__":
    main()
