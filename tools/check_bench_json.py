#!/usr/bin/env python3
"""Checks perf_harness output against the checked-in BENCH_scenarios.json.

perf_harness measures the two rows whose gates compare against numbers
taken on another host; CI's simd job runs it and then this script.  Every
other perf gate is a ctest case on the host it measures.

Schema (always): schema_version 2; a host block; a micro list holding
package_tick_10core_gcc; a cluster section with >= 2048 simulated cores,
>= 3 tree levels, and a max_grant_overrun_w of at most 1e-6 W (the
hierarchical arbiter's cap invariant).

With --baseline FILE, two comparisons against that file:
  * micro package_tick_10core_gcc ns_per_iter may regress by at most 3%.
    The tracing macros compile to branch-on-null when disabled, so the hot
    tick must not move;
  * cluster sim_core_ticks_per_s may drop by at most 30%.  The loose limit
    absorbs runner noise on a short multi-core measurement.

Usage: check_bench_json.py FRESH.json [--baseline FILE]
Exits non-zero with file:field diagnostics on any violation.
"""

import argparse
import json
import sys

MICRO_NAME = "package_tick_10core_gcc"
MAX_TICK_REGRESS_PCT = 3.0
MAX_CLUSTER_REGRESS_PCT = 30.0
MAX_GRANT_OVERRUN_W = 1e-6

ERRORS = []


def fail(path, msg):
    ERRORS.append(f"{path}: {msg}")


def require(obj, path, key, kind):
    """Returns obj[key] if present and of type kind, else records an error."""
    if not isinstance(obj, dict) or key not in obj:
        fail(path, f"missing key '{key}'")
        return None
    value = obj[key]
    # bool is an int subclass in Python; keep the check strict.
    if kind in (int, float) and isinstance(value, bool):
        fail(f"{path}.{key}", f"expected {kind.__name__}, got bool")
        return None
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        fail(f"{path}.{key}", f"expected {kind.__name__}, got {type(value).__name__}")
        return None
    return value


def check(doc):
    if require(doc, "$", "schema_version", int) != 2:
        fail("$.schema_version", "expected 2")

    host = require(doc, "$", "host", dict)
    if host is not None:
        for key in ("hardware_concurrency", "jobs"):
            v = require(host, "$.host", key, int)
            if v is not None and v < 1:
                fail(f"$.host.{key}", f"expected >= 1, got {v}")

    micro = require(doc, "$", "micro", list)
    if micro is not None:
        for i, m in enumerate(micro):
            require(m, f"$.micro[{i}]", "name", str)
            ns = require(m, f"$.micro[{i}]", "ns_per_iter", float)
            if ns is not None and ns <= 0:
                fail(f"$.micro[{i}].ns_per_iter", f"expected > 0, got {ns}")
        if micro_ns(doc) is None:
            fail("$.micro", f"missing entry '{MICRO_NAME}'")

    cluster = require(doc, "$", "cluster", dict)
    if cluster is not None:
        for key in ("rows", "racks_per_row", "sockets_per_rack"):
            v = require(cluster, "$.cluster", key, int)
            if v is not None and v < 1:
                fail(f"$.cluster.{key}", f"expected >= 1, got {v}")
        cores = require(cluster, "$.cluster", "cores", int)
        if cores is not None and cores < 2048:
            fail("$.cluster.cores",
                 f"expected >= 2048 simulated cores (cluster-scale contract), got {cores}")
        levels = require(cluster, "$.cluster", "levels", int)
        if levels is not None and levels < 3:
            fail("$.cluster.levels", f"expected >= 3 tree levels, got {levels}")
        nodes = require(cluster, "$.cluster", "nodes", int)
        if nodes is not None and nodes < 3:
            fail("$.cluster.nodes", f"expected >= 3, got {nodes}")
        require(cluster, "$.cluster", "tick_policy", str)
        for key in ("wall_s_per_step", "sim_core_ticks_per_s", "arbiter_us_per_period"):
            v = require(cluster, "$.cluster", key, float)
            if v is not None and v <= 0:
                fail(f"$.cluster.{key}", f"expected > 0, got {v}")
        pct = require(cluster, "$.cluster", "arbiter_overhead_pct", float)
        if pct is not None and not 0 <= pct <= 100:
            fail("$.cluster.arbiter_overhead_pct", f"expected in [0, 100], got {pct}")
        overrun = require(cluster, "$.cluster", "max_grant_overrun_w", float)
        if overrun is not None and not 0 <= overrun <= MAX_GRANT_OVERRUN_W:
            fail("$.cluster.max_grant_overrun_w",
                 f"cap invariant violated: child grants exceeded a parent grant "
                 f"by {overrun} W (expected ~0)")


def micro_ns(doc):
    for entry in doc.get("micro", []):
        if isinstance(entry, dict) and entry.get("name") == MICRO_NAME:
            value = entry.get("ns_per_iter")
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return float(value)
    return None


def cluster_ticks_per_s(doc):
    value = doc.get("cluster", {}).get("sim_core_ticks_per_s")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


def check_baseline(doc, baseline_path):
    """The two cross-host gates: the hot tick and cluster throughput.  Runs
    only on a fresh document that passed check(), so both values exist."""
    try:
        with open(baseline_path) as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(baseline_path, str(e))
        return

    fresh, ref = micro_ns(doc), micro_ns(baseline)
    if ref is None or ref <= 0:
        fail(f"{baseline_path}: micro.{MICRO_NAME}", "missing or non-positive")
    else:
        regress_pct = 100.0 * (fresh - ref) / ref
        if regress_pct > MAX_TICK_REGRESS_PCT:
            fail(f"$.micro.{MICRO_NAME}",
                 f"regressed {regress_pct:.1f}% vs baseline "
                 f"({fresh:.1f} ns vs {ref:.1f} ns, limit {MAX_TICK_REGRESS_PCT:.1f}%)")
        else:
            print(f"{MICRO_NAME}: {fresh:.1f} ns vs baseline {ref:.1f} ns "
                  f"({regress_pct:+.1f}%, limit {MAX_TICK_REGRESS_PCT:.1f}%)")

    fresh, ref = cluster_ticks_per_s(doc), cluster_ticks_per_s(baseline)
    if ref is None or ref <= 0:
        fail(f"{baseline_path}: cluster.sim_core_ticks_per_s", "missing or non-positive")
    else:
        regress_pct = 100.0 * (ref - fresh) / ref
        if regress_pct > MAX_CLUSTER_REGRESS_PCT:
            fail("$.cluster.sim_core_ticks_per_s",
                 f"regressed {regress_pct:.1f}% vs baseline "
                 f"({fresh:.0f} vs {ref:.0f} core-ticks/s, "
                 f"limit {MAX_CLUSTER_REGRESS_PCT:.1f}%)")
        else:
            print(f"cluster.sim_core_ticks_per_s: {fresh:.0f} vs baseline {ref:.0f} "
                  f"({-regress_pct:+.1f}%, limit -{MAX_CLUSTER_REGRESS_PCT:.1f}%)")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("json_path")
    parser.add_argument("--baseline", metavar="FILE",
                        help="checked-in BENCH_scenarios.json to compare against")
    args = parser.parse_args(argv[1:])
    try:
        with open(args.json_path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"{args.json_path}: {e}", file=sys.stderr)
        return 1

    check(doc)
    if args.baseline and not ERRORS:
        check_baseline(doc, args.baseline)
    for err in ERRORS:
        print(err, file=sys.stderr)
    if ERRORS:
        return 1
    print(f"{args.json_path}: OK ({MICRO_NAME} {micro_ns(doc):.1f} ns, "
          f"cluster {doc['cluster']['cores']} cores)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
