#!/usr/bin/env python3
"""Schema check for perf_harness output (BENCH_scenarios.json).

CI's simd job runs `perf_harness --quick` and validates the emitted JSON
with this script.  The check is structural only: presence, types, and
basic sanity (positive timings, non-empty sections).  It deliberately does
NOT assert timing thresholds — CI runners are too noisy for that; regression
triage reads the uploaded artifact instead.

The numeric assertions are opt-in via --baseline FILE:
  * the fresh micro `package_tick_10core_gcc` ns_per_iter is compared
    against the baseline file's and fails on a regression beyond
    --max-regress-pct (default 3%) — the tracing macros compile to
    branch-on-null when disabled, so the hot tick must not move;
  * `package_tick_128core_multirate` must report speedup_vs_scalar of at
    least --min-tick-speedup (default 5.0x) — the SIMD + multi-rate tick
    engine's headline perf contract, self-relative so it holds on any host;
  * the cluster section's sim_core_ticks_per_s must stay within
    --max-cluster-regress-pct (default 30%) of the baseline's — wall-clock
    throughput at >= 2048 simulated cores is the roadmap's scale headline,
    and the loose limit absorbs runner noise on a multi-second measurement;
  * the cluster_100k section's sim_core_ticks_per_s must meet
    --min-100k-ticks-per-s (default 1e9) — an absolute floor rather than a
    baseline delta, because the hold + memoization fast path skips work
    outright and its headline (>= 1B sim-core-ticks/s on a 128k-core tree)
    holds on any host or collapses by orders of magnitude when broken;
  * the fleet section's slo-feedback row must record strictly fewer SLO
    violations than the static-shares row — the serving fleet's headline
    claim, deterministic (seeded simulation) so it holds exactly on any
    host or the feedback loop is broken.

The fleet section's structural contract (regardless of --baseline):
>= 256 serving sockets, >= 1e6 simulated users, rows for the 'static' and
'slo-feedback' policies at minimum, and the cap-invariant bound on every
row's max_grant_overrun_w.

The cluster section additionally carries its own structural contract
regardless of --baseline: >= 2048 simulated cores, >= 3 tree levels, and a
max_grant_overrun_w of ~0 (the hierarchical arbiter's cap invariant).
Likewise cluster_100k: >= 131072 simulated cores, a replica hit rate in
[0, 1], allocs_per_step == 0 (the steady-state step must be heap-free),
and the same cap-invariant bound on max_grant_overrun_w.

Usage: check_bench_json.py BENCH_scenarios.json [--baseline FILE]
                           [--max-regress-pct PCT] [--min-tick-speedup X]
                           [--max-cluster-regress-pct PCT]
                           [--min-100k-ticks-per-s X]
Exits non-zero with file:field diagnostics when the schema is violated.
"""

import argparse
import json
import sys

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
    if require(doc, "$", "schema_version", int) != 1:
        fail("$.schema_version", "expected 1")

    host = require(doc, "$", "host", dict)
    if host is not None:
        hc = require(host, "$.host", "hardware_concurrency", int)
        if hc is not None and hc < 1:
            fail("$.host.hardware_concurrency", f"expected >= 1, got {hc}")
        jobs = require(host, "$.host", "jobs", int)
        if jobs is not None and jobs < 1:
            fail("$.host.jobs", f"expected >= 1, got {jobs}")
        require(host, "$.host", "quick", bool)

    micro = require(doc, "$", "micro", list)
    if micro is not None:
        if not micro:
            fail("$.micro", "expected at least one benchmark")
        for i, m in enumerate(micro):
            require(m, f"$.micro[{i}]", "name", str)
            ns = require(m, f"$.micro[{i}]", "ns_per_iter", float)
            if ns is not None and ns <= 0:
                fail(f"$.micro[{i}].ns_per_iter", f"expected > 0, got {ns}")

    scaling = require(doc, "$", "scaling", dict)
    if scaling is not None:
        ticks = require(scaling, "$.scaling", "package_tick", list)
        if ticks is not None:
            cores_seen = set()
            for i, t in enumerate(ticks):
                path = f"$.scaling.package_tick[{i}]"
                cores = require(t, path, "cores", int)
                if cores is not None:
                    if cores < 1:
                        fail(f"{path}.cores", f"expected >= 1, got {cores}")
                    cores_seen.add(cores)
                for key in ("ns_per_iter", "ns_per_core"):
                    v = require(t, path, key, float)
                    if v is not None and v <= 0:
                        fail(f"{path}.{key}", f"expected > 0, got {v}")
            for expected in (8, 64, 128):
                if expected not in cores_seen:
                    fail("$.scaling.package_tick", f"missing entry for {expected} cores")
        engine = require(scaling, "$.scaling", "tick_engine", list)
        if engine is not None:
            names_seen = set()
            for i, t in enumerate(engine):
                path = f"$.scaling.tick_engine[{i}]"
                name = require(t, path, "name", str)
                if name is not None:
                    names_seen.add(name)
                require(t, path, "kernel", str)
                for key in ("ns_per_iter", "ns_per_core", "speedup_vs_scalar"):
                    v = require(t, path, key, float)
                    if v is not None and v <= 0:
                        fail(f"{path}.{key}", f"expected > 0, got {v}")
            for expected in TICK_ENGINE_NAMES:
                if expected not in names_seen:
                    fail("$.scaling.tick_engine", f"missing entry '{expected}'")
        for rack_key in ("rack_tick", "rack_tick_multirate"):
            rack = require(scaling, "$.scaling", rack_key, dict)
            if rack is None:
                continue
            sockets = require(rack, f"$.scaling.{rack_key}", "sockets", int)
            if sockets is not None and sockets < 2:
                fail(f"$.scaling.{rack_key}.sockets", f"expected >= 2, got {sockets}")
            for key in ("wall_s_per_step", "sim_core_ticks_per_s"):
                v = require(rack, f"$.scaling.{rack_key}", key, float)
                if v is not None and v <= 0:
                    fail(f"$.scaling.{rack_key}.{key}", f"expected > 0, got {v}")
        allocs = require(scaling, "$.scaling", "steady_allocs_per_tick", int)
        if allocs is not None and allocs != 0:
            fail("$.scaling.steady_allocs_per_tick",
                 f"steady-state tick must be allocation-free, got {allocs}")

    scenarios = require(doc, "$", "scenarios", list)
    if scenarios is not None:
        if not scenarios:
            fail("$.scenarios", "expected at least one scenario")
        for i, s in enumerate(scenarios):
            require(s, f"$.scenarios[{i}]", "policy", str)
            for key in ("wall_s", "sim_s", "sim_s_per_wall_s"):
                v = require(s, f"$.scenarios[{i}]", key, float)
                if v is not None and v <= 0:
                    fail(f"$.scenarios[{i}].{key}", f"expected > 0, got {v}")

    batch = require(doc, "$", "batch", dict)
    if batch is not None:
        count = require(batch, "$.batch", "count", int)
        if count is not None and count < 2:
            fail("$.batch.count", f"expected >= 2, got {count}")
        for key in ("serial_wall_s", "parallel_wall_s", "speedup"):
            v = require(batch, "$.batch", key, float)
            if v is not None and v <= 0:
                fail(f"$.batch.{key}", f"expected > 0, got {v}")

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
        if overrun is not None and not 0 <= overrun <= 1e-6:
            fail("$.cluster.max_grant_overrun_w",
                 f"cap invariant violated: child grants exceeded a parent grant "
                 f"by {overrun} W (expected ~0)")

    cluster_100k = require(doc, "$", "cluster_100k", dict)
    if cluster_100k is not None:
        path = "$.cluster_100k"
        for key in ("rows", "racks_per_row", "sockets_per_rack"):
            v = require(cluster_100k, path, key, int)
            if v is not None and v < 1:
                fail(f"{path}.{key}", f"expected >= 1, got {v}")
        cores = require(cluster_100k, path, "cores", int)
        if cores is not None and cores < 131072:
            fail(f"{path}.cores",
                 f"expected >= 131072 simulated cores (100k-scale contract), got {cores}")
        nodes = require(cluster_100k, path, "nodes", int)
        if nodes is not None and nodes < 3:
            fail(f"{path}.nodes", f"expected >= 3, got {nodes}")
        classes = require(cluster_100k, path, "replica_classes", int)
        if classes is not None and classes < 1:
            fail(f"{path}.replica_classes", f"expected >= 1, got {classes}")
        live = require(cluster_100k, path, "live_leaves", int)
        if live is not None and live < 1:
            fail(f"{path}.live_leaves", f"expected >= 1, got {live}")
        hit_rate = require(cluster_100k, path, "replica_hit_rate", float)
        if hit_rate is not None and not 0 <= hit_rate <= 1:
            fail(f"{path}.replica_hit_rate", f"expected in [0, 1], got {hit_rate}")
        steps = require(cluster_100k, path, "measured_steps", int)
        if steps is not None and steps < 1:
            fail(f"{path}.measured_steps", f"expected >= 1, got {steps}")
        for key in ("wall_s_per_step", "sim_core_ticks_per_s", "peak_rss_mb"):
            v = require(cluster_100k, path, key, float)
            if v is not None and v <= 0:
                fail(f"{path}.{key}", f"expected > 0, got {v}")
        allocs = require(cluster_100k, path, "allocs_per_step", int)
        if allocs is not None and allocs != 0:
            fail(f"{path}.allocs_per_step",
                 f"steady-state 128k-core step must be allocation-free, got {allocs}")
        overrun = require(cluster_100k, path, "max_grant_overrun_w", float)
        if overrun is not None and not 0 <= overrun <= 1e-6:
            fail(f"{path}.max_grant_overrun_w",
                 f"cap invariant violated: child grants exceeded a parent grant "
                 f"by {overrun} W (expected ~0)")

    fleet = require(doc, "$", "fleet", dict)
    if fleet is not None:
        path = "$.fleet"
        sockets = require(fleet, path, "sockets", int)
        if sockets is not None and sockets < 256:
            fail(f"{path}.sockets",
                 f"expected >= 256 serving sockets (fleet-scale contract), got {sockets}")
        users = require(fleet, path, "simulated_users", float)
        if users is not None and users < 1e6:
            fail(f"{path}.simulated_users",
                 f"expected >= 1e6 simulated users, got {users}")
        rpd = require(fleet, path, "requests_per_day", float)
        if rpd is not None and rpd <= 0:
            fail(f"{path}.requests_per_day", f"expected > 0, got {rpd}")
        slo = require(fleet, path, "slo_p90_s", float)
        if slo is not None and slo <= 0:
            fail(f"{path}.slo_p90_s", f"expected > 0, got {slo}")
        rows = require(fleet, path, "rows", list)
        if rows is not None:
            policies_seen = set()
            for i, r in enumerate(rows):
                rpath = f"{path}.rows[{i}]"
                policy = require(r, rpath, "policy", str)
                if policy is not None:
                    policies_seen.add(policy)
                for key in ("slo_violations", "measured_periods", "completed"):
                    v = require(r, rpath, key, int)
                    if v is not None and v < 0:
                        fail(f"{rpath}.{key}", f"expected >= 0, got {v}")
                periods = r.get("measured_periods") if isinstance(r, dict) else None
                viol = r.get("slo_violations") if isinstance(r, dict) else None
                if (isinstance(periods, int) and isinstance(viol, int)
                        and viol > periods):
                    fail(f"{rpath}.slo_violations",
                         f"{viol} violations exceed {periods} measured periods")
                for key in ("avg_pkg_w", "fleet_p90_s", "hot_p90_s",
                            "wall_s_per_step", "sockets_stepped_per_s"):
                    v = require(r, rpath, key, float)
                    if v is not None and v <= 0:
                        fail(f"{rpath}.{key}", f"expected > 0, got {v}")
                overrun = require(r, rpath, "max_grant_overrun_w", float)
                if overrun is not None and not 0 <= overrun <= 1e-6:
                    fail(f"{rpath}.max_grant_overrun_w",
                         f"cap invariant violated under this policy: child grants "
                         f"exceeded a parent grant by {overrun} W (expected ~0)")
            for expected in ("static", "slo-feedback"):
                if expected not in policies_seen:
                    fail(f"{path}.rows", f"missing policy row '{expected}'")

    faults = require(doc, "$", "fault_tolerance", list)
    if faults is not None:
        if not faults:
            fail("$.fault_tolerance", "expected at least one fault ablation entry")
        hardened_seen = False
        for i, entry in enumerate(faults):
            path = f"$.fault_tolerance[{i}]"
            require(entry, path, "schedule", str)
            mode = require(entry, path, "mode", str)
            if mode is not None and mode not in ("naive", "hardened"):
                fail(f"{path}.mode", f"expected 'naive' or 'hardened', got '{mode}'")
            hardened_seen = hardened_seen or mode == "hardened"
            for key in ("avg_pkg_w", "max_pkg_w"):
                v = require(entry, path, key, float)
                if v is not None and v <= 0:
                    fail(f"{path}.{key}", f"expected > 0, got {v}")
            v = require(entry, path, "overshoot_w", float)
            if v is not None and v < 0:
                fail(f"{path}.overshoot_w", f"expected >= 0, got {v}")
            for key in ("invalid_samples", "fallback_periods", "failed_programs",
                        "dropped_writes"):
                v = require(entry, path, key, int)
                if v is not None and v < 0:
                    fail(f"{path}.{key}", f"expected >= 0, got {v}")
        if not hardened_seen:
            fail("$.fault_tolerance", "expected at least one hardened entry")

    obs = require(doc, "$", "obs", dict)
    if obs is not None:
        for key in ("daemon_step_off_ns", "daemon_step_on_ns"):
            v = require(obs, "$.obs", key, float)
            if v is not None and v <= 0:
                fail(f"$.obs.{key}", f"expected > 0, got {v}")
        require(obs, "$.obs", "overhead_pct", float)
        events = require(obs, "$.obs", "trace_events", int)
        if events is not None and events <= 0:
            fail("$.obs.trace_events", f"expected > 0 with tracing enabled, got {events}")
        disabled = require(obs, "$.obs", "trace_disabled_events", int)
        if disabled is not None and disabled != 0:
            fail("$.obs.trace_disabled_events",
                 f"disabled tracer must record nothing, got {disabled}")
        metrics = require(obs, "$.obs", "metrics", dict)
        if metrics is not None:
            if not metrics:
                fail("$.obs.metrics", "expected at least one metric")
            for name, value in metrics.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    fail(f"$.obs.metrics.{name}",
                         f"expected number, got {type(value).__name__}")
            for expected in ("daemon.pkg_w", "telemetry.invalid_samples"):
                if expected not in metrics:
                    fail("$.obs.metrics", f"missing metric '{expected}'")


MICRO_BASELINE_NAME = "package_tick_10core_gcc"

TICK_ENGINE_NAMES = (
    "package_tick_128core_scalar",
    "package_tick_128core_simd",
    "package_tick_128core_multirate",
)

TICK_SPEEDUP_NAME = "package_tick_128core_multirate"


def tick_engine_speedup(doc, name):
    for entry in doc.get("scaling", {}).get("tick_engine", []):
        if isinstance(entry, dict) and entry.get("name") == name:
            value = entry.get("speedup_vs_scalar")
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return float(value)
    return None


def micro_ns(doc, name):
    for entry in doc.get("micro", []):
        if isinstance(entry, dict) and entry.get("name") == name:
            value = entry.get("ns_per_iter")
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return float(value)
    return None


def check_baseline(doc, baseline_path, max_regress_pct):
    """Compares the hot-tick micro against a checked-in baseline run."""
    try:
        with open(baseline_path) as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(baseline_path, str(e))
        return
    fresh = micro_ns(doc, MICRO_BASELINE_NAME)
    ref = micro_ns(baseline, MICRO_BASELINE_NAME)
    if fresh is None:
        fail(f"$.micro.{MICRO_BASELINE_NAME}", "missing from fresh run")
        return
    if ref is None or ref <= 0:
        fail(f"{baseline_path}: micro.{MICRO_BASELINE_NAME}", "missing or non-positive")
        return
    regress_pct = 100.0 * (fresh - ref) / ref
    if regress_pct > max_regress_pct:
        fail(f"$.micro.{MICRO_BASELINE_NAME}",
             f"regressed {regress_pct:.1f}% vs baseline "
             f"({fresh:.1f} ns vs {ref:.1f} ns, limit {max_regress_pct:.1f}%)")
    else:
        print(f"{MICRO_BASELINE_NAME}: {fresh:.1f} ns vs baseline {ref:.1f} ns "
              f"({regress_pct:+.1f}%, limit {max_regress_pct:.1f}%)")


def check_tick_speedup(doc, min_speedup):
    """Enforces the tick-engine perf contract: SIMD + multi-rate ticking must
    beat the forced-scalar every-tick reference by at least min_speedup on
    the 128-core package."""
    speedup = tick_engine_speedup(doc, TICK_SPEEDUP_NAME)
    if speedup is None:
        fail(f"$.scaling.tick_engine.{TICK_SPEEDUP_NAME}", "missing from fresh run")
        return
    if speedup < min_speedup:
        fail(f"$.scaling.tick_engine.{TICK_SPEEDUP_NAME}",
             f"speedup_vs_scalar {speedup:.2f}x below required {min_speedup:.2f}x")
    else:
        print(f"{TICK_SPEEDUP_NAME}: {speedup:.2f}x vs scalar "
              f"(required {min_speedup:.2f}x)")


def cluster_ticks_per_s(doc):
    value = doc.get("cluster", {}).get("sim_core_ticks_per_s")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


def check_cluster_throughput(doc, baseline_path, max_regress_pct):
    """Gates cluster-scale simulation throughput against the baseline run."""
    try:
        with open(baseline_path) as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(baseline_path, str(e))
        return
    fresh = cluster_ticks_per_s(doc)
    ref = cluster_ticks_per_s(baseline)
    if fresh is None:
        fail("$.cluster.sim_core_ticks_per_s", "missing from fresh run")
        return
    if ref is None or ref <= 0:
        fail(f"{baseline_path}: cluster.sim_core_ticks_per_s", "missing or non-positive")
        return
    regress_pct = 100.0 * (ref - fresh) / ref
    if regress_pct > max_regress_pct:
        fail("$.cluster.sim_core_ticks_per_s",
             f"regressed {regress_pct:.1f}% vs baseline "
             f"({fresh:.0f} vs {ref:.0f} core-ticks/s, limit {max_regress_pct:.1f}%)")
    else:
        print(f"cluster.sim_core_ticks_per_s: {fresh:.0f} vs baseline {ref:.0f} "
              f"({-regress_pct:+.1f}%, limit -{max_regress_pct:.1f}%)")


def check_cluster100k_throughput(doc, min_ticks_per_s):
    """Enforces the 100k-core fast-path contract: with socket hold,
    replica memoization, and persistent sharding engaged, the 128k-core
    tree must step at >= min_ticks_per_s simulated core-ticks per second.
    Absolute rather than baseline-relative — the fast path's margin over
    the floor is ~10x, so any host passes unless the machinery breaks."""
    value = doc.get("cluster_100k", {}).get("sim_core_ticks_per_s")
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        fail("$.cluster_100k.sim_core_ticks_per_s", "missing from fresh run")
        return
    if float(value) < min_ticks_per_s:
        fail("$.cluster_100k.sim_core_ticks_per_s",
             f"{float(value):.3g} below required {min_ticks_per_s:.3g} "
             f"(hold/memoization fast path not engaging?)")
    else:
        print(f"cluster_100k.sim_core_ticks_per_s: {float(value):.3g} "
              f"(required {min_ticks_per_s:.3g})")


def fleet_violations(doc, policy):
    for row in doc.get("fleet", {}).get("rows", []):
        if isinstance(row, dict) and row.get("policy") == policy:
            value = row.get("slo_violations")
            if isinstance(value, int) and not isinstance(value, bool):
                return value
    return None


def check_fleet_feedback(doc):
    """Enforces the serving fleet's headline: at the same cluster cap, the
    SLO-feedback arbiter must end the run with strictly fewer violating
    socket-periods than static shares.  The simulation is seeded, so this
    comparison is exact — no noise margin needed."""
    static = fleet_violations(doc, "static")
    feedback = fleet_violations(doc, "slo-feedback")
    if static is None:
        fail("$.fleet.rows", "missing 'static' row for the feedback comparison")
        return
    if feedback is None:
        fail("$.fleet.rows", "missing 'slo-feedback' row for the feedback comparison")
        return
    if feedback >= static:
        fail("$.fleet.rows",
             f"slo-feedback recorded {feedback} violations vs {static} for "
             f"static shares (expected strictly fewer at the same cap)")
    else:
        print(f"fleet: slo-feedback {feedback} violations vs static {static} "
              f"(strictly fewer, as required)")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("json_path")
    parser.add_argument("--baseline", metavar="FILE",
                        help="prior BENCH_scenarios.json to compare the hot-tick micro against")
    parser.add_argument("--max-regress-pct", type=float, default=3.0,
                        help="maximum allowed ns_per_iter regression (default 3%%)")
    parser.add_argument("--min-tick-speedup", type=float, default=5.0,
                        help="required 128-core multi-rate speedup vs forced "
                             "scalar, enforced with --baseline (default 5.0)")
    parser.add_argument("--max-cluster-regress-pct", type=float, default=30.0,
                        help="maximum allowed cluster sim_core_ticks_per_s drop vs "
                             "the baseline (default 30%%)")
    parser.add_argument("--min-100k-ticks-per-s", type=float, default=1e9,
                        help="required cluster_100k sim_core_ticks_per_s, enforced "
                             "with --baseline (default 1e9)")
    args = parser.parse_args(argv[1:])
    try:
        with open(args.json_path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"{args.json_path}: {e}", file=sys.stderr)
        return 1

    check(doc)
    if args.baseline:
        check_baseline(doc, args.baseline, args.max_regress_pct)
        check_tick_speedup(doc, args.min_tick_speedup)
        check_cluster_throughput(doc, args.baseline, args.max_cluster_regress_pct)
        check_cluster100k_throughput(doc, args.min_100k_ticks_per_s)
        check_fleet_feedback(doc)
    for err in ERRORS:
        print(err, file=sys.stderr)
    if ERRORS:
        return 1
    # The summary reads sections defensively: check() records per-section
    # errors for anything missing, but a section that failed its `require`
    # is simply absent here and must not turn the success path into a
    # KeyError traceback.
    sections = {
        "micro": doc.get("micro"),
        "scaling.package_tick": doc.get("scaling", {}).get("package_tick"),
        "scenarios": doc.get("scenarios"),
        "fault_tolerance": doc.get("fault_tolerance"),
        "obs.metrics": doc.get("obs", {}).get("metrics"),
        "cluster": doc.get("cluster"),
        "cluster_100k": doc.get("cluster_100k"),
        "fleet": doc.get("fleet"),
        "batch": doc.get("batch"),
    }
    missing = [name for name, value in sections.items() if value is None]
    if missing:
        for name in missing:
            print(f"missing section: {name}", file=sys.stderr)
        return 1
    print(f"{args.json_path}: schema OK "
          f"({len(sections['micro'])} micro, "
          f"{len(sections['scaling.package_tick'])} scaling points, "
          f"{len(sections['scenarios'])} scenarios, "
          f"{len(sections['fault_tolerance'])} fault entries, "
          f"{len(sections['obs.metrics'])} obs metrics, "
          f"cluster {sections['cluster'].get('cores', '?')} cores, "
          f"cluster_100k {sections['cluster_100k'].get('cores', '?')} cores, "
          f"fleet {sections['fleet'].get('sockets', '?')} sockets, "
          f"batch speedup {sections['batch'].get('speedup', 0.0):.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
