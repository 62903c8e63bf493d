#!/usr/bin/env bash
# Writes the stdout of every table-printing run of a build to one file per
# run in OUT_DIR: every bench/ binary except perf_harness (its timings are
# gated by tools/check_bench_json.py instead), the five examples, and four
# papdctl runs (a share policy, the priority policy on Ryzen with its
# P-state selector, and the fixed-target policy of static and rapl).
#
# Everything is deterministic, so `diff -r` of two builds' OUT_DIRs shows
# every table a change moved; only micro_policy_overhead.txt (timings)
# differs between runs.  The benches fan out on PAPD_JOBS workers; pin it
# (e.g. PAPD_JOBS=4) when comparing.  Every run is made; the script exits 1
# if any of them failed.
#
# usage: tools/bench_stdout.sh BUILD_DIR OUT_DIR

set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi
build=$1
out=$2
mkdir -p "$out" || exit 1
failed=0

# run NAME CMD...: CMD's stdout goes to OUT_DIR/NAME.txt.
run() {
  local name=$1
  shift
  if ! "$@" > "$out/$name.txt"; then
    echo "bench_stdout: $name failed" >&2
    failed=1
  fi
}

for b in "$build"/bench/*; do
  case "$b" in */perf_harness) continue ;; esac
  if [ -f "$b" ] && [ -x "$b" ]; then
    run "$(basename "$b")" "$b"
  fi
done

for e in quickstart custom_policy datacenter_power_cap lp_timeslicing colocate_latency_batch; do
  run "example_$e" "$build/examples/$e"
done

ctl=$build/tools/papdctl
run papdctl_freq_shares "$ctl" --policy freq-shares --limit 40 \
    --app leela:shares=90 --app cpuburn:shares=10
run papdctl_priority_ryzen "$ctl" --platform ryzen --policy priority --limit 40 \
    --app cactusBSSN:hp --app cactusBSSN:hp --app leela:lp --app leela:lp
run papdctl_static "$ctl" --policy static --static-mhz 2000 --limit 40 --app leela --app cpuburn
run papdctl_rapl "$ctl" --policy rapl --limit 40 --app leela --app cpuburn

exit "$failed"
