#!/usr/bin/env bash
# check_trace_overhead.sh — gate the cost of the observability layer.
#
# Runs the two hot-path benchmarks (a point CONF statement through
# CompactDB.Exec, which runs the statement runner and its instrumentation,
# and the algebra join ablation) with metrics collection disabled
# (MAYBMS_METRICS=off) and enabled (the default). Each package is compiled
# once into a test binary, so both modes run the very same code. Every rep
# runs each benchmark TRIES times off and on back to back, alternating from
# pair to pair which mode goes first; a rep's on/off ns/op ratio is the
# median of its TRIES pairs, and the gate is the median of the per-rep
# ratios.
# Pairing keeps a shared host's drift between seconds out of the ratio, and
# the medians keep a preempted run from deciding it. Fails if the median
# ratio is more than MAX_OVERHEAD_PCT above 1 — the instrumentation is a few
# atomic adds per statement stage, so anything above noise means a per-row
# cost crept in.
#
# Usage:
#   scripts/check_trace_overhead.sh              # gate at 5%
#   BENCHTIME=1s REPS=8 scripts/check_trace_overhead.sh  # steadier numbers
#
# The measured pair is recorded into BENCH_<date>.json (entries named
# <bench>/metrics=off|on holding each mode's median ns/op, the on entry also
# the median on/off ratio, merged into an existing file like
# scripts/bench.sh filtered runs do).
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-0.5s}"
REPS="${REPS:-5}"
TRIES=3 # off/on pairs per rep
MAX_OVERHEAD_PCT="${MAX_OVERHEAD_PCT:-5}"
DATE="$(date -u +%Y-%m-%d)"
OUT="${OUT:-BENCH_${DATE}.json}"

BIN="$(mktemp -d)"
trap 'rm -rf "$BIN"' EXIT
RAW="$BIN/raw.txt"
go test -c -o "$BIN/root.test" .
go test -c -o "$BIN/algebra.test" ./internal/algebra

# run DIR BINARY PATTERN MODE: one run of the benchmarks matching PATTERN,
# appending "<rep>.<try> <mode> <name> <ns/op>" to RAW. The binary runs in its
# package's directory, as go test runs it.
run() {
    (cd "$1" && MAYBMS_METRICS="$4" "$2" -test.run '^$' -test.bench "$3" \
        -test.benchtime "$BENCHTIME" -test.count 1) | tee /dev/stderr |
        awk -v rep="$rep.$try" -v mode="$4" '/^Benchmark/ && $4 == "ns/op" { print rep, mode, $1, $3 }' >>"$RAW"
}

# order: the pair's two modes, off first on every other pair.
order() { if [ $(((rep + try) % 2)) -eq 0 ]; then echo off on; else echo on off; fi; }

for rep in $(seq "$REPS"); do
    echo "== rep $rep: $TRIES off/on pairs per benchmark ==" >&2
    for try in $(seq "$TRIES"); do
        for mode in $(order); do
            run . "$BIN/root.test" 'BenchmarkScalingConfWSD/groups=1000$' "$mode"
        done
    done
    for try in $(seq "$TRIES"); do
        for mode in $(order); do
            run internal/algebra "$BIN/algebra.test" 'BenchmarkAblationJoinCross/n=512$' "$mode"
        done
    done
done

python3 - "$RAW" "$REPS" "$TRIES" "$OUT" "$MAX_OVERHEAD_PCT" \
    "$DATE" "$(go version)" "$BENCHTIME" <<'PY'
import json, os, statistics, sys
from collections import defaultdict

raw, reps, tries, out, max_pct, date, goversion, benchtime = sys.argv[1:9]

runs = defaultdict(dict)  # name -> (rep, try) -> mode -> ns/op
for line in open(raw):
    rep_try, mode, name, ns = line.split()
    runs[name].setdefault(tuple(rep_try.split(".")), {})[mode] = float(ns)
if len(runs) != 2:
    sys.exit(f"expected two benchmarks, got {sorted(runs)}")

failed = False
entries = []
for name in sorted(runs):
    pairs = {k: p for k, p in runs[name].items() if set(p) == {"off", "on"}}
    if len(pairs) != int(reps) * int(tries):
        sys.exit(f"{name}: {len(pairs)} complete off/on pairs, want {reps}×{tries}")
    by_rep = defaultdict(list)
    for (rep, _), p in pairs.items():
        by_rep[rep].append(p["on"] / p["off"])
    ratios = [statistics.median(r) for _, r in sorted(by_rep.items(), key=lambda e: int(e[0]))]
    ratio = statistics.median(ratios)
    pairs = pairs.values()
    off = statistics.median(p["off"] for p in pairs)
    on = statistics.median(p["on"] for p in pairs)
    pct = (ratio - 1) * 100
    status = "ok" if pct <= float(max_pct) else "FAIL"
    if status == "FAIL":
        failed = True
    print(f"{name}: per-rep on/off {' '.join(f'{r:.3f}' for r in ratios)}; "
          f"median disabled {off:.0f} ns/op, enabled {on:.0f} ns/op, "
          f"median ratio {ratio:.3f} (overhead {pct:+.2f}%) [{status}]")
    entries.append({"name": f"{name}/metrics=off", "ns_per_op": off})
    entries.append({"name": f"{name}/metrics=on", "ns_per_op": on, "on_off_ratio": ratio})

# Record the pair, merging into an existing recording by name.
doc = {"date": date, "go": goversion, "benchtime": benchtime, "benchmarks": []}
if os.path.isfile(out) and os.path.getsize(out) > 0:
    with open(out) as f:
        doc = json.load(f)
measured = {e["name"] for e in entries}
doc["benchmarks"] = [b for b in doc.get("benchmarks", [])
                     if b["name"] not in measured] + entries
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"recorded metrics on/off pair in {out}")

if failed:
    sys.exit(f"median metrics overhead exceeds {max_pct}% on at least one benchmark")
PY
echo "check_trace_overhead: ok" >&2
