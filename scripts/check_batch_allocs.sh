#!/usr/bin/env bash
# check_batch_allocs.sh — allocation gate for the vectorized operator path.
#
# The batch executor's whole point is taking per-tuple allocations off the
# per-alternative hot path (see internal/colbatch and internal/algebra's
# operators). This script runs the bulk operator benchmarks with
# -benchmem and fails when allocs/op (and, where check_bytes gates it, B/op)
# regresses past a fixed ceiling, so an accidental per-row allocation in an
# operator fails CI instead of silently eating the win. Ceilings are ~2x the measured steady state
# (scan 1, filter ~70, join ~150 allocs/op) — loose enough for noise,
# tight enough that an O(rows) regression (8192 rows/op here) trips them.
#
# The closure-path gate does the same for the batch-native closure pipeline
# past the Collect seam (internal/wsd): the BatchClosure* benchmarks close
# POSSIBLE/CONF/GROUP WORLDS over 8 alternatives x 2048 tuples, steady state
# ~2.5-3k allocs/op (one interned key string per distinct answer tuple, one
# id slice per part — internal/wsd/fold.go keeps no per-part set — plus
# columnar assembly); an accidental per-(tuple,part) allocation (16384
# rows/op) blows well past the ~2x ceilings.
#
# The stored-batch-scan gate pins the columnar-first storage contract:
# scanning a relation whose store is columnar (imported or closure-built)
# is an identity lookup plus zero-copy slices — O(1) allocations per scan
# (measured 2 allocs/op over 8192 rows: the scan and its chunk header), so
# any per-row re-encode sneaking back into Scan.Open trips the ceiling of 8
# instantly.
#
# The bulk-load gates hold the IMPORT loader to per-column and per-group
# allocation. internal/relation's CSV reader streams the file through one
# buffer into typed columns, sized from the bytes per row read so far, with
# one string arena per 1 024-row chunk: a clean 1M-row load is ~1.1k
# allocs/op, nothing per row or per cell. Repair-key classification
# gathers the rows of every conflict group once and hands each group a
# slice of them, a header and a relation per group (~159k over 50k groups,
# where one gather per group took ~309k), and NULL-choice expansion adds
# one small relation per choice row (~69k over 2 000 rows of 20
# alternatives); BenchmarkImportDirty, ingest.dml's 40 000-row
# file under NULLS AS CHOICE REPAIR KEY (K) WEIGHT W, is ~560. The ceilings
# are ~1.5x those steady states, so one allocation per row (1M, or 40k
# for the dirty file) blows through.
#
# The conditional-path gate covers the d-tree routes over a nested
# decomposition representing 2^18 worlds (18 repair components, one
# conditional child under every alternative): the conditional relation
# (cond column) and the tree-fold CONF closure must stay linear in the
# representation — steady state ~360 and ~257 allocs/op (one whole-tree
# listing per decision; ~376 and ~273 when routing and evaluation each
# listed the trees): both are one certain-only evaluation and one tagged
# delta, no world is evaluated — so
# anything scaling with the world count (or even quadratic in the
# components, as the deviation-world evaluations were: ~2.9k) trips the ~2x
# ceilings immediately.
#
# The imported-read gate holds "the certain part is evaluated once": a CONF
# over 40 000 imported rows with 24 alternatives of dirt is one certain-only
# evaluation and one tagged delta of the 24 one-row contributions
# (internal/wsd's queryByComponent), where one full evaluation per
# alternative took ~6.5k allocs/op and anything per certain row takes 40k.
# Its join (B, L where B.K = L.K) is the same plus a hash join whose certain
# build side L is hashed once per statement, where the filtered cross join
# it replaced took ~127k.
#
# The merge-route gate holds a merged component to the machinery of every
# other component: a CONF whose subquery correlates bench/'s 8 two-value
# keys, over their 256-alternative merged component, is 256 full-answer
# evaluations closed by the one fold (internal/wsd/fold.go). Its
# uncorrelated sum runs once per alternative through the statement's memo
# (internal/plan/memo.go), not once per row: steady state ~9.2k allocs/op,
# where evaluating it per row took 28 392. The UPDATE whose WHERE reads the
# same merged component rewrites 256 pieces with the max evaluated once
# each: ~12.5k, where 31 695 per row. The ~1.2x ceilings trip when the
# subquery runs per row again.
#
# The answer-encoding gate holds the server's wire encoder to per-relation
# allocation: BenchmarkEncodeAnswer writes a 10 000 x 6 columnar answer and
# a 31 x 4 row-form one (the most rows a row-form batch holds) into a reused
# buffer, as a TCP connection does — steady state 2 and 1 allocs/op (the
# response envelope, plus the column table of a columnar batch). Boxing
# cells into an any again (60 000 and 124 cells here), or columnarising a
# row-form answer, trips the 2x ceilings at once.
#
# The DML gate holds UPDATE and DELETE to per-column allocation:
# BenchmarkDMLApply rewrites a 40 000-row columnar batch of which one row
# in ten matches (internal/plan's BoundDML.Apply, which is internal/algebra's
# Select and Values kernels composed) — steady state 17 allocs/op for the
# update (the selection, the gathered matching rows, the SET values' batch,
# the SET column's copy) and 12 for the delete (the gathered complement).
# Going back through tuples, or one allocation per matching row (4 000
# here), trips the 2x ceilings at once. update-subquery's WHERE holds a
# scalar subquery, so the predicate runs through the kernels' row evaluator,
# which refills one tuple per row from the columns: steady state ~24.1 MB/op,
# nearly all of it the unshared subquery's per-row work. Its ~1.15x bytes
# ceiling trips on a row path that materializes the batch's rows (40 000
# tuples, ~5 MB more).
#
# The per-drain gates hold drain (internal/algebra/batch.go) to its two
# rules. A tree that only reads a stored batch — a Scan, or a Project of
# plain columns over one — is answered by a zero-copy view of that batch:
# BenchmarkCollectStoredScan collects both over 8 192 stored rows at a
# steady state of 3 allocs/op (the answer's header, its column table and
# its relation), and the ceiling of 8 trips on any copy or any allocation
# per batch. Any other tree is drained, its one batch shared as it comes or
# its several concatenated once into columns of their total length.
# BenchmarkFigurePipeline drains bound trees reused across drains, as a
# bound subquery is: an 8-row row-form Scan -> Filter -> Project (steady
# state 7 allocs/op: the filter's gathered rows, the
# projection's value slab, rows and header, the answer's header and
# relation) and a one-row delta probing a shared 100-row build (9 allocs/op:
# the answer's columns). The ~2x ceilings trip on any per-drain or per-row
# allocation added to a row-form drain. BenchmarkClosureComponents
# closes a 1000-component decomposition: two plan runs per statement, the
# certain-only answer and one tagged delta of all 2000 one-row
# contributions, which the fold reads as row ranges of that one answer.
# Steady state 2 274 (possible) and 2 313 (conf) allocs/op, where one delta
# evaluation per alternative took 29 137 and 31 204; the ~1.2x ceilings trip
# on anything per alternative, and the conf/groups=16000 ceiling (steady
# state 32 771, 496 721 with an evaluation per alternative) on anything that
# grows faster than the representation.
#
# The statement-overhead gate holds what a statement pays for the size of the
# decomposition: BenchmarkStatementOverhead asks for one component's two rows
# (`select possible V from U where K = 0`) over n flat repair components beside
# one nested chain, closure.compact's shape. The decomposition's index —
# component positions, children, alternative numbering, tree facts, relation
# feeders, U's stored tagged delta — is built once per change
# (internal/wsd/index.go), and after the filter over the stored delta a
# statement pays for the parts its answer holds, not for every alternative,
# and a Snapshot copies nothing (a read never copies the component list or
# the relation maps), and a cached plan is checked against the tables it
# read, not rebound: the steady state is ~114 (comps=1000) and ~133
# (comps=10000) allocs/op and ~24.3 KB and ~241 KB/op, where rebinding the
# plan to validate a cache hit took ~121/140 allocs and 24.8 KB/242 KB, a
# Snapshot copying them ~128/147 allocs and 35 KB/325 KB, a tag column,
# dense parts and a fold over every alternative ~175/195 allocs and
# 159 KB/1.57 MB, and rebuilding the index on every read 381 and 443 allocs. What bytes remain
# grow with n through the filter's selection vector over the delta and the
# index build the first of the 20 statements pays. The ~1.5x allocs and
# bytes ceilings (check_bytes reads B/op) trip on anything per component
# (1000+ allocations, or 8+ bytes per alternative).
#
# The convolution gate holds the scalar aggregates of Examples 2.8 and 2.10
# to the representation: BenchmarkScalarAggregate answers `select possible
# sum(V)` and `select conf from M where … > (select sum(V) from M)` over
# P4's n two-value keys by two evaluations of the sum's input and one fold of
# n components reaching n + 1 sums (internal/wsd/convolution.go), no merge.
# Steady state 140 and 156 allocs/op, 13.6 and 13.9 KB/op at comps=8, 239
# and 248 allocs/op, 542 and 442 KB/op at comps=1000, where the merge route
# took 2^n evaluations (5 323 allocs/op for possible.sum over 8 keys' merged
# component). The ~1.5x allocs and bytes ceilings trip on anything per
# alternative (2 000 here) or per reached sum and component (10^6).
#
# Each run's output is copied to standard error as it comes, through fd 2
# itself: tee'ing to /dev/stderr would reopen a redirected log and truncate
# it, keeping only the last package's output.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="$(go test ./internal/algebra/ -bench '^(BenchmarkBatchScan|BenchmarkStoredBatchScan|BenchmarkBatchFilter|BenchmarkHashJoinBatch|BenchmarkFigurePipeline|BenchmarkCollectStoredScan)$' \
    -benchmem -benchtime 50x -run '^$' | tee >(cat >&2))
$(go test . -bench '^BenchmarkClosureComponents$/^(possible|conf)$/^groups=(1000|16000)$' \
    -benchmem -benchtime 20x -run '^$' | tee >(cat >&2))
$(go test ./internal/relation/ -bench '^BenchmarkImport(Certain|RepairKey|Choice|Dirty)$' \
    -benchmem -benchtime 1x -run '^$' | tee >(cat >&2))
$(go test . -bench '^BenchmarkStatementOverhead$' \
    -benchmem -benchtime 20x -run '^$' | tee >(cat >&2))
$(go test . -bench '^(BenchmarkBatchClosurePossible|BenchmarkBatchClosureConf|BenchmarkBatchClosureGroupWorlds)$' \
    -benchmem -benchtime 20x -run '^$' | tee >(cat >&2))
$(go test . -bench 'BenchmarkConditional(Select|Conf)/nested/groups=18' \
    -benchmem -benchtime 20x -run '^$' | tee >(cat >&2))
$(go test . -bench '^BenchmarkImportedRead$/^(conf|join)$/^rows=40000$/^alts=24$' \
    -benchmem -benchtime 20x -run '^$' | tee >(cat >&2))
$(go test . -bench '^BenchmarkMergeRoute$/^(conf\.subquery|update\.uncertain)$' \
    -benchmem -benchtime 20x -run '^$' | tee >(cat >&2))
$(go test . -bench '^BenchmarkScalarAggregate$' \
    -benchmem -benchtime 20x -run '^$' | tee >(cat >&2))
$(go test ./internal/server/ -bench '^BenchmarkEncodeAnswer$' \
    -benchmem -benchtime 20x -run '^$' | tee >(cat >&2))
$(go test ./internal/plan/ -bench '^BenchmarkDMLApply$' \
    -benchmem -benchtime 20x -run '^$' | tee >(cat >&2))"

fail=0
# check NAME CEILING fails when benchmark NAME allocates more than CEILING
# allocs/op; check_bytes does the same for B/op.
check() {
    local name="$1" ceiling="$2" allocs
    allocs="$(awk -v n="$name" '$1 ~ "^"n"(-[0-9]+)?$" && $(NF) == "allocs/op" { print $(NF-1) }' <<<"$OUT")"
    if [ -z "$allocs" ]; then
        echo "check_batch_allocs: $name did not run" >&2
        fail=1
    elif [ "$allocs" -gt "$ceiling" ]; then
        echo "check_batch_allocs: $name allocates $allocs/op, ceiling $ceiling" >&2
        fail=1
    fi
}

check_bytes() {
    local name="$1" ceiling="$2" bytes
    bytes="$(awk -v n="$name" '$1 ~ "^"n"(-[0-9]+)?$" { for (i = 2; i <= NF; i++) if ($i == "B/op") print $(i-1) }' <<<"$OUT")"
    if [ -z "$bytes" ]; then
        echo "check_batch_allocs: $name did not run" >&2
        fail=1
    elif [ "${bytes%.*}" -gt "$ceiling" ]; then
        echo "check_batch_allocs: $name allocates $bytes B/op, ceiling $ceiling" >&2
        fail=1
    fi
}

check BenchmarkBatchScan 8
check BenchmarkStoredBatchScan 8
check BenchmarkBatchFilter 200
check BenchmarkHashJoinBatch 400
check 'BenchmarkFigurePipeline/scan-filter-project' 14
check 'BenchmarkFigurePipeline/delta-probe' 18
check 'BenchmarkCollectStoredScan/scan' 8
check 'BenchmarkCollectStoredScan/project' 8
check 'BenchmarkClosureComponents/possible/groups=1000' 2750
check 'BenchmarkClosureComponents/conf/groups=1000' 2800
check 'BenchmarkClosureComponents/conf/groups=16000' 40000
check 'BenchmarkStatementOverhead/comps=1000' 171
check 'BenchmarkStatementOverhead/comps=10000' 199
check_bytes 'BenchmarkStatementOverhead/comps=1000' 36500
check_bytes 'BenchmarkStatementOverhead/comps=10000' 361700
check BenchmarkImportCertain 1600
check BenchmarkImportRepairKey 240000
check BenchmarkImportChoice 105000
check BenchmarkImportDirty 850
check BenchmarkBatchClosurePossible 5000
check BenchmarkBatchClosureConf 5000
check BenchmarkBatchClosureGroupWorlds 6000
check 'BenchmarkConditionalSelect/nested/groups=18/worlds=2\^18' 720
check 'BenchmarkConditionalConf/nested/groups=18/worlds=2\^18' 520
check 'BenchmarkImportedRead/conf/rows=40000/alts=24' 2000
check 'BenchmarkImportedRead/join/rows=40000/alts=24' 2200
check 'BenchmarkMergeRoute/conf\.subquery' 11000
check 'BenchmarkMergeRoute/update\.uncertain' 15000
check 'BenchmarkScalarAggregate/possible/comps=8' 210
check 'BenchmarkScalarAggregate/possible/comps=1000' 360
check 'BenchmarkScalarAggregate/conf/comps=8' 235
check 'BenchmarkScalarAggregate/conf/comps=1000' 372
check_bytes 'BenchmarkScalarAggregate/possible/comps=8' 20500
check_bytes 'BenchmarkScalarAggregate/possible/comps=1000' 813000
check_bytes 'BenchmarkScalarAggregate/conf/comps=8' 21000
check_bytes 'BenchmarkScalarAggregate/conf/comps=1000' 664000
check 'BenchmarkEncodeAnswer/columnar' 4
check 'BenchmarkEncodeAnswer/rows' 2
check 'BenchmarkDMLApply/update' 32
check 'BenchmarkDMLApply/delete' 24
check_bytes 'BenchmarkDMLApply/update-subquery' 27700000

if [ "$fail" -ne 0 ]; then
    echo "check_batch_allocs: vectorized path regressed (or benchmarks renamed)" >&2
    exit 1
fi
echo "check_batch_allocs: ok" >&2
