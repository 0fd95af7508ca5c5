#!/bin/sh
# Regenerates BENCH_sim.json, the committed snapshot of the simulator
# hot-path microbenchmarks. Run from the repo root (or via
# `make bench-snapshot`) on a quiet machine; commit the result so perf
# regressions in the dispatch/commit paths show up in review diffs.
# The gate is two-sided: perfcheck also fails on improvements beyond
# its -improve-threshold, and this script is how that failure is
# resolved — rerun it so the speedup becomes the enforced baseline.
set -eu

cd "$(dirname "$0")/.."
out=BENCH_sim.json

raw=$(go test -run '^$' -bench 'Rendezvous|StoreCommit|StoreDMB|CompiledDispatch|ClosureSpinPause|CellCacheHit|DirectoryRank|DirectorySharerChurn|BarrierScale|ExploreStates' -benchmem \
	./internal/sim ./internal/cellcache ./internal/mesi ./internal/barrier ./internal/explore)

# Result-cache context: time `-quick all` cold (fresh cache dir) and
# warm (same dir, every cell replayed from disk). Recorded in the
# snapshot for reviewers — perfcheck prints but does not gate it.
# The interp cold run (third, its own fresh cache dir) records the
# whole-pipeline cost of the interpreted engine next to the compiled
# default, so the engine speedup is visible in review diffs. Two more
# cold runs pin GOMAXPROCS to 1 and to the host's core count, so the
# history shows whether whole-run wall time depends on the core count.
bin=$(mktemp -d)/armbar
scratch=$(mktemp -d)
trap 'rm -rf "$(dirname "$bin")" "$scratch"' EXIT
go build -o "$bin" ./cmd/armbar
nproc=$(nproc)

# coldrun NAME PROCS [ARGS...]: time `-quick all` against the cache
# dir $scratch/NAME (fresh on first use) at GOMAXPROCS=PROCS (empty:
# inherited), printing seconds.
coldrun() {
	dir="$scratch/$1"
	procs=$2
	shift 2
	t0=$(date +%s.%N)
	env ${procs:+GOMAXPROCS=$procs} "$bin" -quick -times=false -cache-dir "$dir" "$@" all > /dev/null
	t1=$(date +%s.%N)
	awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.2f", b - a }'
}
cold=$(coldrun default "")
warm=$(coldrun default "")
interp=$(coldrun interp "" -engine=interp)
cold_p1=$(coldrun p1 1)
cold_pn=$(coldrun pn "$nproc")

printf '%s\n' "$raw" | awk \
    -v goversion="$(go env GOVERSION)" \
    -v maxprocs="${GOMAXPROCS:-$(nproc)}" \
    -v date="$(date -u +%Y-%m-%d)" \
    -v cold="$cold" -v warm="$warm" -v interp="$interp" \
    -v nproc="$nproc" -v cold_p1="$cold_p1" -v cold_pn="$cold_pn" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    # Key metrics off their unit labels, not field positions: custom
    # benchmark metrics (e.g. ExploreStates states/sec) insert columns.
    ns = "0"; bytes = "0"; allocs = "0"
    for (i = 3; i < NF; i += 2) {
        if ($(i+1) == "ns/op") ns = $i
        else if ($(i+1) == "B/op") bytes = $i
        else if ($(i+1) == "allocs/op") allocs = $i
    }
    benches[++n] = sprintf("    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}",
        name, $2, ns, bytes, allocs)
}
/^cpu:/ { cpu = $0; sub(/^cpu: */, "", cpu) }
END {
    if (n == 0) { print "no benchmark lines parsed" > "/dev/stderr"; exit 1 }
    print "{"
    printf "  \"date\": \"%s\",\n", date
    printf "  \"go\": \"%s\",\n", goversion
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"gomaxprocs\": %s,\n", maxprocs
    printf "  \"cold_wall_seconds\": %s,\n", cold
    printf "  \"warm_wall_seconds\": %s,\n", warm
    printf "  \"interp_cold_wall_seconds\": %s,\n", interp
    printf "  \"nproc\": %s,\n", nproc
    printf "  \"cold_wall_seconds_gomaxprocs1\": %s,\n", cold_p1
    printf "  \"cold_wall_seconds_nproc\": %s,\n", cold_pn
    print "  \"benchmarks\": ["
    for (i = 1; i <= n; i++) printf "%s%s\n", benches[i], (i < n ? "," : "")
    print "  ]"
    print "}"
}' > "$out"

# Every regeneration also appends the snapshot as one compact JSON
# line to the committed history, so `armbar perfcheck` can show how
# the baseline itself drifted across refreshes. Indentation is
# line-leading only and JSON strings hold no newlines, so stripping
# leading whitespace and joining lines is a faithful compaction.
hist=BENCH_history.jsonl
awk '{ sub(/^[ \t]+/, ""); printf "%s", $0 } END { print "" }' "$out" >> "$hist"

# A snapshot is only comparable to runs from the same toolchain and
# commit, so record where it came from next to it.
manifest=BENCH_sim.manifest.json
rev=$(git rev-parse HEAD 2>/dev/null || echo unknown)
dirty=$(git status --porcelain 2>/dev/null | grep -q . && echo '+dirty' || true)
cat > "$manifest" <<EOF
{
  "tool": "bench_snapshot.sh",
  "date": "$(date -u +%Y-%m-%dT%H:%M:%SZ)",
  "go_version": "$(go env GOVERSION)",
  "git_revision": "$rev$dirty",
  "gomaxprocs": ${GOMAXPROCS:-$(nproc)},
  "snapshot": "$out"
}
EOF

echo "wrote $out and $manifest, appended to $hist:"
cat "$out"
