#!/usr/bin/env bash
# make kind-lat: latency per TPC-W transaction kind in the measured window,
# and that window's CPU profile. Builds a scratch copy of bench/ in a temp dir
# (nothing under bench/ changes) that notes the kind and latency of every
# operation the window counts and profiles the CPU from the window's start to
# its end, runs one workload, and prints each kind's share of the committed
# transactions with its p50, p90 and p99 over the whole window (not the best
# quartile of slices bench/ reports), then the profile's share of a few hot
# spots (order-status and every index read, lockCandidates, among them;
# replica_churn's copy too: the dump, which calls the restore on
# the target, the restore, and within it the rows and primary key, then the
# online index build after the dump, and the index lookups that build a
# pending index on the spot) and its top functions. It also records the window's mutex profile
# (one contention in mutexFraction sampled) and prints the share of the
# contention delay released by each of the engine's and controller's hot
# mutexes, and the window's allocation profile (an allocs snapshot at its
# start, after a GC, and one at its end, the first the -base of the second),
# whose top allocation sites it prints by bytes and by objects. The profiles
# are kept for `go tool pprof`. To compare commits, run the copy of this
# script in each checkout.
#
#   bash scripts/kindlat.sh [workload] [seed] [seconds] [profile]
#   (default: tpcw_tenants 1 10 kindlat-<workload>-<seed>.pprof; the mutex
#   profile is written next to it as <profile>.mutex, the allocation
#   snapshots as <profile>.allocs.base and <profile>.allocs)
set -euo pipefail
cd "$(dirname "$0")/.."
workload=${1:-tpcw_tenants} seed=${2:-1} seconds=${3:-10}
prof=$(realpath -m "${4:-kindlat-$workload-$seed.pprof}")
mprof=$prof.mutex
abase=$prof.allocs.base aprof=$prof.allocs
case $workload in
tpcw_tenants | replica_churn) ;;
*) echo "kindlat: $workload runs no TPC-W transactions" >&2; exit 1 ;;
esac
root=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cp bench/*.go bench/go.mod "$tmp"/
rm -f "$tmp"/*_test.go
(cd "$tmp" && go mod edit -replace sdp="$root")
sed -i 's|^\(\s*\)t\.end = append(t\.end, int64(at))$|&\n\1noteKind(c, lat)|' "$tmp"/driver.go
sed -i 's|^\tt := measure(p\.clients, window, windowSlices, background)$|\tstartKindLat()\n&\n\tstopKindLat()|' "$tmp"/run.go
grep -q 'noteKind(c, lat)' "$tmp"/driver.go && grep -q 'stopKindLat()' "$tmp"/run.go ||
	{ echo "kindlat: bench/ no longer measures the window where this script expects it" >&2; exit 1; }
cat >"$tmp"/kindlat.go <<'EOF'
package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"time"

	"sdp/internal/tpcw"
)

// mutexFraction samples one mutex contention in this many.
const mutexFraction = 5

var kinds struct {
	sync.Mutex
	lat  map[tpcw.TxKind][]int64
	prof *os.File
}

func startKindLat() {
	kinds.lat = map[tpcw.TxKind][]int64{}
	f, err := os.Create(os.Getenv("KIND_PROF"))
	if err == nil {
		err = pprof.StartCPUProfile(f)
	}
	if err != nil {
		fatal(err)
	}
	kinds.prof = f
	runtime.SetMutexProfileFraction(mutexFraction)
	allocsSnapshot(os.Getenv("KIND_ALLOCS_BASE"))
}

// allocsSnapshot writes the allocs profile to path after a GC, which the
// profile's counts are current as of.
func allocsSnapshot(path string) {
	runtime.GC()
	f, err := os.Create(path)
	if err == nil {
		err = pprof.Lookup("allocs").WriteTo(f, 0)
		f.Close()
	}
	if err != nil {
		fatal(err)
	}
}

func noteKind(c client, lat time.Duration) {
	if tc, ok := c.(*tpcwClient); ok {
		kinds.Lock()
		kinds.lat[tc.kind] = append(kinds.lat[tc.kind], int64(lat))
		kinds.Unlock()
	}
}

func stopKindLat() {
	pprof.StopCPUProfile()
	kinds.prof.Close()
	allocsSnapshot(os.Getenv("KIND_ALLOCS"))
	m, err := os.Create(os.Getenv("KIND_MUTEX"))
	if err == nil {
		err = pprof.Lookup("mutex").WriteTo(m, 0)
		m.Close()
	}
	if err != nil {
		fatal(err)
	}
	runtime.SetMutexProfileFraction(0)
	out, err := os.Create(os.Getenv("KIND_OUT"))
	if err != nil {
		fatal(err)
	}
	defer out.Close()
	total := 0
	for _, l := range kinds.lat {
		total += len(l)
	}
	fmt.Fprintf(out, "%-16s %7s %9s %9s %9s\n", "kind", "share", "p50 us", "p90 us", "p99 us")
	for k := tpcw.TxKind(0); k.String() != "unknown"; k++ {
		l := kinds.lat[k]
		if len(l) == 0 {
			continue
		}
		slices.Sort(l)
		q := func(p float64) float64 { return float64(l[int(p*float64(len(l)))]) / 1e3 }
		fmt.Fprintf(out, "%-16s %6.1f%% %9.1f %9.1f %9.1f\n", k, 100*float64(len(l))/float64(total), q(0.5), q(0.9), q(0.99))
	}
}
EOF
(cd "$tmp" && GOFLAGS=-mod=mod go build -o kb . &&
	KIND_PROF="$prof" KIND_MUTEX="$mprof" KIND_ALLOCS_BASE="$abase" KIND_ALLOCS="$aprof" KIND_OUT="$tmp/kinds.txt" ./kb --workload "$workload" --seconds "$seconds" --seed "$seed" >"$tmp/run.json")

# share <focus regexp> [<ignore regexp>]: percent of the window's CPU samples
# with a matching frame on the stack (and, given the second, none matching it).
share() {
	go tool pprof -top -nodecount=0 -nodefraction=0 -focus="$1" ${2:+-ignore="$2"} "$prof" 2>/dev/null |
		sed -n 's/^Showing nodes accounting for [^,]*, \([0-9.]*%\) of .*/\1/p; s/^Showing nodes accounting for 0, 0% of .*/0%/p'
}
row() { printf '%-58s %8s\n' "$1" "$2"; }

echo "latency by transaction kind in the measured window: $workload, seed $seed, ${seconds}s"
cat "$tmp/kinds.txt"
echo "CPU of the window, share of samples under:"
row 'order-status transactions (tpcw Workload.txOrderStatus)' "$(share 'tpcw\.\(\*Workload\)\.txOrderStatus$')"
row 'index reads (sqldb tableRead.lockCandidates)' "$(share 'sqldb\.\(\*tableRead\)\.lockCandidates$')"
row 'index reads: fetch and decode (sqldb Table.getRowsBatch)' "$(share 'sqldb\.\(\*Table\)\.getRowsBatch$')"
row 'SELECT output stage (sqldb output.emit)' "$(share 'sqldb\.\(\*output\)\.emit$')"
row 'allocation (runtime mallocgc)' "$(share 'runtime\.mallocgc$')"
row 'LIKE (sqldb likeMatch, likeRec, equalFoldByte)' "$(share 'sqldb\.(likeMatch|likeRec|equalFoldByte)$')"
row 'redo records (sqldb Engine.walStmt)' "$(share 'sqldb\.\(\*Engine\)\.walStmt$')"
row 'log appends (wal Log.Append)' "$(share 'wal\.\(\*Log\)\.Append$')"
row 'replica copy dump, restore excluded (sqldb Engine.DumpTables)' "$(share 'sqldb\.\(\*Engine\)\.DumpTables$' 'sqldb\.\(\*Engine\)\.RestoreTable$')"
row 'replica copy restore (sqldb Engine.RestoreTable)' "$(share 'sqldb\.\(\*Engine\)\.RestoreTable$')"
row 'restore: rows and primary key (sqldb Table.load)' "$(share 'sqldb\.\(\*Table\)\.load$')"
row 'online index build, after the dump (sqldb Engine.BuildIndexes)' "$(share 'sqldb\.\(\*Engine\)\.BuildIndexes$')"
row 'the one index build, CREATE INDEX and copy (sqldb Table.buildPending)' "$(share 'sqldb\.\(\*Table\)\.buildPending$')"
row 'garbage collection (runtime gcBgMarkWorker)' "$(share 'runtime\.gcBgMarkWorker$')"
# released [<frame regexp>]: percent of the window's mutex contention delay
# whose releasing call (the frame that called Unlock) matches; with no
# argument, the delay itself in ms (the profile scales its samples up),
# runtime-internal locks included.
released() {
	go tool pprof -traces -unit=ns "$tmp/kb" "$mprof" 2>/dev/null | PAT=${1:-} awk '
		$1 ~ /^[0-9.]+ns$/ { d = $1 + 0; total += d; top = $2 ~ /^sync\.\(\*(RW)?Mutex\)\.R?Unlock$/; next }
		top { if (ENVIRON["PAT"] != "" && $1 ~ ENVIRON["PAT"]) s += d; top = 0 }
		END { if (ENVIRON["PAT"] == "") printf "%.1f ms\n", total / 1e6; else printf "%.1f%%\n", total ? 100 * s / total : 0 }'
}
echo "mutex contention delay of the window, one contention in $(sed -n 's/^const mutexFraction = //p' "$tmp"/kindlat.go) sampled:"
row 'total' "$(released)"
echo "share released by:"
row 'lock manager (sqldb lockManager: lm.mu)' "$(released 'sqldb\.\(\*lockManager\)\.')"
row 'table latch (sqldb Table methods: Table.mu)' "$(released 'sqldb\.\(\*Table\)\.')"
row 'pool stripes (sqldb BufferPool methods: stripe mu)' "$(released 'sqldb\.\(\*BufferPool\)\.')"
row 'controller (core Cluster methods: Cluster.mu)' "$(released 'core\.\(\*Cluster\)\.')"
# allocs <sample index>: the window's top allocation sites by it.
allocs() {
	go tool pprof -top -nodecount=10 -sample_index="$1" -base="$abase" "$aprof" 2>/dev/null | sed -n '/^ *flat /,$p'
}
echo "allocation sites of the window by bytes (the runtime samples one allocation per 512 KB):"
allocs alloc_space
echo "allocation sites of the window by objects:"
allocs alloc_objects
echo "top functions by own CPU:"
go tool pprof -top -nodecount=15 "$prof" 2>/dev/null | sed -n '/^ *flat /,$p'
awk '$2 ~ /^(txn_per_s|lat_p50_us|lat_p90_us)$/ { printf "bench %s %s\n", $2, $3 }' "$tmp/run.json"
echo "profiles: $prof $mprof $abase $aprof"
