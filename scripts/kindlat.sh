#!/usr/bin/env bash
# make kind-lat: latency per TPC-W transaction kind in the measured window,
# and that window's CPU profile. Builds a scratch copy of bench/ in a temp dir
# (nothing under bench/ changes) that notes the kind and latency of every
# operation the window counts and profiles the CPU from the window's start to
# its end, runs one workload, and prints each kind's share of the committed
# transactions with its p50, p90 and p99 over the whole window (not the best
# quartile of slices bench/ reports), then the profile's share of a few hot
# spots and its top functions. The profile is kept for `go tool pprof`. To
# compare commits, run the copy of this script in each checkout.
#
#   bash scripts/kindlat.sh [workload] [seed] [seconds] [profile]
#   (default: tpcw_tenants 1 10 kindlat-<workload>-<seed>.pprof)
set -euo pipefail
cd "$(dirname "$0")/.."
workload=${1:-tpcw_tenants} seed=${2:-1} seconds=${3:-10}
prof=$(realpath -m "${4:-kindlat-$workload-$seed.pprof}")
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
	"runtime/pprof"
	"slices"
	"sync"
	"time"

	"sdp/internal/tpcw"
)

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
	KIND_PROF="$prof" KIND_OUT="$tmp/kinds.txt" ./kb --workload "$workload" --seconds "$seconds" --seed "$seed" >"$tmp/run.json")

# share <focus regexp>: percent of the window's CPU samples with a matching
# frame on the stack.
share() {
	go tool pprof -top -nodecount=0 -nodefraction=0 -focus="$1" "$prof" 2>/dev/null |
		sed -n 's/^Showing nodes accounting for [^,]*, \([0-9.]*%\) of .*/\1/p; s/^Showing nodes accounting for 0, 0% of .*/0%/p'
}
row() { printf '%-58s %8s\n' "$1" "$2"; }

echo "latency by transaction kind in the measured window: $workload, seed $seed, ${seconds}s"
cat "$tmp/kinds.txt"
echo "CPU of the window, share of samples under:"
row 'LIKE (sqldb likeMatch, likeRec, equalFoldByte)' "$(share 'sqldb\.(likeMatch|likeRec|equalFoldByte)$')"
row 'redo records (sqldb Engine.walStmt)' "$(share 'sqldb\.\(\*Engine\)\.walStmt$')"
row 'log appends (wal Log.Append)' "$(share 'wal\.\(\*Log\)\.Append$')"
row 'garbage collection (runtime gcBgMarkWorker)' "$(share 'runtime\.gcBgMarkWorker$')"
echo "top functions by own CPU:"
go tool pprof -top -nodecount=15 "$prof" 2>/dev/null | sed -n '/^ *flat /,$p'
awk '$2 ~ /^(txn_per_s|lat_p50_us|lat_p90_us)$/ { printf "bench %s %s\n", $2, $3 }' "$tmp/run.json"
echo "profile: $prof"
