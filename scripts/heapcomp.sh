#!/usr/bin/env bash
# make heap-comp: where the live heap is at the point where bench/ reads
# resident_mb — after set-up, warm-up, runtime.GC() and debug.FreeOSMemory(),
# before the window. Builds a scratch copy of bench/ in a temp dir with a heap
# profile and runtime.MemStats written at that point (MemProfileRate 4096;
# nothing under bench/ changes), runs one workload for one second and prints
# the heap in use, the live heap and their difference — span waste: in-use
# spans' bytes no live object fills — then MB of inuse_space per allocation
# site. To compare commits, run the copy of this script in each checkout.
#
#   bash scripts/heapcomp.sh [workload] [seed]     (default: tpcw_tenants 1)
set -euo pipefail
cd "$(dirname "$0")/.."
workload=${1:-tpcw_tenants} seed=${2:-1}
root=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cp bench/*.go bench/go.mod "$tmp"/
rm -f "$tmp"/*_test.go
(cd "$tmp" && go mod edit -replace sdp="$root")
sed -i 's|^\tresident, err := procStatusMB("VmRSS")|\t{\n\t\tvar ms runtime.MemStats\n\t\truntime.ReadMemStats(\&ms)\n\t\t_ = os.WriteFile(os.Getenv("HEAP_OUT")+".ms", []byte(fmt.Sprintln(ms.HeapInuse, ms.HeapAlloc)), 0o644)\n\t}\n\tif f, ferr := os.Create(os.Getenv("HEAP_OUT")); ferr == nil {\n\t\t_ = pprof.WriteHeapProfile(f)\n\t\t_ = f.Close()\n\t}\n&|' "$tmp"/run.go
sed -i 's|^\t"runtime/debug"|&\n\t"runtime/pprof"|' "$tmp"/run.go
sed -i 's|^func main() {|func init() { runtime.MemProfileRate = 4096 }\n\n&|; s|^import (|&\n\t"runtime"|' "$tmp"/main.go
grep -q 'pprof.WriteHeapProfile' "$tmp"/run.go || { echo "heapcomp: bench/run.go no longer reads VmRSS where this script expects it" >&2; exit 1; }
(cd "$tmp" && GOFLAGS=-mod=mod go build -o hb . && HEAP_OUT="$tmp/heap.pb.gz" ./hb --workload "$workload" --seconds 1 --seed "$seed" >"$tmp/run.json")

# mb <focus regexp> [<ignore regexp>]: MB live under the matching frames.
mb() {
	go tool pprof -sample_index=inuse_space -unit=mb -top -nodecount=0 ${1:+-focus="$1"} ${2:+-ignore="$2"} "$tmp/hb" "$tmp/heap.pb.gz" 2>/dev/null |
		sed -n 's/^Showing nodes accounting for \([0-9.]*\)MB.*/\1/p; s/^Showing nodes accounting for 0,.*/0/p'
}
# line <function regexp> <source regexp>: MB live under the matching source
# lines of the matching functions (map inserts have no function of their own).
line() {
	go tool pprof -sample_index=inuse_space -unit=mb -list="$1" "$tmp/hb" "$tmp/heap.pb.gz" 2>/dev/null |
		awk -v pat="$2" '$3 ~ /^[0-9]+:$/ && $0 ~ pat { sub(/MB$/, "", $2); if ($2 != ".") s += $2 } END { printf "%.2f\n", s }'
}
row() { printf '%-58s %8s\n' "$1" "$2"; }
# memstat <awk expression over $1 = HeapInuse, $2 = HeapAlloc>: MB.
memstat() { awk "{ printf \"%.1f\", ($1) / 1048576 }" "$tmp/heap.pb.gz.ms"; }

storage='insertRowPhysical|updateRowPhysical|buildPending|RestoreTable'
echo "heap at the resident_mb point, MB: $workload, seed $seed"
row 'heap in use (MemStats.HeapInuse)' "$(memstat '$1')"
row 'live heap (MemStats.HeapAlloc)' "$(memstat '$2')"
row 'span waste (HeapInuse - HeapAlloc)' "$(memstat '$1 - $2')"
echo "live heap by allocation site:"
row 'sqldb.Parse (ASTs and the texts'"'"' literals)' "$(mb 'sqldb\.Parse$')"
row 'bindStatement (bound plans)' "$(mb bindStatement)"
row 'tenant data (rows, pages, indexes)' "$(mb "$storage|residentPage|sealedPage|encodeRowString|DecodeRow")"
row '  orderedKeys (sorted views of index keys)' "$(mb 'orderedKeys|deriveKeys')"
row '  loc (row directory: rowID -> page slot)' "$(mb 'sqldb\.\(\*Table\)\.setLoc$')"
row '  pk (primary key -> rowID)' "$(line "$storage" 't\.pk\[.*\] = ')"
row '  secondary indexes (key -> rowIDs)' "$(line 'sqldb\.\(\*index\)\.add' 'ix\.m\[key\] = ')"
row '  key strings' "$(mb 'keyOf|pkKey' 'orderedKeys|deriveKeys')"
row '  rows' "$(mb 'encodeRowString|Row\.Clone|DecodeRow|materialise')"
row '    decoded rows kept (sqldb Row.Clone, materialise)' "$(mb 'sqldb\.Row\.Clone|sqldb\.\(\*residentPage\)\.materialise')"
row '  page images and slot directories' "$(mb 'residentPage\)\.(encode|own)|sealedPage\)\.store|sealTail')"
row 'wal.MemStore (the in-memory log device)' "$(mb MemStore)"
row 'obs.New* (span ring, tracer)' "$(mb 'obs\.New')"
row 'total live heap' "$(mb '')"
row 'resident_mb of the same run' "$(awk '$2 == "resident_mb" { printf "%.1f", $3 }' "$tmp/run.json")"
