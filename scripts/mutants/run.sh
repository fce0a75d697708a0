#!/usr/bin/env bash
# make mutants: applies each mutant (one patch per claim, in this directory:
# the commit protocol, Algorithm 1's decisions, the copy's row and index
# restore) to a temporary copy of the working tree, runs the check its
# "# check:" line names (a package, then a -run pattern), and prints a kill
# table and the run's wall time. A mutant the check does not fail, a patch
# that does not build, or a run longer than budget seconds fails the run.
set -euo pipefail
cd "$(dirname "$0")/../.."
root=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
survived=0
budget=900
began=$(date +%s)
printf '%-34s %-8s %6s  %s\n' mutant result secs claim
for patch in scripts/mutants/*.patch; do
	name=$(basename "$patch" .patch)
	claim=$(sed -n 's/^# claim: //p' "$patch")
	read -r pkg check < <(sed -n 's/^# check: //p' "$patch")
	rm -rf "$tmp/src" && mkdir "$tmp/src"
	git ls-files -z --cached --others --exclude-standard | tar --null -T - -cf - | tar -xf - -C "$tmp/src"
	(cd "$tmp/src" && git apply "$root/$patch")
	start=$(date +%s)
	if (cd "$tmp/src" && go test -count=1 -run "$check" "$pkg" >"$tmp/log" 2>&1); then
		result=SURVIVED
		survived=$((survived + 1))
	elif grep -q -- '--- FAIL' "$tmp/log"; then
		result=killed
	else
		# It did not build: a broken patch kills nothing.
		result=BROKEN
		survived=$((survived + 1))
	fi
	printf '%-34s %-8s %6s  %s\n' "$name" "$result" "$(($(date +%s) - start))" "$claim"
done
took=$(($(date +%s) - began))
echo "mutants: ${took}s of a ${budget}s budget"
if [ "$took" -gt "$budget" ]; then
	echo "mutants: over budget"
	exit 1
fi
if [ "$survived" -gt 0 ]; then
	echo "mutants: $survived survived or did not build"
	exit 1
fi
echo "mutants: all killed"
