#!/usr/bin/env bash
# Paired A/B benchmark of the working tree against a git revision:
#
#   scripts/ab.sh REV [-n N] -- <perfbench args>
#   scripts/ab.sh HEAD -n 10 -- --workload farm --seed 1 --seconds 25
#
# Run it from the repository root. REV is checked out with `git worktree`
# under .bench_build/ and removed on exit. Both trees' perfbench binaries are
# built in the environment perfbench/run.sh sets. N pairs (default 10) run
# one after the other, the parent first in odd pairs and the change first in
# even ones. `mkpbench -abreport` then prints, per end-to-end metric of
# BENCHMARK.json, each side's median and quartiles, the change/parent median
# ratio, the change's wins and a Mann-Whitney U p-value. The result files
# stay in .bench_build/ab/.
set -euo pipefail

usage() {
	echo "usage: scripts/ab.sh REV [-n N] -- <perfbench args>" >&2
	exit 2
}
[ $# -ge 1 ] || usage
rev=$1
shift
pairs=10
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
	case $1 in
	-n)
		[ $# -ge 2 ] || usage
		pairs=$2
		shift 2
		;;
	*) usage ;;
	esac
done
[ "${1:-}" = "--" ] || usage
shift
case $pairs in
'' | *[!0-9]* | 0) usage ;;
esac

root=$(pwd)
out="$root/.bench_build"
ab="$out/ab"
tree="$ab/parent-tree"
mkdir -p "$out/gocache" "$out/tmp" "$out/home" "$ab"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOPATH="$out/gopath" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

cleanup() {
	git -C "$root" worktree remove --force "$tree" 2>/dev/null || rm -rf "$tree"
	git -C "$root" worktree prune
}
trap cleanup EXIT
cleanup
git -C "$root" worktree add --detach --quiet "$tree" "$rev"

go build -C "$tree/perfbench" -o "$ab/parent.perfbench" .
go build -C "$root/perfbench" -o "$ab/change.perfbench" .
go build -C "$root" -o "$ab/mkpbench" ./cmd/mkpbench

run() {
	local side=$1
	shift
	"$ab/$side.perfbench" --data "$ab/$side-data" --out "$ab/$side-trace" "$@" >>"$ab/$side.jsonl"
}
: >"$ab/parent.jsonl"
: >"$ab/change.jsonl"
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run parent "$@"
		run change "$@"
	else
		run change "$@"
		run parent "$@"
	fi
	echo "ab.sh: pair $i of $pairs done" >&2
done
"$ab/mkpbench" -abreport "$ab/parent.jsonl" "$ab/change.jsonl"
