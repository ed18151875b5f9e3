#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, passing perfbench's own flags, e.g.
#
#   bash perfbench/run.sh --workload search-hot --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 15 --trace 0
#
# Build products, the Go build cache and run outputs (results.jsonl,
# traces, ingest-mixed's data directories) stay under $CARGO_TARGET_DIR,
# or .bench_build when it is unset. Build output goes to standard error,
# so the last line of standard output is the benchmark's result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp TMPDIR=$out/gotmp
export GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
# Write the build's files out now, so their writeback does not compete
# with ingest-mixed's fsyncs in the first run after a build.
sync

if [ "${1:-}" = "--workload" ] && [ "${2:-}" = "all" ]; then
	shift 2
	status=0
	for w in search-hot search-batch ingest-mixed tune; do
		"$out/perfbench" --out "$out" --workload "$w" "$@" || status=1
	done
	exit $status
fi
exec "$out/perfbench" --out "$out" "$@"
