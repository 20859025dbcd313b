#!/usr/bin/env bash
# Runs the seeded benchmark (bench/) on two commits and compares them with its
# paired regression rule (bench/README.md, "Regression rule").
#
#   bash scripts/bench-compare.sh BASE [HEAD]
#
# BASE and HEAD are git revisions (HEAD defaults to HEAD). Each is exported
# with `git archive` into its own directory and builds its own benchmark, so
# the parent is measured by the parent's code. For every seed and workload
# the two sides run back to back on this machine, and which side goes first
# alternates by seed, so slow phases of the machine hit both sides alike.
# A committed baseline cannot stand in for BASE: --compare refuses records
# from a different CPU count, GOAMD64 level or FFT kernel.
#
# Environment:
#   BENCH_SEEDS      seeds per workload (default 3; a claimed gain needs 10)
#   BENCH_SECONDS    measured seconds per run (default 5)
#   BENCH_OUT        directory for the checkouts, records and logs
#                    (default .bench_compare)
#
# Exits with --compare's code: 0 when nothing regressed, 1 on a regression
# or a failed correctness check, 2 when the records cannot be compared.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
	echo "usage: bash scripts/bench-compare.sh BASE [HEAD]" >&2
	exit 2
fi
base_rev=$(git rev-parse --verify "$1^{commit}")
head_rev=$(git rev-parse --verify "${2:-HEAD}^{commit}")
seeds=${BENCH_SEEDS:-3}
seconds=${BENCH_SECONDS:-5}
out=${BENCH_OUT:-.bench_compare}

rm -rf "$out/base" "$out/head"
mkdir -p "$out/base" "$out/head"
out=$(cd "$out" && pwd)
git archive "$base_rev" | tar -x -C "$out/base"
git archive "$head_rev" | tar -x -C "$out/head"
rm -f "$out/base.ndjson" "$out/head.ndjson" "$out/runs.log"
echo "base $base_rev, head $head_rev: $seeds seeds x ${seconds}s per workload" | tee "$out/runs.log"

failed=0
run() { # side workload seed
	echo "== $1 $2 seed $3" >>"$out/runs.log"
	if ! bash "$out/$1/bench/run.sh" --workload "$2" --seed "$3" --seconds "$seconds" \
		--json "$out/$1.ndjson" >>"$out/runs.log" 2>&1; then
		echo "$1 $2 seed $3 failed; see $out/runs.log" >&2
		failed=1
	fi
}
for seed in $(seq 1 "$seeds"); do
	for w in lattice-deep chain-lattice chain-analytic sweep-grid serve-replay; do
		if [ $((seed % 2)) -eq 1 ]; then
			run base "$w" "$seed"
			run head "$w" "$seed"
		else
			run head "$w" "$seed"
			run base "$w" "$seed"
		fi
	done
done

status=0
bash "$out/head/bench/run.sh" --compare "$out/base.ndjson" "$out/head.ndjson" || status=$?
if [ "$status" -eq 0 ] && [ "$failed" -ne 0 ]; then
	status=1
fi
exit "$status"
