#!/bin/sh
# bench-e2e.sh appends one record of the end-to-end benchmark to a JSON
# trajectory file (default BENCH_e2e.json): the commit, the median over
# seeds 1-3 of each workload's eight end-to-end metrics, and the per-layer
# counters of one -trace run per workload. The counts that do not depend
# on the host (bytes and ratios) are repeated under "counts": only those
# compare across machines; the timings compare only on one machine.
#
# It only runs `go run ./benchmark` and reads the JSON result line each
# run prints last. Run it from the repository root:
#
#	scripts/bench-e2e.sh [trajectory.json]
set -eu

out=${1:-BENCH_e2e.json}
GO=${GO:-go}
workloads="serve-read trust-churn ingest-recover cluster-scan"
seeds="1 2 3"
counts='["disk_bytes_per_write","wal.bytes_per_write","snapshot.bytes_per_object","engine.dedup_ratio","store.incremental_ratio","engine.resolve_bytes_per_op"]'

command -v jq >/dev/null || { echo "bench-e2e: jq is required" >&2; exit 1; }
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# run WORKLOAD SEED NAME [ARGS...] keeps the result line of one run.
run() {
	w=$1 s=$2 name=$3
	shift 3
	echo "bench-e2e: $w seed $s $*" >&2
	if ! "$GO" run ./benchmark -workload "$w" -seed "$s" "$@" >"$tmp/$name.log"; then
		tail -n 20 "$tmp/$name.log" >&2
		echo "bench-e2e: $w seed $s failed" >&2
		exit 1
	fi
	tail -n 1 "$tmp/$name.log" >"$tmp/$name.json"
}

for w in $workloads; do
	for s in $seeds; do
		run "$w" "$s" "$w-$s"
	done
	run "$w" 1 "$w-trace" -trace
	jq -s --arg w "$w" --argjson counts "$counts" '
		def median: sort | if length % 2 == 1 then .[length / 2 | floor]
			else (.[length / 2 - 1] + .[length / 2]) / 2 end;
		(.[:-1]) as $runs | .[-1] as $trace |
		($runs[0].metrics | keys | map({(.): ([$runs[].metrics[.].value] | median)}) | add) as $median |
		($trace.metrics | with_entries(select(.key | contains("."))) | map_values(.value)) as $layers |
		{($w): {
			failed: ([$runs[].failed] | add),
			median: $median,
			trace: $layers,
			counts: ($counts | map(. as $k | ($median[$k] // $layers[$k]) | select(. != null) | {($k): .}) | add)
		}}' "$tmp/$w-1.json" "$tmp/$w-2.json" "$tmp/$w-3.json" "$tmp/$w-trace.json" >"$tmp/$w.record"
done

commit=$(git rev-parse --short HEAD)
if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
	commit="$commit+dirty"
fi
meta=$(grep -m 1 '^meta ' "$tmp/trust-churn-1.log" || true)
record=$(jq -s --arg commit "$commit" --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" --arg meta "$meta" \
	'{commit: $commit, date: $date, host: $meta, seeds: [1, 2, 3], workloads: add}' "$tmp"/*.record)
if [ -s "$out" ]; then
	jq --argjson r "$record" '. + [$r]' "$out" >"$tmp/out.json"
else
	jq -n --argjson r "$record" '[$r]' >"$tmp/out.json"
fi
mv "$tmp/out.json" "$out"
echo "bench-e2e: appended $commit to $out" >&2
