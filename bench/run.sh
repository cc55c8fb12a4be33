#!/usr/bin/env bash
# One full set: the five workloads in their fixed order with one seed
# (default 1), each untraced and then traced, merged into
# bench/out/results.json. Exits non-zero as soon as a check fails.
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
out=bench/out
files=()
for w in admit-small admit-large wire-small durable-mixed lsrc-batch; do
	for trace in 0 1; do
		bash bench/bench.sh --workload "$w" --seed "$seed" --trace "$trace" --out "$out"
	done
	files+=("$out/$w.json" "$out/$w-trace.json")
done
{
	echo '['
	sep=
	for f in "${files[@]}"; do
		printf '%s' "$sep"
		cat "$f"
		sep=,
	done
	echo ']'
} >"$out/results.json"
echo "merged ${#files[@]} result files into $out/results.json"
