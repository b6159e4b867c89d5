#!/usr/bin/env bash
# A/B comparison of the benchmark between a parent revision and the
# working tree:
#
#   bash scripts/bench_ab.sh <parent-rev> [pairs] [seconds] [workload...]
#
# The parent is checked out as a git worktree under .bench_build/ab/ and
# removed again on exit. For each workload (default: every workload in
# BENCHMARK.json) the script runs `pairs` pairs (default 10) of
# `seconds`-second untraced runs (default 20). Both runs of a pair use
# the same fresh seed, each side builds and runs its own
# `bash perfbench/run.sh`, and the side that runs first alternates from
# pair to pair. AB_SEED sets the first seed; by default it comes from
# the clock, so every invocation measures seeds of its own.
#
# For every end-to-end metric of BENCHMARK.json the report prints one
# row starting with "verdict": each side's median and quartiles, the
# change of the medians, the pairs the change won (in the metric's
# "better" direction) and "ok" or "WORSE" against the metric's "bound".
# Above it, one "run" row per run gives its seed, `correct` and
# `failed`. Raw run outputs stay under .bench_build/ab/runs/.
set -euo pipefail

if [ $# -lt 1 ]; then
	echo "usage: $0 <parent-rev> [pairs] [seconds] [workload...]" >&2
	exit 2
fi
root=$(git rev-parse --show-toplevel)
cd "$root"
parent=$(git rev-parse --verify --quiet "$1^{commit}") || { echo "bench_ab: unknown revision $1" >&2; exit 2; }
pairs=${2:-10}
seconds=${3:-20}
shift $(($# < 3 ? $# : 3))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	read -r -a workloads <<<"$(awk -F'"' '/"workloads"/ { on = 1; next }
		on && /^[[:space:]]*\]/ { exit }
		on && $2 == "name" { printf "%s ", $4 }' BENCHMARK.json)"
fi

ab=.bench_build/ab
wt=$ab/parent
runs=$ab/runs/$(date +%Y%m%d-%H%M%S)
mkdir -p "$runs"
cleanup() {
	git worktree remove --force "$wt" >/dev/null 2>&1 || rm -rf "$wt"
	git worktree prune
}
trap cleanup EXIT
cleanup
git worktree add --quiet --detach "$wt" "$parent"
if [ ! -f "$wt/perfbench/run.sh" ]; then
	echo "bench_ab: $1 has no perfbench/run.sh" >&2
	exit 1
fi

seed=${AB_SEED:-$(($(date +%s) % 900000 + 100000))}
echo "parent $(git rev-parse --short "$parent") vs working tree: ${#workloads[@]} workload(s), $pairs pair(s) of ${seconds}s runs, first seed $seed"
for w in "${workloads[@]}"; do
	for ((i = 0; i < pairs; i++, seed++)); do
		sides=(parent change)
		if ((i % 2 == 1)); then
			sides=(change parent)
		fi
		for side in "${sides[@]}"; do
			dir=$root
			if [ "$side" = parent ]; then
				dir=$root/$wt
			fi
			out=$runs/${w}_${i}_${side}.out
			echo "$seed" >"$out.seed"
			if ! (cd "$dir" && bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0) >"$out" 2>&1; then
				echo "bench_ab: the $side run of $w (seed $seed) failed; see $out" >&2
				tail -5 "$out" >&2
				exit 1
			fi
		done
	done
done

# One row per metric value: workload pair side name value.
for f in "$runs"/*.out; do
	IFS=_ read -r w i side <<<"$(basename "$f" .out)"
	awk -v w="$w" -v i="$i" -v side="$side" -v seed="$(cat "$f.seed")" '
		/^metric / { print "m", w, i, side, $2, $3 }
		/^\{/ {
			correct = $0; sub(/.*"correct":/, "", correct); sub(/[,}].*/, "", correct)
			failed = $0; sub(/.*"failed":/, "", failed); sub(/[,}].*/, "", failed)
			print "r", w, i, side, seed, correct, failed
		}' "$f"
done >"$runs/values.txt"

# The end-to-end metrics: name better bound.
awk '/"end_to_end"/ { on = 1; next }
	on && /^[[:space:]]*\]/ { exit }
	on {
		name = $0; sub(/.*"name": *"/, "", name); sub(/".*/, "", name)
		better = $0; sub(/.*"better": *"/, "", better); sub(/".*/, "", better)
		bound = $0; sub(/.*"bound": */, "", bound); sub(/[,} ].*/, "", bound)
		print "e", name, better, bound
	}' BENCHMARK.json >"$runs/metrics.txt"

awk -v pairs="$pairs" -v list="${workloads[*]}" '
	function quantile(a, n, p,   h, lo) {
		h = (n - 1) * p
		lo = int(h)
		return lo + 1 < n ? a[lo] + (h - lo) * (a[lo + 1] - a[lo]) : a[lo]
	}
	# stats fills med, q1 and q3 from the values of one workload, metric
	# and side.
	function stats(w, m, side,   i, j, n, v, a) {
		n = 0
		for (i = 0; i < pairs; i++) {
			if ((w SUBSEP m SUBSEP side SUBSEP i) in val) {
				v = val[w, m, side, i]
				for (j = n; j > 0 && a[j - 1] > v; j--) {
					a[j] = a[j - 1]
				}
				a[j] = v
				n++
			}
		}
		if (n == 0) {
			return 0
		}
		med = quantile(a, n, 0.5); q1 = quantile(a, n, 0.25); q3 = quantile(a, n, 0.75)
		return n
	}
	$1 == "e" { nm++; name[nm] = $2; better[$2] = $3; bound[$2] = $4 }
	$1 == "m" { val[$2, $5, $4, $3] = $6 }
	$1 == "r" { printf "run %s pair %d %s seed %s correct %s failed %s\n", $2, $3, $4, $5, $6, $7 }
	END {
		printf "%-7s %-14s %-18s %-6s %-34s %-34s %8s %5s %s\n", "", "workload", "metric", "better", "parent median [q1, q3]", "change median [q1, q3]", "change", "wins", "verdict (bound)"
		nw = split(list, ws, " ")
		for (k = 1; k <= nw; k++) {
			w = ws[k]
			for (x = 1; x <= nm; x++) {
				m = name[x]
				if (!stats(w, m, "parent")) {
					printf "verdict %-14s %-18s missing from the parent runs\n", w, m
					continue
				}
				pm = med; pq = sprintf("%.6g [%.6g, %.6g]", med, q1, q3)
				if (!stats(w, m, "change")) {
					printf "verdict %-14s %-18s missing from the change runs\n", w, m
					continue
				}
				cm = med; cq = sprintf("%.6g [%.6g, %.6g]", med, q1, q3)
				wins = 0; n = 0
				for (i = 0; i < pairs; i++) {
					if (!((w SUBSEP m SUBSEP "parent" SUBSEP i) in val) || !((w SUBSEP m SUBSEP "change" SUBSEP i) in val)) {
						continue
					}
					n++
					p = val[w, m, "parent", i]; c = val[w, m, "change", i]
					if ((better[m] == "higher" && c > p) || (better[m] == "lower" && c < p)) {
						wins++
					}
				}
				rel = pm != 0 ? (cm - pm) / pm : 0
				worse = better[m] == "higher" ? -rel : rel
				verdict = worse > bound[m] + 0 ? "WORSE" : "ok"
				printf "verdict %-14s %-18s %-6s %-34s %-34s %+7.1f%% %2d/%-2d %s (%s)\n", w, m, better[m], pq, cq, 100 * rel, wins, n, verdict, bound[m]
			}
		}
	}' "$runs/metrics.txt" "$runs/values.txt"
echo "raw runs: $runs"
