#!/usr/bin/env bash
# loadgen_smoke.sh boots a throwaway nl2cmd daemon, drives a short
# repeated-question workload through cmd/loadgen, and asserts the
# serving layer held up: every request served (no errors), nonzero
# throughput, and a warm plan cache (>0% hit rate — on a repeated
# workload most requests after the first pass must be hits). Requires
# jq.
set -euo pipefail

cd "$(dirname "$0")/.."
addr=127.0.0.1:8098
workdir=$(mktemp -d)
daemon=
cleanup() {
  [ -n "$daemon" ] && kill "$daemon" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/nl2cmd" ./cmd/nl2cmd
go build -o "$workdir/loadgen" ./cmd/loadgen

"$workdir/nl2cmd" -addr "$addr" &
daemon=$!

"$workdir/loadgen" -addr "http://$addr" \
  -sessions "${SESSIONS:-32}" -requests "${REQUESTS:-800}" \
  -out "$workdir/record.json"

throughput=$(jq .throughput_rps "$workdir/record.json")
hitrate=$(jq .cache_hit_rate "$workdir/record.json")
errors=$(jq .errors "$workdir/record.json")

[ "$errors" -eq 0 ] || { echo "loadgen saw $errors errors" >&2; exit 1; }
jq -e '.throughput_rps > 0' "$workdir/record.json" >/dev/null || {
  echo "throughput $throughput not > 0" >&2
  exit 1
}
jq -e '.cache_hit_rate > 0' "$workdir/record.json" >/dev/null || {
  echo "cache hit rate $hitrate not > 0 on a repeated workload" >&2
  exit 1
}

echo "loadgen smoke OK: ${throughput%%.*} req/s, hit rate $hitrate"

# Second pass: interleave store writes with the traffic. Every write
# batch publishes a new epoch, so the run must show epoch churn, no
# failed mutations, and still zero translation errors. The churn batches
# touch only Churn_* triples, which no question reads, so the plan cache
# must keep serving: a cached plan stays valid until one of the ontology
# reads it rests on changes.
"$workdir/loadgen" -addr "http://$addr" \
  -sessions "${SESSIONS:-32}" -requests "${MUTATE_REQUESTS:-400}" \
  -mutate-rate "${MUTATE_RATE:-0.05}" \
  -out "$workdir/mutate.json"

jq -e '.errors == 0' "$workdir/mutate.json" >/dev/null || {
  echo "mutating run saw errors: $(jq .errors "$workdir/mutate.json")" >&2
  exit 1
}
jq -e '(.mutation_errors // 0) == 0' "$workdir/mutate.json" >/dev/null || {
  echo "store writes failed: $(jq .mutation_errors "$workdir/mutate.json")" >&2
  exit 1
}
jq -e '.mutations > 0 and .epoch_churn > 0' "$workdir/mutate.json" >/dev/null || {
  echo "no epoch churn recorded under -mutate-rate" >&2
  exit 1
}
jq -e '.cache_hit_rate >= 0.9' "$workdir/mutate.json" >/dev/null || {
  echo "hit rate $(jq .cache_hit_rate "$workdir/mutate.json") under writes no question reads, want >= 0.9" >&2
  exit 1
}

echo "mutate smoke OK: $(jq .mutations "$workdir/mutate.json") writes, \
$(jq .epoch_churn "$workdir/mutate.json") epochs, \
hit rate $(jq .cache_hit_rate "$workdir/mutate.json")"
