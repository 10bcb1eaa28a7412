#!/usr/bin/env bash
# A/A smoke test: run every workload twice at a short time box and put the
# pair of sets through `compare --same-code`.  Two runs of the same code must
# agree within the bounds in BENCHMARK.json on every timing and exactly on
# every heap count; anything else is a bug in the benchmark, not a finding.
#
#   benchmark/selfcheck.sh [seconds-per-run, default 5]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seconds="${1:-5}"
out="$here/out"
mkdir -p "$out"
rm -f "$out/selfcheck_a.jsonl" "$out/selfcheck_b.jsonl"
for workload in bulk_cubic fig1_nimbus fleet_churn core_embed; do
  for side in a b; do
    "$here/run.sh" --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 \
      --out "$out/selfcheck_$side.jsonl" | tail -n 1
  done
done
"$here/run.sh" compare "$out/selfcheck_a.jsonl" "$out/selfcheck_b.jsonl" \
  --bounds "$here/../BENCHMARK.json" --same-code
