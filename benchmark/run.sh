#!/usr/bin/env bash
# The benchmark's single entry point: build the benchmark package (release,
# offline), then hand every argument to its binary.
#
#   benchmark/run.sh --workload fig1_nimbus --seed 1 --seconds 25 --trace 0 [--out runs.jsonl]
#   benchmark/run.sh --workload fig1_nimbus --seed 1 --seconds 25 --trace 1
#   benchmark/run.sh compare A.jsonl B.jsonl [--same-code]
#
# The build lands in $CARGO_TARGET_DIR when the caller sets it, in
# benchmark/target otherwise.  Build chatter goes to stderr: the last line of
# stdout is the run's one-line JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/nimbus-benchmark" "$@"
