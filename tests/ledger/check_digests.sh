#!/usr/bin/env bash
# Regenerate the deterministic outputs and hold them to their digests.
#
#   tests/ledger/check_digests.sh [examples] [figures]   (no argument: both)
#
# `examples` writes the stdout of the six example runs into an empty
# target/examples/ and checks it against tests/ledger/examples.sha256.
# `figures` writes every file of `nimbus-experiments all --quick` into an
# empty target/experiments/ and checks it against tests/ledger/figures.sha256.
# A check fails if any digest differs (`sha256sum -c --strict`) or if a file
# is missing from or extra to its manifest.  Every requested manifest is
# checked, each in its own run of this script, and the script then exits
# non-zero naming each one that failed.  FINGERPRINTS.md says how to re-pin
# a manifest when a change moves an output on purpose.
set -euo pipefail
root=$(cd "$(dirname "$0")/../.." && pwd)
cd "$root"

# check <output dir> <manifest>
check() {
  (cd "$1" && sha256sum -c --strict --quiet "$root/$2")
  diff <(awk '{print $2}' "$2" | sort) <(ls "$1" | sort)
}

examples() {
  rm -rf target/examples
  mkdir -p target/examples
  for ex in quickstart mode_switching multiflow_fairness embed_core; do
    cargo run --release -q --example "$ex" > "target/examples/$ex.txt"
  done
  for arg in elastic inelastic; do
    cargo run --release -q --example elasticity_probe -- "$arg" \
      > "target/examples/elasticity_probe_$arg.txt"
  done
  check target/examples tests/ledger/examples.sha256
}

figures() {
  rm -rf target/experiments
  cargo run --release -p nimbus-experiments -- all --quick --out target/experiments
  check target/experiments tests/ledger/figures.sha256
}

[ $# -gt 0 ] || set -- examples figures
for what in "$@"; do
  case "$what" in
    examples | figures) ;;
    *)
      echo "usage: $0 [examples] [figures]" >&2
      exit 2
      ;;
  esac
done
if [ $# -eq 1 ]; then
  "$1"
  exit
fi
failed=()
for what in "$@"; do
  bash "${BASH_SOURCE[0]}" "$what" || failed+=("$what")
done
if [ ${#failed[@]} -gt 0 ]; then
  echo "check_digests: ${failed[*]} failed" >&2
  exit 1
fi
