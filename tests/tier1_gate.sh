#!/bin/sh
# Tier-1 gate: run the whole suite with the interpreter command given as
# arguments, and pass only if no test errors and the failures are exactly
# the red-by-design ids in tests/red_by_design.txt (one that starts passing
# changes a pinned measurement, so it fails the gate too). The ten slowest
# tests are listed in every log.
#
#   PYTHONPATH=src sh tests/tier1_gate.sh python
#   PYTHONPATH=src sh tests/tier1_gate.sh env PATH=/dir/without/cc python
cd "$(dirname "$0")/.." || exit 1
work=$(mktemp -d) || exit 1
trap 'rm -rf "$work"' EXIT
sort tests/red_by_design.txt > "$work/expected.txt"
"$@" -m pytest -q --durations=10 --continue-on-collection-errors | tee "$work/tier1.txt"
if grep -q '^ERROR' "$work/tier1.txt"; then exit 1; fi
grep '^FAILED' "$work/tier1.txt" | cut -d' ' -f2 | sort > "$work/failed.txt"
diff "$work/expected.txt" "$work/failed.txt"
