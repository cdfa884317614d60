#!/usr/bin/env bash
# Golden CLI transcript over the real `ivory` binary.
#
# Runs one valid invocation of every table-printing subcommand and byte-diffs
# their stdout against tests/golden/cli_smoke.expected. Each invocation is
# preceded by a `$ ivory ...` line and followed by its exit status, so a
# change to any table, number format or default shows up here. The funnel's
# wall-clock throughput (`N candidates/s`) is the only masked field.
#
# Usage: cli_smoke.sh [--update] /path/to/ivory
#
# --update rewrites the expected file from the given binary instead of
# diffing (invoked by tools/update_golden.sh; review the diff like any other
# code change).
set -u

UPDATE=0
if [ "${1:-}" = "--update" ]; then
  UPDATE=1
  shift
fi
IVORY="${1:?usage: cli_smoke.sh [--update] /path/to/ivory}"

repo="$(cd "$(dirname "$0")/.." && pwd)"
golden="$repo/tests/golden"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/ivory-cli-smoke-XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

# Relative netlist path so the transcript does not depend on the checkout.
cd "$repo" || exit 1

run() {
  echo "\$ ivory $*"
  "$IVORY" "$@" 2>/dev/null | sed -E 's/\([^ ]+ candidates\/s;/(<masked> candidates\/s;/'
  echo "[exit ${PIPESTATUS[0]}]"
}

{
  run sc --n 3 --m 1 --cfly 4u --gtot 15k --fsw 80meg --iload 20
  run sc --n 3 --m 1 --cfly 4u --gtot 15k --fsw 80meg --iload 20 --regulate 1.0
  run buck --l 5n --fsw 100meg --phases 4 --iload 10 --inductor smt
  run topology --n 3 --m 2
  run topology --n 4 --m 1 --family series-parallel
  run explore --power 20 --area 20
  run pareto --power 20 --area 20 --density 0.2 --simulate 0 --top-k 3
  run pds --dist 4
  run scenario --preset active-idle --topology dldo --delivery hybrid --duration 10u
  run dynamic --benchmark CFD --dist 4 --duration 20u
  run transient --netlist tests/golden/cli_smoke_rc.sp --tstop 1u --dt 10n \
    --method be --record mid,out
} >"$WORK/actual"

if [ "$UPDATE" = 1 ]; then
  cp "$WORK/actual" "$golden/cli_smoke.expected"
  lines=$(wc -l <"$golden/cli_smoke.expected")
  echo "cli_smoke: wrote $golden/cli_smoke.expected ($lines lines)"
  exit 0
fi

if ! cmp -s "$golden/cli_smoke.expected" "$WORK/actual"; then
  diff -u "$golden/cli_smoke.expected" "$WORK/actual" | head -40 >&2
  echo "FAIL: CLI transcript differs from tests/golden/cli_smoke.expected" >&2
  exit 1
fi
echo "PASS: CLI transcript matches golden ($(wc -l <"$WORK/actual") lines)"
