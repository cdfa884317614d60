#!/bin/sh
# Regenerates the golden batch, stream and CLI expectations from the current
# build.
#
#   tools/update_golden.sh [path/to/ivory]
#
# Run after an *intentional* model or formatting change, then review the
# golden diff like any other code change before committing it. The expected
# bytes are platform/toolchain-shaped (shortest-round-trip double
# formatting); CI compares against the binary it just built.
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
ivory="${1:-$repo/build/tools/ivory}"
golden="$repo/tests/golden"

if [ ! -x "$ivory" ]; then
  echo "update_golden: no ivory binary at $ivory (build first or pass a path)" >&2
  exit 1
fi

"$ivory" batch --threads 2 < "$golden/batch_smoke.ndjson" \
  > "$golden/batch_smoke.expected" 2>/dev/null

lines=$(wc -l < "$golden/batch_smoke.expected")
echo "update_golden: wrote $golden/batch_smoke.expected ($lines responses)"

# The streamed-frame transcript golden (server + `client --stream frames`).
"$repo/tools/stream_smoke.sh" --update "$ivory"

# The CLI transcript golden (stdout of every table-printing subcommand).
"$repo/tools/cli_smoke.sh" --update "$ivory"

echo "update_golden: review 'git diff tests/golden' before committing"
