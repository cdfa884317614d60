#!/bin/sh
# Same-code check of the transient hot path with and without metrics.
#
#   tools/perf_smoke_same_code.sh BENCH_WITH_METRICS BENCH_NOMETRICS
#
# Counter folds happen once per run, never per step, so the stepping loop and
# the dense solve must compile to the same instructions with the metrics layer
# in and compiled out (-DIVORY_NO_METRICS). Disassembles both (and their cold
# clones) from the two builds of bench_transient_hotpath, masks addresses, RIP
# displacements and `+0x` offsets but keeps call targets' names, and fails on
# any line that differs: unlike perf_smoke_metrics.sh, no host load moves it.
set -eu

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
objdump -d -C --no-show-raw-insn "$1" > "$workdir/on.dis"
objdump -d -C --no-show-raw-insn "$2" > "$workdir/off.dis"

# The masked listing of function "$1" in disassembly "$2".
listing() {
  awk -v f="$1" '/^[0-9a-f]+ <.*>:$/ {
      name = substr($0, index($0, "<") + 1); name = substr(name, 1, length(name) - 2)
      keep = name == f || index(name, f " [clone ") == 1
    }
    keep && /^$/ { keep = 0 }
    keep' "$2" |
    sed -E -e 's/^ *[0-9a-f]+:[[:space:]]*//' -e 's/^[0-9a-f]+ <(.*)>:$/<\1>:/' \
           -e 's/[0-9a-f]+ <(.*)>$/<\1>/' -e 's/\+0x[0-9a-f]+>$/+OFF>/' \
           -e 's/-?0x[0-9a-f]+\(%rip\)/DISP(%rip)/g'
}

for f in 'ivory::spice::(anonymous namespace)::run_transient(ivory::spice::Circuit const&, ivory::spice::TranSpec const&)' \
         'ivory::LuFactorization<double>::solve_into(std::vector<double, std::allocator<double> > const&, std::vector<double, std::allocator<double> >&) const'; do
  listing "$f" "$workdir/on.dis" > "$workdir/on.txt"
  listing "$f" "$workdir/off.dis" > "$workdir/off.txt"
  if [ ! -s "$workdir/on.txt" ] || [ ! -s "$workdir/off.txt" ]; then
    echo "perf_smoke_same_code: FAIL — $f is missing from a binary" >&2
    exit 1
  fi
  if ! diff "$workdir/on.txt" "$workdir/off.txt" >&2; then
    echo "perf_smoke_same_code: FAIL — $f differs with metrics compiled out" >&2
    exit 1
  fi
  echo "perf_smoke_same_code: $f: $(wc -l < "$workdir/on.txt") lines, identical"
done
echo "perf_smoke_same_code: OK"
