#!/bin/sh
# Same-code check of the transient engine with and without metrics.
#
#   tools/perf_smoke_same_code.sh BENCH_WITH_METRICS BENCH_NOMETRICS
#
# Counter folds happen once per run (fold_run_metrics, after the stepping
# loop), never per step, so every function the loop can reach must compile to
# the same instructions with the metrics layer in and compiled out
# (-DIVORY_NO_METRICS). The rule: every function named ivory::sparse::*,
# ivory::LuFactorization<double>::* or ivory::spice::(anonymous namespace)::*,
# clones included, except fold_run_metrics, must exist in both builds of
# bench_transient_hotpath and disassemble identically once addresses, RIP
# displacements and `+0x` offsets are masked (call targets' names are kept).
# run_transient and LuFactorization<double>::solve_into must be among them.
# No host load moves this check, unlike a wall-clock A/B. Last, the
# compiled-out build runs its --smoke once, so its own self-checks run too.
set -eu
export LC_ALL=C

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

fail() {
  echo "perf_smoke_same_code: FAIL — $*" >&2
  exit 1
}

# The masked listings of the rule's functions in binary "$1": one
# "<mangled name> <instruction>" line per instruction, sorted by name. The
# rule reads mangled names, where a template's return type cannot get in the
# way of the prefix.
listings() {
  objdump -d --no-show-raw-insn "$1" |
    awk '/^[0-9a-f]+ <.*>:$/ {
        name = substr($0, index($0, "<") + 1); name = substr(name, 1, length(name) - 2)
        keep = name ~ /^_ZZ?NK?5ivory(6sparse|15LuFactorizationIdE|5spice12_GLOBAL__N_1)/ &&
               name !~ /fold_run_metrics/
        next
      }
      keep && /^$/ { keep = 0 }
      keep { print name " " $0 }' |
    sed -E -e 's/^([^ ]+) +[0-9a-f]+:[[:space:]]*/\1 /' \
           -e 's/[0-9a-f]+ <(.*)>$/<\1>/' -e 's/\+0x[0-9a-f]+>$/+OFF>/' \
           -e 's/-?0x[0-9a-f]+\(%rip\)/DISP(%rip)/g' |
    sort -s -k1,1
}

listings "$1" > "$workdir/on.txt"
listings "$2" > "$workdir/off.txt"
cut -d' ' -f1 "$workdir/on.txt" | uniq | c++filt > "$workdir/on.names"
cut -d' ' -f1 "$workdir/off.txt" | uniq | c++filt > "$workdir/off.names"

if ! diff "$workdir/on.names" "$workdir/off.names" >&2; then
  fail "the builds differ in which functions the rule covers (< metrics, > none)"
fi
for f in 'ivory::spice::(anonymous namespace)::run_transient(' \
         'ivory::LuFactorization<double>::solve_into('; do
  awk -v f="$f" 'index($0, f) == 1 { found = 1 } END { exit !found }' \
    "$workdir/on.names" || fail "${f%(} is missing from both builds"
done
if ! diff "$workdir/on.txt" "$workdir/off.txt" > "$workdir/diff.txt"; then
  sed -n -E 's/^[<>] ([^ ]+) .*/\1/p' "$workdir/diff.txt" | sort -u | c++filt >&2
  c++filt < "$workdir/diff.txt" | head -60 >&2
  fail "$(grep -c '^[<>]' "$workdir/diff.txt") lines differ with metrics compiled out" \
       "in the functions listed above"
fi
echo "perf_smoke_same_code: $(wc -l < "$workdir/on.names") functions," \
     "$(wc -l < "$workdir/on.txt") lines, identical"

"$2" --smoke "$workdir/nometrics.json" > "$workdir/smoke.log" 2>&1 ||
  { cat "$workdir/smoke.log" >&2; fail "$2 --smoke failed its self-checks"; }
echo "perf_smoke_same_code: OK"
