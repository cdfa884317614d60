#!/usr/bin/env python3
"""Record an A/B of one perfbench workload between a base revision and the working tree.

    python3 tools/bench_record.py --workload dse_sweep --base HEAD~1

Exports the base revision with `git archive` into a temporary directory
(honours TMPDIR) and runs `perfbench/run.py` there and in the working tree,
in alternating pairs: pair i runs the base first when i is even and the
working tree first when i is odd. Every run uses the same seed and
`run_seconds` from BENCHMARK.json. Then it runs `--trace 1` three times on
each side at seed 1, alternating too, for the per-layer metrics, the work
counters and the reply digest.

Writes BENCH_<workload>.json at the repository root, which takes at least
ten pairs and a working tree whose src/ and perfbench/ are committed, so the
record measures HEAD; a shorter or uncommitted exploratory run must name its
own --out file.
The record holds:
  - per run: the result line's attempted/failed counts and end-to-end
    metrics, and the host calibration printed with it;
  - per end-to-end metric: each side's median and quartiles, and the pairs
    the working tree won (strictly better in BENCHMARK.json's direction);
  - per side: the commit id and the tree id of its src/, the work counters
    and digest of its first traced run (the script fails if a side's traced
    runs disagree on them), and the per-layer metrics of every traced run
    with their medians.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNTER_LINE = re.compile(r"^  [a-z_]+ [0-9]")
MIN_RECORD_PAIRS = 10  # a committed BENCH_<workload>.json backs a claim
TRACE_RUNS = 3  # traced runs per side
TRACE_SEED = 1  # the seed the work counters and digests are quoted at
HOST_LINE = re.compile(r"^host: spin ([0-9.]+) ns/iter; raw std::thread parallelism "
                       r"at 4 threads ([0-9.]+)")


def git(*args, env=None):
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True,
                          text=True, env=env).stdout.strip()


def working_src_tree():
    """Tree id of src/ as `git add -A` would stage it, without touching the index."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        git("read-tree", "HEAD", env=env)
        git("add", "-A", "src", env=env)
        return git("write-tree", "--prefix=src/", env=env)


def parse_run(stdout):
    """The result line plus the host calibration, counters and digest printed above it."""
    lines = stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError("perfbench printed no result line:\n" + stdout[-2000:])
    result = json.loads(lines[-1])
    run = {"attempted": result["attempted"], "failed": result["failed"],
           "correct": result["correct"],
           "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
    counters, in_counters = {}, False
    for line in lines:
        m = HOST_LINE.match(line)
        if m:
            run["host"] = {"spin_ns": float(m.group(1)), "parallelism_4t": float(m.group(2))}
        if line.startswith("work counters"):
            in_counters = True
        elif in_counters and line.startswith("  reply digest "):
            run["digest"] = line.split()[-1]
        elif in_counters and COUNTER_LINE.match(line):
            for item in line.strip().split(", "):
                name, value = item.rsplit(" ", 1)
                counters[name] = float(value) if "." in value or "e" in value else int(value)
        else:
            in_counters = False
    run["work_counters"] = counters
    return run


def perfbench(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {p.returncode}:\n"
                           + p.stderr[-2000:] + p.stdout[-2000:])
    return parse_run(p.stdout)


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def alternate(n, run_base, run_change, note):
    """n pairs of (base, change) runs, the base first in even pairs."""
    pairs = []
    for i in range(n):
        first = "base" if i % 2 == 0 else "change"
        order = [("base", run_base), ("change", run_change)]
        if first == "change":
            order.reverse()
        pair = {"first": first}
        for side, run in order:
            pair[side] = run()
            print(f"{note} {i + 1}/{n} {side}: attempted {pair[side]['attempted']}, "
                  f"failed {pair[side]['failed']}", file=sys.stderr, flush=True)
        pairs.append(pair)
    return pairs


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--base", required=True, help="base revision, e.g. HEAD~1")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", help="default: BENCH_<workload>.json at the repository root")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("need --pairs >= 2")
    if args.pairs < MIN_RECORD_PAIRS and not args.out:
        ap.error(f"BENCH_<workload>.json needs --pairs >= {MIN_RECORD_PAIRS}; "
                 "name an --out file for a shorter run")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        ap.error(f"unknown workload {args.workload}")
    seconds = bench["run_seconds"]
    base_commit = git("rev-parse", args.base + "^{commit}")
    sides = {
        "base": {"commit": base_commit, "src_tree": git("rev-parse", base_commit + ":src")},
        "change": {"commit": git("rev-parse", "HEAD"), "src_tree": working_src_tree(),
                   "uncommitted_changes": bool(git("status", "--porcelain"))},
    }
    if not args.out:
        head_src = git("rev-parse", "HEAD:src")
        dirty_perfbench = git("status", "--porcelain", "--", "perfbench")
        if sides["change"]["src_tree"] != head_src or dirty_perfbench:
            ap.error(f"BENCH_<workload>.json records the committed tree, but src/ is tree "
                     f"{sides['change']['src_tree']} against HEAD:src {head_src}"
                     + (" and perfbench/ has uncommitted changes" if dirty_perfbench else "")
                     + "; commit first, or name an --out file")

    with tempfile.TemporaryDirectory(prefix="bench_record_") as base_tree:
        archive = subprocess.run(["git", "-C", ROOT, "archive", base_commit],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", base_tree], input=archive, check=True)
        trees = {"base": base_tree, "change": ROOT}

        def runner(side, seed, trace):
            return lambda: perfbench(trees[side], args.workload, seed, seconds, trace)

        pairs = alternate(args.pairs, runner("base", args.seed, 0),
                          runner("change", args.seed, 0), "pair")
        traced = alternate(TRACE_RUNS, runner("base", TRACE_SEED, 1),
                           runner("change", TRACE_SEED, 1), "traced")

    summary = {}
    for metric in bench["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        won = sum(1 for b, c in zip(base, change) if (c < b if lower else c > b))
        b, c = spread(base), spread(change)
        summary[name] = {
            "unit": metric["unit"], "better": metric["better"], "base": b, "change": c,
            "pairs_won": won, "pairs": len(pairs),
            "median_change_frac": c["median"] / b["median"] - 1.0 if b["median"] else None,
            "median_gap": abs(c["median"] - b["median"]), "base_iqr": b["q3"] - b["q1"],
        }

    for side, info in sides.items():
        runs = [t[side] for t in traced]
        for r in runs[1:]:
            if (r["work_counters"], r.get("digest")) != (runs[0]["work_counters"],
                                                         runs[0].get("digest")):
                raise RuntimeError(f"{side}: traced runs disagree on work counters or digest")
        info["work_counters"] = runs[0]["work_counters"]
        info["digest"] = runs[0].get("digest")
        info["traced_runs"] = [r["metrics"] for r in runs]
        info["traced_median"] = {k: statistics.median(r["metrics"][k] for r in runs)
                                 for k in runs[0]["metrics"]}

    record = {
        "workload": args.workload, "seed": args.seed, "run_seconds": seconds,
        "trace_seed": TRACE_SEED, "base": sides["base"], "change": sides["change"],
        "summary": summary, "pairs": pairs,
    }
    out = args.out or os.path.join(ROOT, f"BENCH_{args.workload}.json")
    with open(out, "w") as f:
        json.dump(record, f, indent=1, sort_keys=False)
        f.write("\n")
    for name, s in summary.items():
        print(f"{name:12s} base {s['base']['median']:.4g} [{s['base']['q1']:.4g}, "
              f"{s['base']['q3']:.4g}]  change {s['change']['median']:.4g} "
              f"[{s['change']['q1']:.4g}, {s['change']['q3']:.4g}]  won {s['pairs_won']}/"
              f"{s['pairs']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
