#!/usr/bin/env python3
"""Collect benchmark runs, check their spread, and compare two sets.

    # run the benchmark (untraced, for BENCHMARK.json's run_seconds) once per
    # workload and seed, appending one JSON line per run -- its result, its
    # output check and its output digest -- and printing every metric
    python3 perfbench/compare.py collect --workload paper-grid,fault-soak,long-call \
        --seeds 1-10 --out parent.jsonl

    # quartile spread of every end-to-end metric, as a share of its median,
    # against a third of its bound (the steadiness target) and the bound
    python3 perfbench/compare.py spread parent.jsonl

    # parent vs change: medians, quartiles, pairwise win share and a verdict
    python3 perfbench/compare.py compare --parent parent.jsonl --change change.jsonl

A verdict is `improved`, `unchanged`, `worse` or `unresolved`:

- `unresolved` where either side's quartile spread (Q3 - Q1 over the
  median) exceeds the metric's bound, unless every run of the change
  reads better than every run of the parent;
- `worse` where the change's median is worse than the parent's by more
  than the bound;
- `improved` where the medians differ by more than the parent's spread
  and the change wins at least nine pairs in ten, ties counting for
  neither side;
- `unchanged` otherwise.

Runs are paired by seed when the two sets share seeds, otherwise every
run meets every run. Collect the two sides alternately (parent, change,
parent, ...) so host drift hits both: sets of the same code collected
15-40 minutes apart have differed by up to 15% in median on a shared host.
For example, with the parent checked out in ../parent:

    for s in $(seq 1 10); do
      python3 perfbench/compare.py collect --root ../parent --workload fault-soak --seeds $s --out parent.jsonl
      python3 perfbench/compare.py collect --workload fault-soak --seeds $s --out change.jsonl
    done

The share of failed operations is compared per workload: a gain does not
count when the change fails more. Outputs are compared too: every run
must have passed its own output check (`correct`), and a parent and a
change run of the same workload and seed must print the same output
digest, since a speed-only change leaves the simulated statistics
unchanged. Pass `--allow-output-change` when the change is meant to
alter them. `compare` exits 1 when any verdict is `worse`, the change
fails more, a run is not correct, or (without the flag) a digest differs.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# The benchmark's summary line on stderr, e.g.
# "workload fault-soak seed 1 jobs 2 passes 27+0 digest 3f0c... cells/pass 400 ..."
DIGEST_LINE = re.compile(r"^workload (\S+) seed (\d+) .* digest ([0-9a-f]{16}) ", re.M)


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}, spec


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def records(path):
    """The collected JSONL records of `path`, in order."""
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def load_runs(path):
    """{workload: {seed: metrics}} from a collected JSONL file."""
    runs = defaultdict(dict)
    for rec in records(path):
        runs[rec["workload"]][rec["seed"]] = {
            k: v["value"] for k, v in rec["result"]["metrics"].items()
        }
    return runs


def incorrect(path):
    """(workload, seed) of every run that failed its own output check."""
    return [(r["workload"], r["seed"]) for r in records(path) if not r["result"]["correct"]]


def digests(path):
    """{(workload, seed): output digest}."""
    return {(r["workload"], r["seed"]): r["digest"] for r in records(path)}


def failures(path):
    """{workload: mean over seeds of failed / attempted}. A run counts the
    cells of one pass, which every timed pass repeats with the same
    outcome, so a seed's counts are exact."""
    shares = defaultdict(list)
    for rec in records(path):
        res = rec["result"]
        shares[rec["workload"]].append(res["failed"] / res["attempted"])
    return {w: statistics.fmean(v) for w, v in shares.items()}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def rel_spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def cmd_collect(args):
    root = Path(args.root).resolve() if args.root else ROOT
    spec = json.loads((root / "BENCHMARK.json").read_text())
    with open(args.out, "a") as out:
        for workload in args.workload.split(","):
            for seed in parse_seeds(args.seeds):
                cmd = spec["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0",
                ]
                proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE, text=True)
                if proc.returncode != 0:
                    sys.exit(f"{workload} seed {seed}: benchmark exited {proc.returncode}")
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                found = [m for m in DIGEST_LINE.finditer(proc.stderr)
                         if m[1] == workload and int(m[2]) == seed]
                if len(found) != 1:
                    sys.exit(f"{workload} seed {seed}: no single digest line on stderr")
                rec = {"workload": workload, "seed": seed, "digest": found[0][3],
                       "result": result}
                out.write(json.dumps(rec) + "\n")
                out.flush()
                shown = " ".join(f"{k}={v['value']:.6g}{v['unit']}"
                                 for k, v in result["metrics"].items())
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"digest={rec['digest']} "
                      f"failed={result['failed']}/{result['attempted']} {shown}")


def cmd_spread(args):
    metrics, _ = load_spec()
    worst, bad = "steady", []
    for path in args.files:
        for workload, by_seed in sorted(load_runs(path).items()):
            print(f"{path} {workload}: {len(by_seed)} runs")
            for name, m in metrics.items():
                values = [r[name] for r in by_seed.values() if name in r]
                if not values:
                    continue
                q1, q2, q3 = quartiles(values)
                spread = rel_spread(values)
                status = "steady" if spread < m["bound"] / 3 else (
                    "within-bound" if spread <= m["bound"] else "TOO-NOISY")
                if name == "setup_s":
                    status += " (not gated)"
                elif status != "steady" and worst != "TOO-NOISY":
                    worst = status
                print(f"  {name:<16} median {q2:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                      f"spread {spread:7.4f} bound {m['bound']:.2f}  {status}")
        bad += incorrect(path)
    for workload, seed in bad:
        print(f"{workload} seed {seed}: NOT CORRECT (failed its output check)")
    print(f"overall: {worst}" + (f", {len(bad)} runs not correct" if bad else ""))
    return 1 if worst == "TOO-NOISY" or bad else 0


def better(c, p, lower_better):
    return c < p if lower_better else c > p


def win_share(parent, change, lower_better):
    """Share of pairs the change wins; ties count for neither side."""
    common = sorted(set(parent) & set(change))
    pairs = [(parent[s], change[s]) for s in common] or [
        (p, c) for p in parent.values() for c in change.values()]
    return sum(better(c, p, lower_better) for p, c in pairs) / len(pairs)


def cmd_compare(args):
    metrics, _ = load_spec()
    parent, change = load_runs(args.parent), load_runs(args.change)
    failed = [failures(args.parent), failures(args.change)]
    any_worse = False
    print(f"{'metric':<16} {'workload':<11} {'parent q1/med/q3':<34} {'change q1/med/q3':<34} "
          f"{'delta':>8} {'wins':>5}  verdict")
    for name, m in metrics.items():
        lower = m["better"] == "lower"
        for workload in sorted(set(parent) & set(change)):
            p = {s: r[name] for s, r in parent[workload].items() if name in r}
            c = {s: r[name] for s, r in change[workload].items() if name in r}
            if not p or not c:
                continue
            pq, cq = quartiles(list(p.values())), quartiles(list(c.values()))
            parent_spread = rel_spread(list(p.values()))
            spread = max(parent_spread, rel_spread(list(c.values())))
            delta = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
            worse_by = delta if lower else -delta
            wins = win_share(p, c, lower)
            all_better = all(better(cv, pv, lower) for cv in c.values() for pv in p.values())
            if spread > m["bound"] and not all_better:
                verdict = "unresolved"
            elif worse_by > m["bound"]:
                verdict = "worse"
                any_worse = True
            elif (-worse_by > parent_spread and wins >= 0.9) or all_better:
                verdict = "improved"
            else:
                verdict = "unchanged"
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
            print(f"{name:<16} {workload:<11} {fmt(pq):<34} {fmt(cq):<34} "
                  f"{delta:+8.2%} {wins:5.2f}  {verdict}")
    for workload in sorted(set(parent) & set(change)):
        pf, cf = failed[0].get(workload, 0.0), failed[1].get(workload, 0.0)
        note = "  CHANGE FAILS MORE: no gain counts" if cf > pf else ""
        print(f"failed share {workload}: parent {pf:.6f}, change {cf:.6f}{note}")
        any_worse |= cf > pf
    for side, path in (("parent", args.parent), ("change", args.change)):
        for workload, seed in incorrect(path):
            print(f"{side} {workload} seed {seed}: NOT CORRECT (failed its output check)")
            any_worse = True
    pd, cd = digests(args.parent), digests(args.change)
    changed = sorted(k for k in set(pd) & set(cd) if pd[k] != cd[k])
    for workload, seed in changed:
        print(f"output digest {workload} seed {seed}: parent {pd[workload, seed]}, "
              f"change {cd[workload, seed]}  OUTPUT CHANGED")
    if changed and not args.allow_output_change:
        print("outputs differ: a speed-only change must leave them identical "
              "(--allow-output-change if the change is meant to alter them)")
        any_worse = True
    return 1 if any_worse else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run the benchmark once per seed")
    c.add_argument("--workload", required=True, help="one name or a comma list")
    c.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,9")
    c.add_argument("--root", help="checkout to run (default: this one), e.g. the parent's")
    c.add_argument("--out", required=True)
    s = sub.add_parser("spread", help="quartile spread of collected runs")
    s.add_argument("files", nargs="+")
    k = sub.add_parser("compare", help="parent vs change verdicts")
    k.add_argument("--parent", required=True)
    k.add_argument("--change", required=True)
    k.add_argument("--allow-output-change", action="store_true",
                   help="the change is meant to alter the simulated outputs")
    args = ap.parse_args()
    sys.exit({"collect": cmd_collect, "spread": cmd_spread, "compare": cmd_compare}[args.cmd](args) or 0)


if __name__ == "__main__":
    main()
