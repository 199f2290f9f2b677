#!/usr/bin/env python3
"""Compare benchmark runs, or measure a tree's run-to-run spread.

Pairwise comparison of a parent checkout against a change checkout:

    python3 perfbench/compare.py pairs --parent <dir> --change <dir> \
        [--pairs 10] [--workload <name> ...] [--first-seed 1]

Each pair runs the same workload and seed on both sides, alternating which
side runs first. For every workload and end-to-end metric it reports each
side's median and quartiles, the pairs the change won, and a verdict:

  win         the change won at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  unresolved  the parent's spread (IQR / median) exceeds the bound and not
              every change run beats every parent run;
  regression  the change's median is worse than the parent's by more than
              the metric's bound;
  same        none of the above.

Spread of one checkout over several seeds, as the acceptance check does it:

    python3 perfbench/compare.py spread --tree <dir> [--runs 10] [--workload <name> ...]

Both subcommands run `python3 perfbench/run.py` inside the given
checkouts, with the run length from that checkout's BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def pair_wins(parent, change, better):
    """Pairs the change won; ties count for neither side."""
    wins = 0
    for p, c in zip(parent, change):
        if (c < p) if better == "lower" else (c > p):
            wins += 1
    return wins


def verdict(parent, change, better, bound):
    """Verdict for one metric of one workload (see the module docstring)."""
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    n = min(len(parent), len(change))
    wins = pair_wins(parent, change, better)
    gap = (p_med - c_med) if better == "lower" else (c_med - p_med)
    if n > 0 and wins * 10 >= 9 * n and gap > (p_q3 - p_q1):
        return "win"
    all_better = all((c < p) if better == "lower" else (c > p)
                     for c in change for p in parent)
    if relative_spread(parent) > bound and not all_better:
        return "unresolved"
    worse_by = -gap / abs(p_med) if p_med else 0.0
    if worse_by > bound:
        return "regression"
    return "same"


def load_spec(tree):
    with open(os.path.join(tree, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_once(tree, workload, seed, seconds):
    """One untraced run; returns the parsed last line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{tree}: {workload} seed {seed} failed "
                         f"(status {proc.returncode})")
    return json.loads(lines[-1])


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def cmd_pairs(args):
    spec = load_spec(args.parent)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                tree = args.parent if side == "parent" else args.change
                runs[side].append(run_once(tree, workload, seed, seconds))
        cells = []
        details = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"][name]["value"] for r in runs["parent"]]
            change = [r["metrics"][name]["value"] for r in runs["change"]]
            v = verdict(parent, change, metric["better"], metric["bound"])
            cells.append(f"{name}={v}")
            details.append(
                f"  {name:14s} parent {fmt(parent)}  change {fmt(change)}  "
                f"wins {pair_wins(parent, change, metric['better'])}/"
                f"{min(len(parent), len(change))}  bound {metric['bound']}  {v}")
        failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
        print(f"{workload}: " + "  ".join(cells) +
              f"  (failed parent {failed['parent']}, change {failed['change']})")
        print("\n".join(details))


def cmd_spread(args):
    spec = load_spec(args.tree)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    ok = True
    for workload in workloads:
        runs = [run_once(args.tree, workload, args.first_seed + i, seconds)
                for i in range(args.runs)]
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            spread = relative_spread(values)
            within = spread <= metric["bound"] or name == "setup_s"
            ok = ok and within
            print(f"  {name:14s} {fmt(values)}  spread {spread:.3f}  "
                  f"bound {metric['bound']}  {'ok' if within else 'TOO WIDE'}"
                  f"{'  (< bound/3)' if spread < metric['bound'] / 3 else ''}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    pairs = sub.add_parser("pairs", help="parent/change pairwise comparison")
    pairs.add_argument("--parent", required=True)
    pairs.add_argument("--change", required=True)
    pairs.add_argument("--pairs", type=int, default=10)
    pairs.add_argument("--first-seed", type=int, default=1)
    pairs.add_argument("--workload", action="append")
    spread = sub.add_parser("spread", help="run-to-run spread of one tree")
    spread.add_argument("--tree", default=".")
    spread.add_argument("--runs", type=int, default=10)
    spread.add_argument("--first-seed", type=int, default=1)
    spread.add_argument("--workload", action="append")
    args = parser.parse_args()
    if args.command == "pairs":
        if args.pairs < 10:
            raise SystemExit("use at least ten pairs")
        cmd_pairs(args)
        return 0
    return cmd_spread(args)


if __name__ == "__main__":
    sys.exit(main())
