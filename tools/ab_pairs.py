"""Run the benchmark in two source trees in alternating order and compare them.

Usage: python tools/ab_pairs.py PARENT CHANGE --workload NAME [--pairs N]
                                [--seconds S] [--first-seed K]

Pair i runs ``perfbench/run.py --workload NAME --seed K+i --seconds S`` once
in each tree, from that tree's root: PARENT first in even pairs, CHANGE first
in odd ones, so that a drift of the host's speed does not favour one side.
For every end-to-end metric of the final JSON line it prints each pair, each
side's median [first quartile, third quartile], the pairs the change won,
and two verdicts:

- gain: the change won at least nine tenths of the pairs, a tie counting for
  neither side, and its median beats the parent's by more than the parent's
  interquartile range;
- bound: the change's median is worse than the parent's by no more than the
  metric's bound in BENCHMARK.json, as a fraction of the parent's median.

The trees must agree on whether they hold ``__pycache__`` directories: where
Python writes no bytecode (PYTHONDONTWRITEBYTECODE), a tree with a stale cache
imports faster, which moved ``setup_s`` by about 10 %.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The comparison of one metric over pairs (parent[i], change[i]); ``better`` is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change, strict=True))
    losses = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    sides = {}
    for side, values in (("parent", parent), ("change", change)):
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        sides[side] = {"median": median, "q1": q1, "q3": q3}
    base = sides["parent"]["median"]
    gain = sign * (base - sides["change"]["median"])
    # worse by this fraction of the parent's median; negative when better
    worse = -gain / abs(base) if base else 0.0
    return {
        **sides,
        "pairs": len(parent),
        "wins": wins,
        "losses": losses,
        "gain": wins >= 0.9 * len(parent) and gain > sides["parent"]["q3"] - sides["parent"]["q1"],
        "worse_fraction": worse,
        "within_bound": worse <= bound,
    }


def _shown(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def has_bytecode_cache(tree: Path) -> bool:
    return any(path.is_dir() for path in tree.rglob("__pycache__"))


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """The end-to-end metrics of one benchmark run in ``tree``: name to value (None where not measured)."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{tree}: perfbench exited with code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(done.stdout)
        raise SystemExit(f"{tree}: perfbench reported failed checks or ops")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent's source tree")
    parser.add_argument("change", type=Path, help="root of the changed source tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    cached = {side: has_bytecode_cache(tree) for side, tree in trees.items()}
    if len(set(cached.values())) > 1:
        holder = next(side for side, has in cached.items() if has)
        raise SystemExit(f"only the {holder} tree holds __pycache__ directories; remove them or build both alike")
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(trees[side], args.workload, seed, args.seconds))
        last = {side: values[-1] for side, values in runs.items()}
        shown = "  ".join(f"{m} {_shown(last['parent'][m])} -> {_shown(last['change'][m])}" for m in metrics)
        print(f"pair {i} seed={seed} first={order[0]}  {shown}", flush=True)

    for name, metric in metrics.items():
        pairs = [(p[name], c[name]) for p, c in zip(runs["parent"], runs["change"]) if None not in (p[name], c[name])]
        if len(pairs) < 2:
            print(f"{name}: fewer than two measured pairs")
            continue
        parent, change = map(list, zip(*pairs))
        s = summarize(parent, change, metric["better"], metric["bound"])
        sides = "  ".join(f"{side} {s[side]['median']:.6g} [{s[side]['q1']:.6g}, {s[side]['q3']:.6g}]" for side in runs)
        print(
            f"{name}: {sides}  change won {s['wins']} of {s['pairs']} (lost {s['losses']})  "
            f"gain={'yes' if s['gain'] else 'no'}  worse by {s['worse_fraction']:+.2%} "
            f"(bound {metric['bound']:.0%}: {'within' if s['within_bound'] else 'BEYOND'})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
