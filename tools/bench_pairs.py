"""Run the benchmark in alternating parent/change pairs and summarise it.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --parent HEAD~1 --pairs 10 --first-seed 2500 \\
        --out pairs.json

The parent revision is exported with ``git archive`` into a temporary
directory; the change is this checkout's working tree, run in place.
For each workload and each seed ``S`` it runs, one at a time,

    python3 perfbench/run.py --workload W --seed S --seconds N

once in each tree, the parent first for even seeds and the change first
for odd ones, and reads the JSON object on the last line of each run's
stdout.  Each side runs its own ``perfbench/``.  The workloads, the
end-to-end metrics, their bounds and the default ``--seconds`` come from
``BENCHMARK.json``; this tool changes neither it nor ``perfbench/``.

It writes one JSON object: per workload, the ops attempted and failed
on each side, and per workload and metric, the parent's and the
change's ``median``, ``q1``, ``q3`` (``numpy.percentile``, linear) and
``runs``, the pairs the change wins and ties, the ratio of the medians
(change / parent), and whether the medians lie further apart than the
parent's interquartile range (``beyond_parent_iqr``); then the ops
attempted and failed on each side over every workload, the metrics
whose change median is worse than the parent's by
more than the bound (``regressions_beyond_bound``), those whose parent
interquartile range exceeds the bound as a fraction of the parent
median (``spread_wider_than_bound``), and whether each workload's
``efficiency_pct`` and ``final_sse`` read the same on both sides of
every pair (``identical_across_all_pairs``).

Exit status: 0 when every run exited 0 and no op failed, 1 otherwise,
2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# metrics whose every run must read the same on both sides of a pair
DETERMINISTIC = ("efficiency_pct", "final_sse")
SIDES = ("parent", "change")
OP_COUNTS = ("attempted", "failed")


def run_order(seed: int) -> tuple[str, str]:
    """The sides of one pair in the order they run: parent first on even seeds."""
    return SIDES if seed % 2 == 0 else SIDES[::-1]


def _stats(runs: list[float]) -> dict:
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {
        "median": round(float(median), 6),
        "q1": round(float(q1), 6),
        "q3": round(float(q3), 6),
        "runs": [round(float(r), 6) for r in runs],
    }


def _is_better(new: float, old: float, better: str) -> bool:
    return new < old if better == "lower" else new > old


def summarize(results: dict, end_to_end: list[dict]) -> dict:
    """The summary of ``results``: ``{workload: [{"parent": run, "change":
    run}, ...]}``, one entry per pair in seed order, each run the JSON
    object ``perfbench/run.py`` prints last.  ``end_to_end`` is
    ``BENCHMARK.json``'s list of ``{"name", "better", "bound", ...}``."""
    workloads, regressions, wide = {}, [], []
    identical = {}
    for workload, pairs in results.items():
        # peak_rss_mb grows with the ops a run completes, so compare it at these counts
        ops = {
            count: {side: sum(pair[side][count] for pair in pairs) for side in SIDES}
            for count in OP_COUNTS
        }
        metrics = {}
        for spec in end_to_end:
            name, better, bound = spec["name"], spec["better"], spec["bound"]
            runs = {
                side: [pair[side]["metrics"][name]["value"] for pair in pairs]
                for side in SIDES
            }
            parent, change = _stats(runs["parent"]), _stats(runs["change"])
            wins = sum(_is_better(c, p, better) for p, c in zip(runs["parent"], runs["change"]))
            ties = sum(p == c for p, c in zip(runs["parent"], runs["change"]))
            p_med, c_med = parent["median"], change["median"]
            metrics[name] = {
                "parent": parent,
                "change": change,
                "change_wins": wins,
                "ties": ties,
                "median_ratio": round(c_med / p_med, 6) if p_med else None,
                # the second half of a claimed gain: a move wider than the parent's spread
                "beyond_parent_iqr": abs(c_med - p_med) > parent["q3"] - parent["q1"],
            }
            key = f"{workload}.{name}"
            if c_med > p_med * (1 + bound) if better == "lower" else c_med < p_med * (1 - bound):
                regressions.append(key)
            if parent["q3"] - parent["q1"] > bound * abs(p_med):
                wide.append(key)
            if name in DETERMINISTIC:
                identical[key] = runs["parent"] == runs["change"]
        workloads[workload] = {"pairs": len(pairs), "ops": ops, "metrics": metrics}
    return {
        "all_runs_correct": all(
            pair[side]["correct"] for pairs in results.values() for pair in pairs for side in SIDES
        ),
        "ops": {
            count: {side: sum(w["ops"][count][side] for w in workloads.values()) for side in SIDES}
            for count in OP_COUNTS
        },
        "regressions_beyond_bound": regressions,
        "spread_wider_than_bound": wide,
        "identical_across_all_pairs": identical,
        "workloads": workloads,
    }


def export(revision: str, into: Path) -> str:
    """Write ``revision``'s committed files into ``into``; returns its full hash."""
    full = subprocess.run(
        ["git", "rev-parse", "--verify", f"{revision}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive, tree = into / "parent.tar", into / "parent"
    tree.mkdir()
    subprocess.run(["git", "archive", "-o", str(archive), full], cwd=ROOT, check=True)
    subprocess.run(["tar", "-xf", str(archive), "-C", str(tree)], check=True)
    archive.unlink()
    return full


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``; its last stdout line, parsed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: {' '.join(argv[1:])} exited {done.returncode}: "
                           f"{done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD~1", help="git revision (default HEAD~1)")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default every workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--out", help="write the summary here (default stdout)")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.first_seed < 0 or args.seconds <= 0:
        parser.error("--pairs must be >= 1, --first-seed >= 0 and --seconds > 0")
    seeds = range(args.first_seed, args.first_seed + args.pairs)
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        parent_revision = export(args.parent, Path(tmp))
        trees = {"parent": Path(tmp) / "parent", "change": ROOT}
        results = {}
        for workload in args.workload or names:
            results[workload] = []
            for seed in seeds:
                pair = {}
                for side in run_order(seed):
                    pair[side] = run_once(trees[side], workload, seed, args.seconds)
                    print(f"{workload} seed {seed} {side}: "
                          f"{pair[side]['attempted']} ops, {pair[side]['failed']} failed",
                          file=sys.stderr, flush=True)
                results[workload].append(pair)
    summary = {
        "parent_revision": parent_revision,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g}",
        "seeds": [seeds.start, seeds.stop - 1],
        **summarize(results, benchmark["end_to_end"]),
    }
    text = json.dumps(summary, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    failed = summary["ops"]["failed"]
    return 0 if summary["all_runs_correct"] and not any(failed.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
