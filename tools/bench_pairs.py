"""Paired benchmark runs of two checkouts, and the search result digest.

    python3 tools/bench_pairs.py digest ROOT
    python3 tools/bench_pairs.py pairs PARENT CHANGE --workload desk-search \
        --pairs 10 --seconds 30 --seed 1

``digest`` imports the library from ROOT/src and prints the sha256 over one
JSON line [window, size, exact, nodes, sorted witness] per max_code call at
the benchmark's node budgets, on its desk windows and then its wide windows
(both read from ROOT/perfbench/workloads.py).  Two commits whose search
returns the same answers print the same digest.

``pairs`` runs ``perfbench/run.py --trace 0`` in the PARENT and CHANGE
checkouts in turn, the parent first in even-numbered pairs and the change
first in odd-numbered ones, and prints one JSON object: for each workload
and end-to-end metric, every run of each side, each side's median and
quartiles, and the number of pairs in which the change reads lower.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

METRICS = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")  # all lower-better


def digest(root: Path) -> str:
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads as W
    from overlapcodes.search import max_code

    h = hashlib.sha256()
    for windows, budget in ((W.DESK_WINDOWS, W.DESK_BUDGET),
                            (W.WIDE_WINDOWS, W.WIDE_BUDGET)):
        for window in windows:
            r = max_code(*window, node_budget=budget)
            line = [list(window), r.size, r.exact, r.nodes,
                    r.code.sorted_words()]
            h.update((json.dumps(line) + "\n").encode())
    return h.hexdigest()


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True)
    result = json.loads(child.stdout.splitlines()[-1])
    return {"correct": result["correct"], "failed": result["failed"],
            **{m: result["metrics"][m]["value"] for m in METRICS}}


def summary(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median(values), "q1": q1, "q3": q3}


def pairs(parent: Path, change: Path, workload: str, count: int, seed: int,
          seconds: float) -> dict:
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(count):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            root = parent if side == "parent" else change
            runs[side].append(run_once(root, workload, seed, seconds))
            print(f"{workload} pair {i} {side}: {runs[side][-1]}",
                  file=sys.stderr)
    out = {"all_correct": all(r["correct"] for side in runs.values()
                              for r in side),
           "failed": {side: sum(r["failed"] for r in rs)
                      for side, rs in runs.items()}}
    for m in METRICS:
        p = [r[m] for r in runs["parent"]]
        c = [r[m] for r in runs["change"]]
        out[m] = {"parent": summary(p), "change": summary(c),
                  "change_lower_in": sum(b < a for a, b in zip(p, c))}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    d = sub.add_parser("digest")
    d.add_argument("root", type=Path)
    p = sub.add_parser("pairs")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)
    if args.command == "digest":
        print(digest(args.root.resolve()))
        return 0
    result = {"pairs": args.pairs, "seed": args.seed, "seconds": args.seconds,
              "workloads": {w: pairs(args.parent.resolve(),
                                     args.change.resolve(), w, args.pairs,
                                     args.seed, args.seconds)
                            for w in args.workload}}
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
