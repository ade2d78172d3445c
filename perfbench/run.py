"""Benchmark of the overlapcodes library.

    python3 perfbench/run.py --workload desk-search --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One single-threaded process, closed loop: the next task starts when the
previous one returns.  Passes over the workload's fixed task set run until
``--seconds`` is used up; every pass is timed, the first (cold) one
included, and the median is reported.  Each pass runs on a fresh set-up
(import, seeded inputs, reference load), also timed, and ``setup_s`` is the
median of those.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes (at most TRACED_PASSES traced), writes the
traced passes' spans to ``perfbench/out/spans-<workload>.jsonl`` (replacing
the previous run's) and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  ``--workload all`` runs each workload in its own process, one
after another.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import warnings
from collections import defaultdict
from math import ceil
from pathlib import Path
from statistics import median
from time import perf_counter, process_time
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 3          # untraced passes; a traced run needs 2 of each kind
TRACED_PASSES = 3       # at most, to bound the spans held in memory
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)
CONSTRUCTION_KINDS = ("non_overlapping", "overlap_free_1k", "wmu_expanded",
                      "pad_t1t2", "t1t2_expanded", "simultaneous")
SIZE_FORMULAS = ("non_overlapping_size", "code_size_1k", "wmu_size",
                 "simultaneous_size")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric(value, unit):
    return {"value": value, "unit": unit}


def nearest_rank(ordered: list[float], pct: float) -> float:
    return ordered[max(ceil(pct / 100 * len(ordered)), 1) - 1] if ordered else 0.0


def tail(ordered: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest tracked percentile that leaves at
    least ten samples beyond it; the median when none does."""
    for pct in TAIL_PERCENTILES:
        if len(ordered) - ceil(pct / 100 * len(ordered)) >= 10:
            return pct, nearest_rank(ordered, pct)
    return 50, nearest_rank(ordered, 50)


def layer_metrics(spans: list[dict], stats) -> tuple[dict, float]:
    """Per-layer numbers of one traced pass, and the seconds its
    build_graph probes took."""
    time, calls = defaultdict(float), defaultdict(int)
    by_method = defaultdict(float)
    method_calls = defaultdict(int)
    probe_s = 0.0
    for s in spans:
        duration = s["end"] - s["start"]
        time[s["name"]] += duration
        calls[s["name"]] += 1
        if "method" in s:
            by_method[s["method"]] += duration
            method_calls[s["method"]] += 1
        if s.get("probe"):
            probe_s += duration
    m = {
        "search.max_code_s": metric(time["search.max_code"], "s"),
        "search.max_code_calls": metric(calls["search.max_code"], "count"),
    }
    for method in ("quotient", "rectangle", "classcount"):
        m[f"search.{method}_s"] = metric(by_method[method], "s")
        m[f"search.{method}_calls"] = metric(method_calls[method], "count")
    quotient_s = by_method["quotient"]
    max_code_calls = calls["search.max_code"]
    construct_s = sum(time[f"constructions.{k}"] for k in CONSTRUCTION_KINDS)
    verify_s = time["words.verify_overlap_free"]
    m.update({
        "search.nodes": metric(stats["search.nodes"], "count"),
        "search.nodes_per_s": metric(
            stats["search.nodes"] / quotient_s if quotient_s else 0.0, "1/s"),
        "search.exact_ratio": metric(
            stats["search.exact_windows"] / max_code_calls
            if max_code_calls else 0.0, "ratio"),
        "search.exact_windows": metric(stats["search.exact_windows"], "count"),
        "search.size_sum": metric(stats["search.size_sum"], "count"),
        "search.build_graph_s": metric(time["search.build_graph"], "s"),
        "search.vertices": metric(stats["search.vertices"], "count"),
        "search.solve_s": metric(quotient_s - probe_s, "s"),
        "search.enumerate_maximal_s": metric(
            time["search.enumerate_maximal_codes"], "s"),
        "search.maximal_codes": metric(stats["search.maximal_codes"], "count"),
        "search.is_maximal_s": metric(time["search.is_maximal"], "s"),
        "search.is_maximal_calls": metric(calls["search.is_maximal"], "count"),
        "search.certificate_s": metric(
            time["search.maximality_certificate"], "s"),
    })
    for kind in CONSTRUCTION_KINDS:
        m[f"constructions.{kind}_s"] = metric(time[f"constructions.{kind}"], "s")
    m.update({
        "constructions.size_formula_s": metric(
            sum(time[f"constructions.{k}"] for k in SIZE_FORMULAS), "s"),
        "constructions.words": metric(stats["constructions.words"], "count"),
        "constructions.words_per_s": metric(
            stats["constructions.words"] / construct_s if construct_s else 0.0,
            "1/s"),
        "words.verify_s": metric(verify_s, "s"),
        "words.verify_words": metric(stats["words.verify_words"], "count"),
        "words.verify_words_per_s": metric(
            stats["words.verify_words"] / verify_s if verify_s else 0.0, "1/s"),
        "families.enumerate_s": metric(time["families.enumerate_families"], "s"),
        "families.enumerated": metric(stats["families.enumerated"], "count"),
        "families.from_code_s": metric(time["families.family_from_code"], "s"),
        "families.from_code_calls": metric(calls["families.family_from_code"],
                                           "count"),
        "fileio.format_s": metric(time["fileio.format_code"]
                                  + time["fileio.format_family"], "s"),
        "fileio.parse_s": metric(time["fileio.parse_code"]
                                 + time["fileio.parse_family"], "s"),
        "fileio.bytes": metric(stats["fileio.bytes"], "B"),
        "channel.edits": metric(stats["channel.edits"], "count"),
        "channel.decode_s": metric(time["channel.decode"], "s"),
        "channel.undetected": metric(stats["channel.undetected"], "count"),
        "bounds.bound_report_s": metric(time["bounds.bound_report"], "s"),
        "bounds.reports": metric(calls["bounds.bound_report"], "count"),
        "bounds.pinched": metric(stats["bounds.pinched"], "count"),
    })
    return m, probe_s


def one_pass(args, number: int, tracer, traced: bool) -> SimpleNamespace:
    """A fresh set-up, then one pass over the task set.  Only the pass's
    record outlives the call, so the set-ups never pile up in memory."""
    import workloads as W
    from tracing import NoTracer

    make_inputs, run_pass = W.WORKLOADS[args.workload]
    started = perf_counter()
    lib = W.import_library()
    reference = W.load_reference(construct=args.workload == "construct")
    inputs = make_inputs(lib, args.seed)
    setup_s = perf_counter() - started

    tr = tracer if traced else NoTracer()
    p = W.Pass(lib, tr, reference, number, traced)
    first_span = len(tracer.spans)
    wall0, cpu0 = perf_counter(), process_time()
    with tr.span("pass"):
        run_pass(p, inputs)
    wall, cpu = perf_counter() - wall0, process_time() - cpu0
    return SimpleNamespace(setup_s=setup_s, wall=wall, cpu=cpu, traced=traced,
                           attempted=p.attempted, failures=p.failures,
                           stats=p.stats, spans=tracer.spans[first_span:])


def run_workload(args) -> int:
    from tracing import Tracer

    tracer = Tracer()
    passes = []
    started = perf_counter()
    while True:
        # a fresh set-up before every pass, so that the set-up median
        # samples the same stretch of time as the passes do
        traced = (bool(args.trace) and len(passes) % 2 == 1
                  and len(passes) < 2 * TRACED_PASSES)
        passes.append(one_pass(args, len(passes), tracer, traced))
        untraced = sum(not p.traced for p in passes)
        enough = (min(untraced, len(passes) - untraced) >= 2 if args.trace
                  else untraced >= MIN_PASSES)
        typical = median(p.wall + p.setup_s for p in passes)
        if enough and perf_counter() - started + typical > args.seconds:
            break

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    plain = [p for p in passes if not p.traced]
    walls = [p.wall for p in plain]
    stats = plain[0].stats
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced "
          f"passes of {', '.join(f'{w:.3f}' for w in walls)} s")
    print(f"error_rate = {len(failures) / attempted:.6f} "
          f"({len(failures)} of {attempted} tasks failed)")
    if args.workload.endswith("-search"):
        print(f"exact_windows = {stats['search.exact_windows']} count")
        print(f"size_sum = {stats['search.size_sum']} count")

    if not args.trace:
        metrics = {
            "wall_s": metric(median(walls), "s"),
            "cpu_s": metric(median(p.cpu for p in plain), "s"),
            "setup_s": metric(median(p.setup_s for p in passes), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        traced = [p for p in passes if p.traced]
        per_pass = [layer_metrics(p.spans, p.stats) for p in traced]
        metrics = {name: metric(median(m[name]["value"] for m, _ in per_pass),
                                unit["unit"])
                   for name, unit in per_pass[0][0].items()}
        durations = sorted((s["end"] - s["start"]) * 1000 for p in traced
                           for s in p.spans if s["name"] == "search.max_code")
        pct, value = tail(durations)
        metrics["search.max_code_p50_ms"] = metric(nearest_rank(durations, 50),
                                                   "ms")
        metrics["search.max_code_tail_ms"] = metric(value, "ms")
        metrics["search.max_code_tail_pct"] = metric(pct, "%")
        # traced passes also run the build_graph probes; those are work,
        # not tracing cost
        metrics["trace.overhead_s"] = metric(
            median(p.wall for p in traced) - median(walls)
            - median(probe_s for _, probe_s in per_pass), "s")
        out = HERE / "out" / f"spans-{args.workload}.jsonl"
        tracer.write(out)
        print(f"{len(tracer.spans)} spans written to {out.relative_to(ROOT)}; "
              f"{len(traced)} traced passes, max_code tail is p{pct:g} of "
              f"{len(durations)} calls")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a child process; one table and one JSON line."""
    import workloads as W

    metrics, attempted, failed = {}, 0, 0
    for name in W.WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"{name}: exited with {child.returncode}", file=sys.stderr)
            return 1
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "overlapcodes" / "__init__.py").is_file():
        print(f"perfbench: library source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # expanded-t1t2 layers may overlap by design; the warning is expected
    warnings.simplefilter("ignore")
    import workloads as W
    if args.workload != "all" and args.workload not in W.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(W.WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
