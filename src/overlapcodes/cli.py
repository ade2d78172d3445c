"""Command-line surface: construct, verify, bounds, search, tables, simulate,
families.

Exit codes: 0 ok, 1 verification failure, 2 usage, 3 budget exhausted.
Every emitted artifact gets a ``<file>.manifest.json`` sidecar recording the
command, parameters, seed, and the artifact's sha256.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from itertools import product
from pathlib import Path

from . import __version__
from .bounds import bound_report
from .channel import (CorruptionSpec, burst_range, corrupt, detection_offset,
                      encode_stream, scan_decode)
from .constructions import (KINDS, ConstructionSpec, claimed_windows,
                            code_size_1k, non_overlapping_size,
                            run_construction)
from .families import EnumerationBudgetExceeded, enumerate_families
from .fileio import (FormatError, RunManifest, format_family, read_code,
                     read_family, sha256_digest, write_code, write_manifest)
from .search import max_code
from .words import DIGITS, verify_overlap_free

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _emit_manifest(path: str, command: str, parameters: dict, seed: int | None,
                   started: float) -> None:
    manifest = RunManifest(
        command=command,
        parameters=parameters,
        version=__version__,
        seed=seed,
        wall_time_s=round(time.time() - started, 3),
        outputs={path: sha256_digest(path)},
    )
    write_manifest(manifest, path + ".manifest.json")


def _write_json(path: str | None, payload: dict, command: str, parameters: dict,
                seed: int | None, started: float) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)
        _emit_manifest(path, command, parameters, seed, started)


# construction_spec.v1.json: integer fields with their minimums, path fields
SPEC_INTEGERS = {"n": 2, "k": 0, "t1": 1, "t2": 1}
SPEC_PATHS = ("family", "code")


def _check_spec(data) -> None:
    """Raise ValueError unless data meets construction_spec.v1.json."""
    if not isinstance(data, dict):
        raise ValueError("construct: spec must be a JSON object")
    unknown = sorted(set(data) - {"kind", *SPEC_INTEGERS, *SPEC_PATHS})
    missing = [key for key in ("kind", "n") if key not in data]
    if unknown or missing:
        raise ValueError(f"construct: spec keys unknown {unknown}, "
                         f"missing {missing}")
    if data["kind"] not in list(KINDS):  # a list: the kind may be unhashable
        raise ValueError(f"construct: kind must be one of {sorted(KINDS)}, "
                         f"got {data['kind']!r}")
    for key, low in SPEC_INTEGERS.items():
        value = data.get(key, low)
        if type(value) is not int or value < low:
            raise ValueError(f"construct: {key!r} must be an integer >= {low}, "
                             f"got {value!r}")
    for key in SPEC_PATHS:
        if not isinstance(data.get(key, ""), str):
            raise ValueError(f"construct: {key!r} must be a path string")


def _cmd_construct(args: argparse.Namespace) -> int:
    started = time.time()
    spec_data = json.loads(Path(args.spec).read_text())
    _check_spec(spec_data)
    kind = spec_data["kind"]
    family = None
    base = None
    if "family" in spec_data:
        family = read_family(spec_data["family"])
    if "code" in spec_data:
        base = read_code(spec_data["code"])
    spec = ConstructionSpec(kind=kind, n=spec_data["n"], family=family,
                            base_code=base, k=spec_data.get("k"),
                            t1=spec_data.get("t1"), t2=spec_data.get("t2"))
    result = run_construction(spec, strict=args.strict)
    windows = claimed_windows(spec)
    verification = []
    ok = True
    for t1, t2 in windows:
        witness = verify_overlap_free(result, t1, t2)
        if witness is None:
            verification.append({"t1": t1, "t2": t2, "ok": True})
        else:
            ok = False
            verification.append({"t1": t1, "t2": t2, "ok": False,
                                 "witness": asdict(witness)})
    report = {
        "kind": kind,
        "q": result.q,
        "n": result.n,
        "size": len(result.words),
        "windows": verification,
        "ok": ok,
    }
    if ok:
        write_code(result, args.out, comment=f"{kind} construction")
        _emit_manifest(args.out, "construct", spec_data, args.seed, started)
    _write_json(args.report, report, "construct", spec_data, args.seed, started)
    return EXIT_OK if ok else EXIT_VERIFICATION


def _cmd_verify(args: argparse.Namespace) -> int:
    c = read_code(args.code)
    witness = verify_overlap_free(c, args.t1, args.t2)
    payload = {
        "q": c.q, "n": c.n, "size": len(c.words),
        "t1": args.t1, "t2": args.t2,
        "ok": witness is None,
    }
    if witness is not None:
        payload["witness"] = asdict(witness)
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if witness is None else EXIT_VERIFICATION


def _report_payload(q: int, n: int, t1: int, t2: int) -> dict:
    report = bound_report(q, n, t1, t2)
    return {
        "q": q, "n": n, "t1": t1, "t2": t2,
        "rules": [{"id": e.rule, "kind": e.kind, "value": e.value,
                   "note": e.note} for e in report.entries],
        "best_lower": report.best_lower,
        "best_upper": report.best_upper,
        "exact": report.exact,
    }


def _cmd_bounds(args: argparse.Namespace) -> int:
    started = time.time()
    params = {"q": args.q, "n": args.n, "t1": args.t1, "t2": args.t2}
    if args.t1 is not None and args.t2 is not None:
        payload = _report_payload(args.q, args.n, args.t1, args.t2)
        _write_json(args.json, payload, "bounds", params, args.seed, started)
        return EXIT_OK
    if args.csv is None:
        sys.stderr.write("bounds: give --t1 and --t2, or --csv for a sweep\n")
        return EXIT_USAGE
    with open(args.csv, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["q", "n", "t1", "t2", "best_lower", "best_upper",
                         "exact"])
        for t1 in range(1, args.n):
            for t2 in range(t1, args.n):
                report = bound_report(args.q, args.n, t1, t2)
                writer.writerow([args.q, args.n, t1, t2, report.best_lower,
                                 report.best_upper,
                                 "" if report.exact is None else report.exact])
    _emit_manifest(args.csv, "bounds", params, args.seed, started)
    return EXIT_OK


def _cmd_search(args: argparse.Namespace) -> int:
    started = time.time()
    result = max_code(args.q, args.n, args.t1, args.t2,
                      node_budget=args.budget, method=args.method)
    payload = {
        "q": args.q, "n": args.n, "t1": args.t1, "t2": args.t2,
        "size": result.size,
        "exact": result.exact,
        "nodes_expanded": result.nodes,
        "method": result.method,
        "witness": result.code.sorted_words(),
    }
    params = {"q": args.q, "n": args.n, "t1": args.t1, "t2": args.t2,
              "budget": args.budget, "method": args.method}
    _write_json(args.json, payload, "search", params, args.seed, started)
    return EXIT_OK if result.exact else EXIT_BUDGET


def _family_value(task: tuple) -> int:
    f, n, k = task
    return code_size_1k(f, n, k)


def table_rows(which: str, q: int, n_max: int, *, max_families: int | None,
               jobs: int = 1, search_budget: int = 2_000_000):
    """Rows (n, base_max, n_families_at_max, value, bold, truncated) for the
    layered-construction tables.

    table1: expand maximum non-overlapping codes of length n-1 to window
    (1, n-2) codes of length n; bold marks value > q * base_max.
    table2: length n-2 codes to window (1, n-3) at length n; bold marks
    value > q^2 * base_max.
    """
    if which == "table1":
        n_lo, gap = 5, 1
    elif which == "table2":
        n_lo, gap = 6, 2
    else:
        raise ValueError("which must be table1 or table2")
    for n in range(n_lo, n_max + 1):
        base_n = n - gap
        k = base_n - 1
        base = max_code(q, base_n, 1, base_n - 1, node_budget=search_budget)
        best = 0
        count = 0
        truncated = False
        try:
            tasks = []
            for f in enumerate_families(q, k, max_families=max_families):
                if non_overlapping_size(f, base_n) == base.size:
                    tasks.append((f, n, k))
            if jobs > 1 and len(tasks) > 64:
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    values = list(pool.map(_family_value, tasks, chunksize=64))
            else:
                values = [_family_value(t) for t in tasks]
            for value in values:
                count += 1
                best = max(best, value)
        except EnumerationBudgetExceeded:
            truncated = True
        bold = best > q ** gap * base.size
        yield {"n": n, "base_max": base.size, "families_at_max": count,
               "value": best, "bold": bold, "truncated": truncated,
               "base_exact": base.exact}
        if truncated:
            return


def _cmd_tables(args: argparse.Namespace) -> int:
    started = time.time()
    params = {"which": args.which, "q": args.q, "n_max": args.n_max,
              "max_families": args.max_families}
    rows = list(table_rows(args.which, args.q, args.n_max,
                           max_families=args.max_families, jobs=args.jobs))
    out = args.csv
    handle = open(out, "w", newline="") if out else sys.stdout
    try:
        writer = csv.writer(handle)
        writer.writerow(["which", "q", "n", "base_max", "families_at_max",
                         "value", "bold", "truncated"])
        for row in rows:
            writer.writerow([args.which, args.q, row["n"], row["base_max"],
                             row["families_at_max"], row["value"],
                             "yes" if row["bold"] else "no",
                             "yes" if row["truncated"] else "no"])
    finally:
        if out:
            handle.close()
            _emit_manifest(out, "tables", params, args.seed, started)
    if any(row["truncated"] for row in rows):
        return EXIT_BUDGET
    return EXIT_OK


def _check_edits(data) -> None:
    """Raise ValueError unless data is a simulate --edits object; type() is
    compared so that a bool is not taken for an integer."""
    if not isinstance(data, dict):
        raise ValueError("simulate: edits file must be a JSON object")
    message = data.get("message")
    if not (isinstance(message, list)
            and all(type(i) is int for i in message)):
        raise ValueError(f"simulate: 'message' must be a list of integers, "
                         f"got {message!r}")
    window = data.get("window")
    if not (isinstance(window, list) and len(window) == 2
            and all(type(t) is int for t in window)):
        raise ValueError(f"simulate: 'window' must hold two integers, "
                         f"got {window!r}")
    edits = data.get("edits", [])
    if not (isinstance(edits, list)
            and all(isinstance(e, dict) and type(e.get("position")) is int
                    and type(e.get("burst_length")) is int for e in edits)):
        raise ValueError("simulate: 'edits' must be a list of objects with "
                         "integer 'position' and 'burst_length'")


def _cmd_simulate(args: argparse.Namespace) -> int:
    started = time.time()
    c = read_code(args.code)
    edits_data = json.loads(Path(args.edits).read_text())
    _check_edits(edits_data)
    message = edits_data["message"]
    t1, t2 = edits_data["window"]
    witness = verify_overlap_free(c, t1, t2)
    if witness is not None:
        sys.stderr.write(f"simulate: code fails its window: {witness}\n")
        return EXIT_VERIFICATION
    stream = encode_stream(c, message)
    runs = []
    specs: list[CorruptionSpec] = []
    if args.exhaustive:
        lo, hi = burst_range(c.n, t1, t2)
        limit = len(stream.symbols) - 3 * c.n
        for pos in range(0, max(0, limit) + 1):
            for b in range(lo, hi + 1):
                specs.append(CorruptionSpec("delete", pos, b))
                for sym in product(DIGITS[: c.q], repeat=b):
                    specs.append(CorruptionSpec("insert", pos, b,
                                                inserted="".join(sym)))
    else:
        for spec in edits_data["edits"]:
            specs.append(CorruptionSpec(
                kind=spec["kind"], position=spec["position"],
                burst_length=spec["burst_length"],
                seed=spec.get("seed", args.seed),
                inserted=spec.get("inserted")))
    for spec in specs:
        corrupted = corrupt(stream, spec)
        events = scan_decode(corrupted, c)
        offset = detection_offset(events, spec.position)
        runs.append({
            "edit": {k: v for k, v in asdict(spec).items() if v is not None},
            "events": [
                {k: v for k, v in asdict(ev).items() if v is not None}
                for ev in events],
            "detection_offset": offset,
        })
    payload = {"code": str(args.code), "window": [t1, t2],
               "message_length": len(message), "runs": runs}
    params = {"code": str(args.code), "edits": str(args.edits),
              "exhaustive": bool(args.exhaustive)}
    _write_json(args.json, payload, "simulate", params, args.seed, started)
    if args.hist:
        counts: dict[int, int] = {}
        for run in runs:
            off = run["detection_offset"]
            if off is not None:
                counts[off] = counts.get(off, 0) + 1
        with open(args.hist, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["detection_offset", "count"])
            for off in sorted(counts):
                writer.writerow([off, counts[off]])
        _emit_manifest(args.hist, "simulate", params, args.seed, started)
    return EXIT_OK


def _cmd_families(args: argparse.Namespace) -> int:
    started = time.time()
    if args.validate:
        try:
            read_family(args.validate)
        except FormatError as exc:
            sys.stderr.write(f"{exc}\n")
            return EXIT_VERIFICATION
        sys.stdout.write("ok\n")
        return EXIT_OK
    if args.q is None or args.k is None:
        sys.stderr.write("families: give --q and --k (or --validate FILE)\n")
        return EXIT_USAGE
    chunks = []
    budget_hit = False
    try:
        for f in enumerate_families(args.q, args.k,
                                    max_families=args.max_families):
            chunks.append(format_family(f))
    except EnumerationBudgetExceeded:
        budget_hit = True
    text = "\n".join(chunks)
    if budget_hit:
        text += "\n# TRUNCATED: family budget exhausted\n"
    if args.out:
        Path(args.out).write_text(text)
        params = {"q": args.q, "k": args.k, "max_families": args.max_families}
        _emit_manifest(args.out, "families", params, args.seed, started)
    else:
        sys.stdout.write(text)
    return EXIT_BUDGET if budget_hit else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overlapcodes",
        description="Codes with restricted overlap lengths: construction, "
                    "verification, bounds, exact search, and channel simulation.")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for randomized pieces (inserted symbols)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker cap for parallel stages")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="run a construction from a JSON spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.add_argument("--strict", action="store_true",
                   help="treat duplicate generated words as an error")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="verify a code file against a window")
    p.add_argument("--code", required=True)
    p.add_argument("--t1", type=int, required=True)
    p.add_argument("--t2", type=int, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", help="bound report for one window or a sweep")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t1", type=int)
    p.add_argument("--t2", type=int)
    p.add_argument("--json")
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("search", help="exact maximum-code search")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t1", type=int, required=True)
    p.add_argument("--t2", type=int, required=True)
    p.add_argument("--budget", type=int, default=2_000_000,
                   help="node-expansion budget")
    p.add_argument("--method", default="auto",
                   choices=["auto", "classcount", "rectangle", "quotient",
                            "raw"])
    p.add_argument("--json")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("tables", help="reproduce the expansion tables")
    p.add_argument("--which", required=True, choices=["table1", "table2"])
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--max-families", type=int, default=None)
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("simulate", help="insertion/deletion channel simulation")
    p.add_argument("--code", required=True)
    p.add_argument("--edits", required=True)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--json")
    p.add_argument("--hist")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("families", help="enumerate or validate partition families")
    p.add_argument("--q", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--max-families", type=int, default=None)
    p.add_argument("--out")
    p.add_argument("--validate")
    p.set_defaults(func=_cmd_families)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_VERIFICATION
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
