"""Command-line surface: construct, verify, bounds, search, tables, simulate,
families.  Each command is a thin shell over the library: ``tables`` prints
``constructions.table_rows`` and ``search`` prints ``search.max_code``.

Exit codes: 0 ok, 1 verification failure, 2 usage (a negative ``--budget``
or ``--max-families`` and an option the command would drop too), 3 budget or
size cap exhausted (``bounds`` also when q^n has more digits than the
interpreter's int-to-str limit).  Every artifact goes through ``_emit``: to
stdout when no path is given, else to its file with a ``<file>.manifest.json``
sidecar recording the command, parameters, seed, and the artifact's sha256.
A library warning prints as one ``warning: <message>`` line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
import warnings
from dataclasses import asdict, replace
from itertools import product
from pathlib import Path
from typing import Iterable, Iterator

from . import __version__
from .bounds import bound_report
from .channel import (CorruptionSpec, burst_range, corrupt, detection_offset,
                      encode_stream, scan_decode)
from .constructions import (CodeTooLarge, ConstructionSpec,
                            DisjointnessViolation, claimed_windows,
                            run_construction, table_rows)
from .families import enumerate_families
from .fileio import (FormatError, format_code, format_family, read_code,
                     read_family, sha256_digest)
from .search import DEFAULT_NODE_BUDGET, max_code
from .words import DIGITS, CodeSet, check_alphabet, verify_overlap_free

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


def _emit(args: argparse.Namespace, path: str | None, chunks: Iterable[str],
          parameters: dict) -> None:
    """Write chunks, as they come, to stdout when path is None, else to path
    (newline="" so CSV row ends stay as written) with its manifest sidecar."""
    if path is None:
        sys.stdout.writelines(chunks)
        return
    with open(path, "w", newline="") as handle:
        handle.writelines(chunks)
    manifest = {"command": args.command, "parameters": parameters,
                "version": __version__, "seed": args.seed,
                "wall_time_s": round(time.time() - args.started, 3),
                "outputs": {path: sha256_digest(path)}}
    Path(path + ".manifest.json").write_text(_json(manifest))


# construction_spec.v1.json: integer fields with their minimums, path fields
SPEC_INTEGERS = {"n": 2, "k": 0, "t1": 1, "t2": 1}
SPEC_PATHS = ("family", "code")


def _check_spec(data) -> None:
    """Raise ValueError unless data has the keys, integers and path strings
    of construction_spec.v1.json; ``ConstructionSpec`` checks the kind."""
    if not isinstance(data, dict):
        raise ValueError("construct: spec must be a JSON object")
    unknown = sorted(set(data) - {"kind", *SPEC_INTEGERS, *SPEC_PATHS})
    missing = [key for key in ("kind", "n") if key not in data]
    if unknown or missing:
        raise ValueError(f"construct: spec keys unknown {unknown}, "
                         f"missing {missing}")
    for key, low in SPEC_INTEGERS.items():
        value = data.get(key, low)
        if type(value) is not int or value < low:
            raise ValueError(f"construct: {key!r} must be an integer >= {low}, "
                             f"got {value!r}")
    for key in SPEC_PATHS:
        if not isinstance(data.get(key, ""), str):
            raise ValueError(f"construct: {key!r} must be a path string")


def _window_report(c: CodeSet, t1: int, t2: int) -> dict:
    """{t1, t2, ok} for c on the window, with the witness when not ok."""
    witness = verify_overlap_free(c, t1, t2)
    if witness is None:
        return {"t1": t1, "t2": t2, "ok": True}
    return {"t1": t1, "t2": t2, "ok": False, "witness": asdict(witness)}


def _cmd_construct(args: argparse.Namespace) -> int:
    spec_data = json.loads(Path(args.spec).read_text())
    _check_spec(spec_data)
    read = {"family": read_family, "code": read_code}
    spec = ConstructionSpec(**{key: read[key](value) if key in read else value
                               for key, value in spec_data.items()})
    result = run_construction(spec)
    verification = [_window_report(result, t1, t2)
                    for t1, t2 in claimed_windows(spec)]
    ok = all(record["ok"] for record in verification)
    report = {
        "kind": spec.kind,
        "q": result.q,
        "n": result.n,
        "size": len(result.words),
        "windows": verification,
        "ok": ok,
    }
    if ok:
        _emit(args, args.out,
              [format_code(result, comment=f"{spec.kind} construction")],
              spec_data)
    _emit(args, args.report, [_json(report)], spec_data)
    return EXIT_OK if ok else EXIT_VERIFICATION


def _cmd_verify(args: argparse.Namespace) -> int:
    c = read_code(args.code)
    payload = {"q": c.q, "n": c.n, "size": len(c.words),
               **_window_report(c, args.t1, args.t2)}
    sys.stdout.write(_json(payload))
    return EXIT_OK if payload["ok"] else EXIT_VERIFICATION


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
    params = {"q": args.q, "n": args.n, "t1": args.t1, "t2": args.t2}
    window = args.t1 is not None
    if window != (args.t2 is not None) or not window and args.csv is None:
        sys.stderr.write("bounds: give both --t1 and --t2, or neither and "
                         "--csv for a sweep\n")
        return EXIT_USAGE
    unused = "csv" if window else "json"
    if getattr(args, unused) is not None:
        sys.stderr.write(f"bounds: --{unused} does not apply here; one window "
                         "writes --json, a sweep --csv\n")
        return EXIT_USAGE
    check_alphabet(args.q)  # the sweep below may have no window to check
    if args.n < 2:
        sys.stderr.write(f"bounds: --n must be >= 2, got {args.n}\n")
        return EXIT_USAGE
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if limit and args.n * math.log10(args.q) >= limit:  # rule values <= q^n
        raise CodeTooLarge(f"bounds: {args.q}^{args.n} has more than {limit} "
                           "digits, the int-to-str limit")
    if window:
        payload = _report_payload(args.q, args.n, args.t1, args.t2)
        _emit(args, args.json, [_json(payload)], params)
        return EXIT_OK
    rows = [["q", "n", "t1", "t2", "best_lower", "best_upper", "exact"]]
    for t1 in range(1, args.n):
        for t2 in range(t1, args.n):
            report = bound_report(args.q, args.n, t1, t2)
            rows.append([args.q, args.n, t1, t2, report.best_lower,
                         report.best_upper,
                         "" if report.exact is None else report.exact])
    _emit(args, args.csv, [_csv(rows)], params)
    return EXIT_OK


def _cmd_search(args: argparse.Namespace) -> int:
    result = max_code(args.q, args.n, args.t1, args.t2,
                      node_budget=args.budget)
    payload = {
        "q": args.q, "n": args.n, "t1": args.t1, "t2": args.t2,
        "size": result.size,
        "exact": result.exact,
        "nodes_expanded": result.nodes,
        "method": result.method,
        "witness": result.code.sorted_words(),
    }
    params = {"q": args.q, "n": args.n, "t1": args.t1, "t2": args.t2,
              "budget": args.budget}
    _emit(args, args.json, [_json(payload)], params)
    return EXIT_OK if result.exact else EXIT_BUDGET


def _cmd_tables(args: argparse.Namespace) -> int:
    params = {"which": args.which, "q": args.q, "n_max": args.n_max}
    lines = [["which", "q", "n", "base_max", "families_at_max", "value",
              "bold"]]
    lines += ([args.which, args.q, row["n"], row["base_max"],
               row["families_at_max"], row["value"],
               "yes" if row["bold"] else "no"]
              for row in table_rows(args.which, args.q, args.n_max))
    _emit(args, args.csv, [_csv(lines)], params)
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
            and all(isinstance(e, dict) and isinstance(e.get("kind"), str)
                    and type(e.get("position")) is int
                    and type(e.get("burst_length")) is int
                    and isinstance(e.get("inserted", ""), str)
                    and type(e.get("seed", 0)) is int for e in edits)):
        raise ValueError("simulate: 'edits' must be a list of objects with "
                         "string 'kind', integer 'position' and "
                         "'burst_length', and optional string 'inserted' "
                         "and integer 'seed'")


def _cmd_simulate(args: argparse.Namespace) -> int:
    c = read_code(args.code)
    edits_data = json.loads(Path(args.edits).read_text())
    _check_edits(edits_data)
    message = edits_data["message"]
    t1, t2 = edits_data["window"]
    if args.exhaustive and not message:
        raise ValueError("simulate: --exhaustive needs a non-empty 'message'")
    if args.exhaustive and edits_data.get("edits"):
        raise ValueError("simulate: 'edits' not used with --exhaustive")
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
        for spec in edits_data.get("edits", []):
            specs.append(CorruptionSpec(
                kind=spec["kind"], position=spec["position"],
                burst_length=spec["burst_length"],
                seed=spec.get("seed", args.seed),
                inserted=spec.get("inserted")))
    for spec in specs:
        corrupted = corrupt(stream, spec)
        events = scan_decode(corrupted, c)
        offset = detection_offset(events, spec.position)
        if spec.kind == "insert":  # record drawn symbols for a replay
            spec = replace(spec, inserted=corrupted.symbols[
                spec.position:spec.position + spec.burst_length])
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
    _emit(args, args.json, [_json(payload)], params)
    if args.hist:
        counts: dict[int, int] = {}
        for run in runs:
            off = run["detection_offset"]
            if off is not None:
                counts[off] = counts.get(off, 0) + 1
        _emit(args, args.hist, [_csv([["detection_offset", "count"],
                                      *sorted(counts.items())])], params)
    return EXIT_OK


def _cmd_families(args: argparse.Namespace) -> int:
    if args.validate:
        dropped = [f"--{option.replace('_', '-')}" for option in
                   ("q", "k", "out", "max_families")
                   if getattr(args, option) is not None]
        if dropped:
            sys.stderr.write(f"families: {' '.join(dropped)} not used with "
                             "--validate FILE\n")
            return EXIT_USAGE
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
    families = enumerate_families(args.q, args.k)  # raises before any write
    budget_hit = False

    def chunks() -> Iterator[str]:
        """Families separated by one blank line, each written as it is
        enumerated; a family past --max-families ends the text with the
        truncation line."""
        nonlocal budget_hit
        for i, f in enumerate(families):
            if i == args.max_families:
                budget_hit = True
                yield "\n# TRUNCATED: family budget exhausted\n"
                return
            yield ("\n" if i else "") + format_family(f)

    params = {"q": args.q, "k": args.k, "max_families": args.max_families}
    _emit(args, args.out, chunks(), params)
    return EXIT_BUDGET if budget_hit else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overlapcodes",
        description="Codes with restricted overlap lengths: construction, "
                    "verification, bounds, exact search, and channel simulation.")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for randomized pieces (inserted symbols)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="run a construction from a JSON spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
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
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                   help="node-expansion budget (default %(default)s)")
    p.add_argument("--json")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("tables", help="reproduce the expansion tables")
    p.add_argument("--which", required=True, choices=["table1", "table2"])
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
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
    args.started = time.time()
    for option in ("budget", "max_families"):
        value = getattr(args, option, None)
        if value is not None and value < 0:
            sys.stderr.write(f"error: --{option.replace('_', '-')} must be "
                             f">= 0, got {value}\n")
            return EXIT_USAGE
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return args.func(args)
        except (FormatError, DisjointnessViolation) as exc:
            sys.stderr.write(f"{exc}\n")
            return EXIT_VERIFICATION
        except CodeTooLarge as exc:
            sys.stderr.write(f"{exc}\n")
            return EXIT_BUDGET
        except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_USAGE
        finally:
            for warning in caught:
                sys.stderr.write(f"warning: {warning.message}\n")


if __name__ == "__main__":
    sys.exit(main())
