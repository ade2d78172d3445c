"""The benchmark's four workloads: seeded inputs, one pass over a fixed task
set, and the checks every output must pass.

Every call into the library goes through ``Pass.tr.span`` so that a traced
pass can attribute its time to the module that did the work.  Checks use the
library only as an independent oracle (verification, size formulas, bound
brackets) and otherwise plain Python, so a wrong answer cannot vouch for
itself.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from collections import Counter
from itertools import product
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
CONSTRUCT_DIGESTS = HERE / "construct_q3k4.txt"

LAYERS = ("words", "families", "constructions", "bounds", "search",
          "channel", "fileio")

# Fixed task-set parameters.  The reference records them; changing one
# means regenerating the reference with make_reference.py.
DESK_WINDOWS = [(q, n, t1, t2) for q in (2, 3) for n in range(3, 7)
                for t1 in range(1, n) for t2 in range(t1, n)]
DESK_BUDGET = 1000
WIDE_WINDOWS = [(5, 5, 1, 4), (2, 12, 2, 10)]
WIDE_BUDGET = 200
CONSTRUCT_FAMILIES = 300      # q=3 depth-4 families drawn per run
CHANNEL_CODES = 24            # (1,k) codes given the exhaustive burst run
CHANNEL_MESSAGE = 4           # codewords per channel message
ROUND_TRIP_POINTS = [(3, 5, 4), (3, 6, 4), (3, 6, 5)]
ROUND_TRIP_CODES = 1500       # first maximal codes per round-trip point
CERTIFY_POINTS = {(3, 5, 4): 120, (3, 6, 4): 120, (3, 6, 3): 60}  # families

PARAMETERS = {"desk_budget": DESK_BUDGET, "wide_budget": WIDE_BUDGET,
              "wide_windows": [list(w) for w in WIDE_WINDOWS],
              "channel_message": CHANNEL_MESSAGE,
              "round_trip_points": [list(p) for p in ROUND_TRIP_POINTS],
              "round_trip_codes": ROUND_TRIP_CODES}


class Failure(Exception):
    """An output failed one of the benchmark's checks."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise Failure(message)


def layers() -> SimpleNamespace:
    """The library's modules, imported if they are not yet."""
    return SimpleNamespace(**{layer: importlib.import_module(f"overlapcodes.{layer}")
                              for layer in LAYERS})


def import_library() -> SimpleNamespace:
    """Import every layer afresh, so that set-up time includes the import."""
    for name in [m for m in sys.modules
                 if m == "overlapcodes" or m.startswith("overlapcodes.")]:
        del sys.modules[name]
    return layers()


def load_reference(construct: bool) -> dict:
    """Expected outputs generated by make_reference.py; the 13,176 q=3
    depth-4 family digests are read only when ``construct`` is set."""
    reference = json.loads(REFERENCE.read_text())
    if reference.get("parameters") != PARAMETERS:
        raise RuntimeError(f"{REFERENCE.name} was generated with other task "
                           "parameters; rerun perfbench/make_reference.py")
    if construct:
        digests = CONSTRUCT_DIGESTS.read_text().split()
        reference["construct"].update(
            (f"3:4:{i}", digest) for i, digest in enumerate(digests))
    return reference


def stratified(rng: random.Random, population: int, count: int) -> list[int]:
    """One index drawn from each of ``count`` equal strata of the
    population, so every seed covers the enumeration order evenly and the
    drawn work varies little between seeds."""
    return [rng.randrange(i * population // count, (i + 1) * population // count)
            for i in range(count)]


class Pass:
    """One pass over a workload's task set: runs tasks, counts failures,
    and collects what each task observed for comparison with the reference
    (``reference=None`` collects without comparing)."""

    def __init__(self, lib, tracer, reference: dict | None, number: int,
                 traced: bool):
        self.L = lib
        self.tr = tracer
        self.reference = reference
        self.number = number
        self.traced = traced
        self.stats: Counter = Counter()
        self.attempted = 0
        self.failures: list[str] = []
        self.observed: dict[str, dict] = {}

    def task(self, label: str, fn, *args):
        """Run one task; any exception or failed check fails it."""
        task_id = f"{self.number}:{label}"
        self.attempted += 1
        with self.tr.span("task", task_id):
            try:
                return fn(self, task_id, *args)
            except Exception as exc:  # every task error is a counted failure
                self.failures.append(f"{task_id}: {type(exc).__name__}: {exc}")
                return None

    def observe(self, section: str, key: str, value) -> None:
        self.observed.setdefault(section, {})[key] = value
        if self.reference is None:
            return
        expected = self.reference[section].get(key)
        check(expected is not None, f"no reference entry {section}/{key}")
        if section == "search":
            _compare_search(value, expected)
        else:
            check(value == expected,
                  f"{section}/{key}: {value} differs from reference {expected}")


def _compare_search(got: dict, ref: dict) -> None:
    """A larger incumbent is fine; a different exact size is not."""
    if ref["exact"] and got["exact"]:
        check(got["size"] == ref["size"],
              f"exact size {got['size']} differs from reference {ref['size']}")
    elif ref["exact"]:
        check(got["size"] <= ref["size"],
              f"incumbent {got['size']} exceeds reference maximum {ref['size']}")
    elif got["exact"]:
        check(got["size"] >= ref["size"],
              f"exact size {got['size']} below reference incumbent {ref['size']}")


def verify(p: Pass, task: str, c, t1: int, t2: int) -> None:
    with p.tr.span("words.verify_overlap_free", task):
        witness = p.L.words.verify_overlap_free(c, t1, t2)
    p.stats["words.verify_words"] += len(c.words)
    check(witness is None, f"code fails window ({t1},{t2}): {witness}")


def build_graph(p: Pass, task: str, q: int, n: int, t1: int, t2: int,
                probe: bool = False):
    with p.tr.span("search.build_graph", task) as span:
        graph = p.L.search.build_graph(q, n, t1, t2)
        span["probe"] = probe
    p.stats["search.vertices"] += len(graph.vertices)
    return graph


def window_key(window) -> str:
    return ",".join(map(str, window))


# -- desk-search and wide-search ---------------------------------------------

def search_task(p: Pass, task: str, window, budget: int) -> None:
    """bound_report, then max_code at a fixed node budget.  Traced passes
    time build_graph separately on each window that max_code answered by
    branch and bound."""
    q, n, t1, t2 = window
    with p.tr.span("bounds.bound_report", task):
        report = p.L.bounds.bound_report(q, n, t1, t2)
    p.stats["bounds.reports"] += 1
    p.stats["bounds.pinched"] += report.best_lower == report.best_upper
    with p.tr.span("search.max_code", task) as span:
        result = p.L.search.max_code(q, n, t1, t2, node_budget=budget)
        span["method"] = result.method
    if p.traced and result.method in ("quotient", "raw"):
        build_graph(p, task, q, n, t1, t2, probe=True)
    p.stats["search.nodes"] += result.nodes
    p.stats["search.exact_windows"] += result.exact
    p.stats["search.size_sum"] += result.size
    c = result.code
    check((c.q, c.n) == (q, n), f"witness has q={c.q}, n={c.n}")
    check(len(c.words) == result.size,
          f"witness has {len(c.words)} words, reported size {result.size}")
    verify(p, task, c, t1, t2)
    check(result.size <= report.best_upper,
          f"size {result.size} above upper bound {report.best_upper}")
    # an incumbent cut short by the budget may sit below the lower bound
    check(not result.exact or result.size >= report.best_lower,
          f"exact size {result.size} below lower bound {report.best_lower}")
    p.observe("search", window_key(window),
              {"size": result.size, "exact": result.exact})


def search_inputs(windows, budget):
    def inputs(lib, seed: int) -> dict:
        order = list(windows)
        random.Random(seed).shuffle(order)
        return {"windows": order, "budget": budget}
    return inputs


def search_pass(p: Pass, inputs: dict) -> None:
    for window in inputs["windows"]:
        p.task(window_key(window), search_task, window, inputs["budget"])


# -- construct ---------------------------------------------------------------

def suite(p: Pass, task: str, f):
    """Every construction of the criterion-6 suite on family f, as
    (label, params, code, windows, size oracle or None)."""
    lib = p.L.constructions

    def build(name, *args, **kwargs):
        with p.tr.span(f"constructions.{name}", task):
            return getattr(lib, name)(*args, **kwargs)

    q, d = f.q, f.depth
    layered = build("non_overlapping", f, d + 1, strict=True)
    yield ("layered", (d + 1,), layered, [(1, d)],
           build("non_overlapping_size", f, d + 1))
    one_k = {}
    for n in range(d + 1, min(7, 2 * d + 1) + 1):
        one_k[n] = build("overlap_free_1k", f, n, d, strict=True)
        yield "one-k", (n,), one_k[n], [(1, d)], build("code_size_1k", f, n, d)
    for kk in range(0, min(d - 1, 6 - d) + 1):
        yield ("wmu", (kk,), build("wmu_expanded", f, d + 1, kk, strict=True),
               [(kk + 1, d + kk)], build("wmu_size", f, d + 1, kk))
    for n_base, base in one_k.items():
        for t1 in range(2, min(d, 8 - n_base) + 1):
            yield ("padded", (n_base, t1), build("pad_t1t2", base, t1, d),
                   [(t1, d)], len(base.words) * q ** (t1 - 1))
    for t1 in range(2, 8 - d):
        for t2 in range(max(d + 1, t1), d + t1):
            yield ("padded-full", (t1, t2), build("pad_t1t2", layered, t1, t2),
                   [(t1, t2)], len(layered.words) * q ** (t1 - 1))
    for t1 in range(1, d + 1):
        for n in range(t1 + d, min(7, t1 + 2 * d) + 1):
            # the expansion's layers may overlap, so no size formula applies
            yield ("expanded", (n, t1), build("t1t2_expanded", f, n, t1, d),
                   [(t1, d)], None)
    for n in range(2 * d + 1, 8):
        yield ("simultaneous", (n,), build("simultaneous", f, n, d, strict=True),
               [(1, d), (n - d, n - 1)], build("simultaneous_size", f, n, d))


def code_round_trip(p: Pass, task: str, c) -> None:
    with p.tr.span("fileio.format_code", task):
        text = p.L.fileio.format_code(c)
    with p.tr.span("fileio.parse_code", task):
        back = p.L.fileio.parse_code(text)
    p.stats["fileio.bytes"] += len(text)
    check((back.q, back.n, back.words) == (c.q, c.n, c.words),
          "code file round trip changed the code")


def family_task(p: Pass, task: str, key: str, f, upper: dict) -> None:
    """The whole suite on one family: verify every output on its claimed
    windows, check its size against the formula and the upper bound,
    round-trip it through a code file, and digest it."""
    digest = hashlib.sha256()
    for label, params, c, windows, formula in suite(p, task, f):
        p.stats["constructions.words"] += len(c.words)
        for t1, t2 in windows:
            verify(p, task, c, t1, t2)
            check(len(c.words) <= upper[c.q, c.n, t1, t2],
                  f"{label}{params}: size {len(c.words)} above upper bound")
        check(formula is None or len(c.words) == formula,
              f"{label}{params}: size {len(c.words)} != formula {formula}")
        code_round_trip(p, task, c)
        digest.update(f"{label}{params} {len(c.words)}\n".encode())
        digest.update("\n".join(sorted(c.words)).encode())
    with p.tr.span("fileio.format_family", task):
        text = p.L.fileio.format_family(f)
    with p.tr.span("fileio.parse_family", task):
        back = p.L.fileio.parse_family(text)
    p.stats["fileio.bytes"] += len(text)
    check(back == f, "family file round trip changed the family")
    p.observe("construct", key, digest.hexdigest()[:16])


def enumerate_task(p: Pass, task: str, q: int, k: int) -> list:
    with p.tr.span("families.enumerate_families", task):
        found = list(p.L.families.enumerate_families(q, k))
    p.stats["families.enumerated"] += len(found)
    p.observe("construct", f"count:{q}:{k}", len(found))
    return found


def channel_task(p: Pass, task: str, key: str, c, k: int) -> None:
    """Every single burst of a guaranteed-detection length at each of the
    first 2n stream positions: one deletion and every insertion string.
    The message is fixed per code, so the histogram is too."""
    ch = p.L.channel
    rng = random.Random(key)
    message = [rng.randrange(len(c.words)) for _ in range(CHANNEL_MESSAGE)]
    with p.tr.span("channel.encode_stream", task):
        stream = ch.encode_stream(c, message)
    lo, hi = ch.burst_range(c.n, 1, k)
    symbols = p.L.words.DIGITS[:c.q]
    offsets: Counter = Counter()
    with p.tr.span("channel.decode", task):
        for pos in range(2 * c.n):
            for b in range(lo, hi + 1):
                edits = [ch.CorruptionSpec("delete", pos, b)]
                edits += [ch.CorruptionSpec("insert", pos, b, inserted="".join(s))
                          for s in product(symbols, repeat=b)]
                for spec in edits:
                    events = ch.scan_decode(ch.corrupt(stream, spec), c)
                    offset = ch.detection_offset(events, pos)
                    offsets["undetected" if offset is None else str(offset)] += 1
    p.stats["channel.edits"] += sum(offsets.values())
    p.stats["channel.undetected"] += offsets["undetected"]
    p.observe("channel", key, dict(sorted(offsets.items())))


def channel_pool(lib) -> list:
    """The (1,k) outputs of every q=2 family of depth k <= 4."""
    pool = []
    for k in range(1, 5):
        for i, f in enumerate(lib.families.enumerate_families(2, k)):
            for n in range(k + 1, min(7, 2 * k + 1) + 1):
                pool.append((f"2:{k}:{i}:{n}",
                             lib.constructions.overlap_free_1k(f, n, k), k))
    return pool


def construct_inputs(lib, seed: int, draw: int | None = CONSTRUCT_FAMILIES,
                     channel: int | None = CHANNEL_CODES) -> dict:
    """Seeded draws of q=3 depth-4 families and channel codes (``None``
    takes them all), plus the upper-bound table the outputs are checked
    against."""
    rng = random.Random(seed)
    q3 = list(lib.families.enumerate_families(3, 4))
    picked = range(len(q3)) if draw is None else stratified(rng, len(q3), draw)
    pool = channel_pool(lib)
    sample = (range(len(pool)) if channel is None
              else stratified(rng, len(pool), channel))
    upper = {(q, n, t1, t2): lib.bounds.bound_report(q, n, t1, t2).best_upper
             for q in (2, 3) for n in range(2, 8)
             for t1 in range(1, n) for t2 in range(t1, n)}
    return {"drawn": [(f"3:4:{i}", q3[i]) for i in picked],
            "channel": [pool[i] for i in sample], "upper": upper}


def construct_pass(p: Pass, inputs: dict) -> None:
    for k in range(1, 5):
        for i, f in enumerate(p.task(f"enumerate:2:{k}", enumerate_task, 2, k)
                              or ()):
            p.task(f"family:2:{k}:{i}", family_task, f"2:{k}:{i}", f,
                   inputs["upper"])
    for key, f in inputs["drawn"]:
        p.task(f"family:{key}", family_task, key, f, inputs["upper"])
    for key, c, k in inputs["channel"]:
        p.task(f"channel:{key}", channel_task, key, c, k)


# -- maximal -----------------------------------------------------------------

def round_trip_task(p: Pass, task: str, state: dict, k: int) -> None:
    """Next maximal code in enumeration order, rebuilt from its family."""
    with p.tr.span("search.enumerate_maximal_codes", task):
        c = next(state["codes"], None)
    if c is None:
        state["ended"] = True
        raise Failure("enumeration ended before the round-trip cap")
    state["count"] += 1
    state["digest"].update(("\n" + ",".join(sorted(c.words))).encode())
    p.stats["search.maximal_codes"] += 1
    with p.tr.span("families.family_from_code", task):
        f = p.L.families.family_from_code(c, k)
    with p.tr.span("constructions.overlap_free_1k", task):
        rebuilt = p.L.constructions.overlap_free_1k(f, c.n, k)
    p.stats["constructions.words"] += len(rebuilt.words)
    check(rebuilt.words == c.words, "round trip rebuilt a different code")


def count_task(p: Pass, task: str, label: str, state: dict) -> None:
    p.observe("maximal", label, {"count": state["count"],
                                 "digest": state["digest"].hexdigest()[:16]})


def certify_task(p: Pass, task: str, f, n: int, k: int, graph) -> None:
    """The family-level certificate must agree with a direct maximality
    probe on the prebuilt graph."""
    with p.tr.span("search.maximality_certificate", task):
        verdict = p.L.search.maximality_certificate(f, n, k).verdict
    with p.tr.span("constructions.overlap_free_1k", task):
        c = p.L.constructions.overlap_free_1k(f, n, k)
    p.stats["constructions.words"] += len(c.words)
    with p.tr.span("search.is_maximal", task):
        maximal = p.L.search.is_maximal(c, 1, k, graph)
    if verdict == "certified-maximal":
        check(maximal, "certified family gives a non-maximal code")
    elif verdict == "condition-failure":
        check(not maximal, "failed certificate but the code is maximal")
    else:
        check(f.q == 2 and n % 2 == 0, f"verdict {verdict!r} outside the "
              "binary even-length case")


def maximal_inputs(lib, seed: int) -> dict:
    rng = random.Random(seed)
    populations = {(q, k): list(lib.families.enumerate_families(q, k))
                   for q, _, k in CERTIFY_POINTS}
    certify = {}
    for (q, n, k), count in CERTIFY_POINTS.items():
        fams = populations[q, k]
        certify[q, n, k] = [(i, fams[i]) for i in stratified(rng, len(fams), count)]
    return {"certify": certify}


def maximal_pass(p: Pass, inputs: dict) -> None:
    graphs = {}
    for q, n, k in dict.fromkeys(ROUND_TRIP_POINTS + list(CERTIFY_POINTS)):
        graphs[q, n, k] = p.task(f"graph:{window_key((q, n, k))}", build_graph,
                                 q, n, 1, k)
    for q, n, k in ROUND_TRIP_POINTS:
        label = window_key((q, n, k))
        if graphs[q, n, k] is None:
            continue
        state = {"codes": p.L.search.enumerate_maximal_codes(
                     q, n, 1, k, graph=graphs[q, n, k]),
                 "count": 0, "digest": hashlib.sha256(), "ended": False}
        for i in range(ROUND_TRIP_CODES):
            p.task(f"round-trip:{label}:{i}", round_trip_task, state, k)
            if state["ended"]:
                break
        p.task(f"count:{label}", count_task, label, state)
    for (q, n, k), fams in inputs["certify"].items():
        if graphs[q, n, k] is None:
            continue
        for i, f in fams:
            p.task(f"certify:{window_key((q, n, k))}:{i}", certify_task,
                   f, n, k, graphs[q, n, k])


WORKLOADS = {
    "desk-search": (search_inputs(DESK_WINDOWS, DESK_BUDGET), search_pass),
    "wide-search": (search_inputs(WIDE_WINDOWS, WIDE_BUDGET), search_pass),
    "construct": (construct_inputs, construct_pass),
    "maximal": (maximal_inputs, maximal_pass),
}
