"""Tests of the benchmark itself: seeded inputs, the failure accounting, and
the trace records.  They run small slices of the task sets, never a timed
pass."""

from __future__ import annotations

import copy
import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as W  # noqa: E402
from tracing import NoTracer, Tracer  # noqa: E402

SMALL = (2, 4, 1, 2)       # settled at the root of the search
BRANCHING = (2, 6, 3, 5)   # exact in the reference, needs branching


@pytest.fixture(scope="module")
def lib():
    return W.layers()


@pytest.fixture(scope="module")
def reference():
    return W.load_reference(construct=False)


def inputs_digest(name, inputs):
    if name.endswith("-search"):
        return inputs["windows"]
    if name == "construct":
        return ([key for key, _ in inputs["drawn"]],
                [key for key, _, _ in inputs["channel"]])
    return {point: [i for i, _ in fams]
            for point, fams in inputs["certify"].items()}


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_same_seed_same_inputs(lib, name):
    make_inputs, _ = W.WORKLOADS[name]
    first = inputs_digest(name, make_inputs(lib, 7))
    assert first == inputs_digest(name, make_inputs(lib, 7))
    if name != "wide-search":  # two windows have only two orders
        assert first != inputs_digest(name, make_inputs(lib, 8))


def run_task(lib, reference, fn, *args):
    p = W.Pass(lib, NoTracer(), reference, 0, False)
    p.task("t", fn, *args)
    return p


def test_clean_tasks_pass(lib, reference):
    p = run_task(lib, reference, W.search_task, SMALL, W.DESK_BUDGET)
    f = W.enumerate_task(p, "t", 2, 1)[0]
    p.task("f", W.family_task, "2:1:0", f, W.construct_inputs(lib, 1)["upper"])
    assert p.attempted == 2 and p.failures == []


def test_corrupted_witness_fails(lib, reference):
    def corrupted(*args, **kwargs):
        result = lib.search.max_code(*args, **kwargs)
        c = result.code
        words = sorted(c.words)[1:] + ["0" * c.n]  # same size, self-overlapping
        return dataclasses.replace(result, code=lib.words.code(
            c.q, c.n, words, c.window))

    broken = SimpleNamespace(**vars(lib))
    broken.search = SimpleNamespace(max_code=corrupted,
                                    build_graph=lib.search.build_graph)
    p = run_task(broken, reference, W.search_task, SMALL, W.DESK_BUDGET)
    assert len(p.failures) == 1 and "fails window" in p.failures[0]


def test_wrong_reference_entry_fails(lib, reference):
    wrong = copy.deepcopy(reference)
    wrong["search"][W.window_key(SMALL)]["size"] += 1
    p = run_task(lib, wrong, W.search_task, SMALL, W.DESK_BUDGET)
    assert len(p.failures) == 1 and "differs from reference" in p.failures[0]

    wrong["construct"]["2:1:0"] = "0" * 16
    f = next(lib.families.enumerate_families(2, 1))
    p = run_task(lib, wrong, W.family_task, "2:1:0", f,
                 W.construct_inputs(lib, 1)["upper"])
    assert len(p.failures) == 1 and "differs from reference" in p.failures[0]


def test_budget_exhaustion_alone_is_not_a_failure(lib, reference):
    assert reference["search"][W.window_key(BRANCHING)]["exact"]
    p = run_task(lib, reference, W.search_task, BRANCHING, 1)
    assert p.stats["search.exact_windows"] == 0
    assert p.failures == []


def test_traced_pass_records_linked_spans(lib, reference):
    tracer = Tracer()
    p = W.Pass(lib, tracer, reference, 3, True)
    with tracer.span("pass"):
        p.task(W.window_key(BRANCHING), W.search_task, BRANCHING, 1)
    names = [s["name"] for s in tracer.spans]
    assert names == ["pass", "task", "bounds.bound_report", "search.max_code",
                     "search.build_graph", "words.verify_overlap_free"]
    task = tracer.spans[1]
    assert task["parent"] == 0 and task["task"] == "3:2,6,3,5"
    for s in tracer.spans[2:]:
        assert s["parent"] == task["id"] and s["task"] == task["task"]
        assert task["start"] <= s["start"] <= s["end"] <= task["end"]


def test_refuses_to_run_without_the_library(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "desk-search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, check=False)
    assert done.returncode != 0 and done.stdout == ""
