"""Regenerate the expected outputs every benchmark run checks against.

    python3 perfbench/make_reference.py

Runs each workload's task set on its full input population (every q=3
depth-4 family and every channel code, not a seeded draw) and writes
``reference.json`` plus ``construct_q3k4.txt``, the digest of the
construction suite on the i-th q=3 depth-4 family on line i.  Aborts if any
output fails an independent check: a reference must never record a wrong
answer.
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402
from tracing import NoTracer  # noqa: E402


def main() -> int:
    warnings.simplefilter("ignore")  # expanded-t1t2 layers may overlap
    lib = W.import_library()
    observed: dict[str, dict] = {}
    runs = [(W.search_inputs(W.DESK_WINDOWS, W.DESK_BUDGET)(lib, 0), W.search_pass),
            (W.search_inputs(W.WIDE_WINDOWS, W.WIDE_BUDGET)(lib, 0), W.search_pass),
            (W.construct_inputs(lib, 0, draw=None, channel=None), W.construct_pass),
            (W.maximal_inputs(lib, 0), W.maximal_pass)]
    for inputs, run in runs:
        p = W.Pass(lib, NoTracer(), None, 0, False)
        run(p, inputs)
        if p.failures:
            print("\n".join(p.failures), file=sys.stderr)
            return 1
        for section, entries in p.observed.items():
            observed.setdefault(section, {}).update(entries)
    construct = observed["construct"]
    q3 = sorted((k for k in construct if k.startswith("3:4:")),
                key=lambda k: int(k.rsplit(":", 1)[1]))
    W.CONSTRUCT_DIGESTS.write_text("".join(construct.pop(k) + "\n" for k in q3))
    reference = {"parameters": W.PARAMETERS, **observed}
    W.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {W.REFERENCE.name} and {len(q3)} digests to "
          f"{W.CONSTRUCT_DIGESTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
