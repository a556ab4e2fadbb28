"""Toy-size smoke check of the whole benchmark, in one process, in seconds.

    python3 perfbench/smoke.py

Runs every workload untraced and traced on a toy corpus and checks that each
run is correct, that no operation failed, that the metrics are exactly the
ones BENCHMARK.json declares, with their units, and that the traced run puts
back every function it wrapped.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run  # first: it pins the BLAS threads before numpy is imported

from encsearch import engine, forest, partitioning

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    originals = (forest.gdfs, forest.encrypt_matrix, partitioning.cluster_indexes,
                 engine.build_dictionary, engine.Server.search)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result = run.run_workload(workload, seed=7, seconds=0.5, trace=bool(trace), size="toy")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            where = f"{workload} trace={trace}"
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['correct']=} {result['failed']=}")
            if got != declared[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json")
            if trace == 0 and any(m["value"] <= 0 for m in result["metrics"].values()):
                problems.append(f"{where}: an end-to-end metric is not positive")
    now = (forest.gdfs, forest.encrypt_matrix, partitioning.cluster_indexes,
           engine.build_dictionary, engine.Server.search)
    if any(a is not b for a, b in zip(originals, now)):
        problems.append("tracing left a wrapper installed")
    for p in problems:
        print("SMOKE FAIL:", p)
    print("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
