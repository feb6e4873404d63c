"""Seconds-long self-test of the harness on the tiny dataset.

Runs every workload once untraced and once traced, scaled down to the tiny
network, and checks that the result lines carry exactly the metric names and
units ``BENCHMARK.json`` declares, that the answers pass their checks, and
that the parity check does fail when the reference is tampered with.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import replace
from pathlib import Path

from harness import mismatches, reference, run_workload
from offline import TINY, ensure_store, source_digest
from stats import percentile
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent


def self_test(root: Path, work: Path) -> int:
    from repro.persistence.store import ArtifactStore

    shutil.rmtree(work, ignore_errors=True)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures: list[str] = []
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        failures.append("BENCHMARK.json names a workload workloads.py does not define")

    store, _ = ensure_store(work, TINY, source_digest(root))
    pace_graph, _ = ArtifactStore.open(store).load_index()
    network = pace_graph.network
    vertices = sorted(network.vertex_ids())
    distances = [network.euclidean_distance(a, b) for a in vertices for b in vertices if a != b]
    long_m, short_m = percentile(distances, 50), percentile(distances, 30)
    tiny = {
        "http-hot": replace(WORKLOADS["http-hot"], min_m=long_m, rate=24.0,
                            pass_requests=24, distinct=12, destinations=3),
        "fresh-longhaul": replace(WORKLOADS["fresh-longhaul"], min_m=long_m, rate=12.0,
                                  pass_requests=12),
        "churn-shorthaul": replace(WORKLOADS["churn-shorthaul"], max_m=short_m, rate=40.0,
                                   pass_requests=40, cache_bytes=12_000),
    }
    for name, workload in tiny.items():
        for trace in (False, True):
            result, record = run_workload(
                root, work, TINY, workload, seed=1, seconds=1.0, trace=trace
            )
            label = f"{name} trace={int(trace)}"
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{label}: result keys {sorted(result)}")
            got = {key: metric["unit"] for key, metric in result["metrics"].items()}
            if got != units[trace]:
                failures.append(f"{label}: metrics {sorted(set(got) ^ set(units[trace]))} "
                                "or their units differ from BENCHMARK.json")
            if not result["correct"] or result["attempted"] < 1:
                failures.append(f"{label}: {record['problems']}")
            print(f"self-test {label}: {result['attempted']} requests, "
                  f"correct={result['correct']}", flush=True)

    inputs = generate(tiny["fresh-longhaul"], pace_graph, seed=1, seconds=1.0)
    answers = reference(store, inputs)["answers"]
    tampered = json.loads(json.dumps(answers))
    tampered["0"][3] = repr(float(tampered["0"][3]) * 0.5 + 0.25)
    if mismatches(answers, answers):
        failures.append("parity check flags identical answers")
    if mismatches(answers, tampered) != ["0"]:
        failures.append("parity check does not catch a tampered reference")

    for failure in failures:
        print(f"self-test FAILED: {failure}")
    print("self-test passed" if not failures else f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0
