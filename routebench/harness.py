"""Measure one workload: inputs, worker processes, answer checks, metrics.

The workload's request list is generated here, before any set-up clock
starts; set-up and the measured passes happen in fresh worker processes
(``child.py``); every answer is checked here against an in-process
reference, computed once per source digest and population and kept in the
work directory, so all runs of the same code must answer alike.

A run sends the workload's population in several passes from one process
(in process, each pass to a freshly booted engine with emptied memos, so
every pass starts from the same state).  For a calibrated workload every
time, set-up included, is scaled to a reference machine speed measured by
``calibrate.py`` within each pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from calibrate import REFERENCE_S
from offline import ensure_store, source_digest
from stats import environment, percentile, tail_percentile
from workloads import Inputs, Workload, describe, generate

HERE = Path(__file__).resolve().parent

END_TO_END = {
    "setup_s": "s",
    "throughput_qps": "requests/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "answered_share": "fraction",
    "found_share": "fraction",
    "mean_probability": "probability",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "http.client_overhead_ms.p50": "ms",
    "serving.server.self_ms.p50": "ms",
    "serving.admission.wait_ms.p50": "ms",
    "serving.admission.wait_ms.p99": "ms",
    "serving.admission.rejected": "count",
    "serving.reload.lease_ms.p50": "ms",
    "routing.service.self_ms.p50": "ms",
    "routing.search.ms.p50": "ms",
    "routing.search.ms.p99": "ms",
    "routing.search.explored.mean": "count",
    "routing.search.truncated_share": "fraction",
    "routing.accel.expand_calls": "count",
    "routing.accel.expand_ms.total": "ms",
    "routing.accel.eval_memo_hit_ratio": "fraction",
    "routing.accel.conv_memo_hit_ratio": "fraction",
    "routing.residency.resolve_ms.p50": "ms",
    "routing.residency.hits": "count",
    "routing.residency.faults": "count",
    "routing.residency.builds": "count",
    "routing.residency.evictions": "count",
    "routing.residency.resident_bytes": "bytes",
    "heuristics.build_s": "s",
    "persistence.store.fault_ms.p50": "ms",
    "persistence.store.load_index_s": "s",
    "routing.engine.boot_s": "s",
    "answers.prob_gt_one": "count",
    "answers.truncated": "count",
    "trace.overhead_pct": "%",
    "trace.unattributed_share": "fraction",
}
#: Set-ups per untraced run (one in each measured process, the rest in
#: set-up-only processes); ``setup_s`` is their median.  Sub-second boots
#: are noisy, so they get the larger count; multi-second set-ups (a warm-up
#: pass) stop at the smaller one once they add up to SETUP_ENOUGH_S.
SETUP_SAMPLES = (3, 7)
SETUP_ENOUGH_S = 5.0


class BenchmarkError(RuntimeError):
    """A run that cannot produce a result (a worker process failed)."""


def _child(job: dict, jobs: Path, tag: str) -> dict:
    path = jobs / f"{tag}.json"
    out = jobs / f"{tag}.out.json"
    path.write_text(json.dumps({**job, "out": str(out)}))
    completed = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(path)],
        capture_output=True, text=True, timeout=900,
    )
    if completed.returncode != 0 or not out.is_file():
        raise BenchmarkError(f"worker {tag} failed ({completed.returncode}):\n{completed.stderr}")
    return json.loads(out.read_text())


def reference(store: Path, inputs: Inputs) -> dict:
    """Every population answer from a fresh, eager, unbounded RoutingService.

    Also measures the bytes of every heuristic table the population touches
    (its working set, for comparison with a workload's ``cache_bytes``).
    """
    from repro.routing import RoutingEngine, RoutingService
    from repro.routing.residency import heuristic_nbytes

    from child import answer_of

    service = RoutingService(RoutingEngine.from_artifacts(store))
    answers = {}
    for index, query in enumerate(inputs.population):
        ok, code, path, probability, _ = answer_of(200, service.handle(query))
        answers[str(index)] = [ok, code, path, repr(probability)]
    tables = {(query["destination"], query["method"]) for query in inputs.population}
    working_set = sum(
        heuristic_nbytes(service.engine.router(method).heuristic_for(destination))
        for destination, method in tables
    )
    return {"answers": answers, "working_set_bytes": working_set}


def _cached_reference(work: Path, key: str, store: Path, inputs: Inputs) -> dict:
    """:func:`reference`, computed once per source digest and population."""
    path = work / f"reference-{key}.json"
    if path.is_file():
        return json.loads(path.read_text())
    computed = reference(store, inputs)
    path.write_text(json.dumps(computed))
    return computed


def mismatches(observed: dict[str, list], reference: dict[str, list]) -> list[str]:
    """Population indices whose observed answer differs from the reference."""
    return sorted(
        (index for index, answer in reference.items() if observed.get(index) != answer), key=int
    )


def answers_digest(answers: dict[str, list]) -> str:
    text = json.dumps(sorted(answers.items(), key=lambda item: int(item[0])))
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def end_to_end(runs: list[dict], setups: list[float], factors: list[float],
               peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end values of a run's passes, every time scaled by its pass's factor.

    Throughput is all requests over the summed scaled pass walls; latency
    percentiles are over the scaled latencies of every request sent; answer
    shares are over every request sent.
    """
    latencies_ms = [
        1000.0 * factor * value
        for run, factor in zip(runs, factors)
        for value in run["latencies_s"]
    ]
    tail = tail_percentile(len(latencies_ms))
    sent = sum(run["sent"] for run in runs)
    values = {
        "setup_s": statistics.median(setups),
        "throughput_qps": sent / sum(factor * run["wall_s"] for run, factor in zip(runs, factors)),
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_tail_ms": percentile(latencies_ms, tail),
        "answered_share": (sent - sum(run["failed"] for run in runs)) / sent,
        "found_share": sum(run["found"] for run in runs) / sent,
        "mean_probability": sum(run["prob_sum"] for run in runs) / sent,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {"tail_percentile": tail, "latency_samples": len(latencies_ms),
             "passes": {"speed_factor": factors,
                        "throughput_qps": [run["sent"] / (factor * run["wall_s"])
                                           for run, factor in zip(runs, factors)],
                        "raw_wall_s": [run["wall_s"] for run in runs]}}
    return values, notes


def speed_factors(run: dict) -> list[float]:
    """A worker's time scale per pass: 1.0 each when not calibrated.

    ``calibrations_s`` holds the kernel time after set-up, then the kernel
    time within each pass.
    """
    if run["calibrations_s"]:
        return [REFERENCE_S / each for each in run["calibrations_s"][1:]]
    return [1.0] * len(run["passes"])


def _scaled_setup(run: dict) -> float:
    """A worker's set-up time, scaled by the calibration right after it if any."""
    if run["calibrations_s"]:
        return run["setup_s"] * REFERENCE_S / run["calibrations_s"][0]
    return run["setup_s"]


def run_workload(
    root: Path, work: Path, build: dict, workload: Workload, seed: int, seconds: float,
    trace: bool,
) -> tuple[dict, dict]:
    """Measure one workload; returns ``(result line, full record)``."""
    from repro.persistence.store import ArtifactStore

    env = environment(root)
    digest = source_digest(root)
    store, offline = ensure_store(work, build, digest)
    pace_graph, _ = ArtifactStore.open(store).load_index()
    inputs = generate(workload, pace_graph, seed, seconds)
    jobs = work / f"jobs-{os.getpid()}"
    shutil.rmtree(jobs, ignore_errors=True)
    jobs.mkdir(parents=True)
    job = {
        "src": str(root / "src"), "store": str(store), "workload": describe(workload),
        "population": inputs.population, "orders": inputs.orders,
        "max_explored": build["settings"]["max_explored"], "trace": False, "mode": "run",
    }
    traced: dict = {"passes": []}
    try:
        run = _child(job, jobs, "run")
        runs = run["passes"]
        setups = [_scaled_setup(run)]
        if trace:
            traced = _child({**job, "trace": True}, jobs, "traced")
        else:
            fewest, most = SETUP_SAMPLES
            while len(setups) < most and (len(setups) < fewest or sum(setups) < SETUP_ENOUGH_S):
                extra = _child({**job, "mode": "setup"}, jobs, f"setup{len(setups)}")
                setups.append(_scaled_setup(extra))
    finally:
        shutil.rmtree(jobs, ignore_errors=True)

    problems = []
    population_key = hashlib.blake2b(
        json.dumps([digest, build, inputs.population]).encode(), digest_size=8
    ).hexdigest()
    expected = _cached_reference(work, population_key, store, inputs)
    inputs.properties["working_set_bytes"] = expected["working_set_bytes"]
    # Each run must match the reference, computed once for this code and
    # population, so every run of the same code gives the same answers.
    for each in runs + traced["passes"]:
        if each["inconsistent"]:
            problems.append(f"repeated requests answered differently: {each['inconsistent'][:5]}")
        wrong = mismatches(each["answers"], expected["answers"])
        if wrong:
            problems.append(f"answers differ from the in-process reference: {wrong[:5]}")

    factors = speed_factors(run)
    values, notes = end_to_end(runs, setups, factors, run["peak_rss_mb"])
    if trace:
        traced_values, traced_notes = end_to_end(
            traced["passes"], setups, speed_factors(traced), traced["peak_rss_mb"]
        )
        # Per-layer numbers of the traced pass whose throughput is the median.
        ranked = sorted(zip(traced_notes["passes"]["throughput_qps"], traced["passes"]),
                        key=lambda pair: pair[0])
        typical = ranked[len(ranked) // 2][1]
        layers = {**typical["layers"], **typical["residency"]}
        layers["answers.prob_gt_one"] = typical["prob_gt_one"]
        layers["answers.truncated"] = typical["truncated"]
        layers["trace.overhead_pct"] = 100.0 * (
            values["throughput_qps"] / traced_values["throughput_qps"] - 1.0
        )
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {
        "correct": not problems,
        "attempted": sum(each["sent"] for each in runs),
        "failed": sum(each["failed"] for each in runs),
        "metrics": metrics,
    }
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "result": result, "end_to_end": values, **notes, "setup_samples_s": setups,
        "calibrations_s": run["calibrations_s"],
        "answers": {"digest": answers_digest(runs[0]["answers"]),
                    "checked_against_reference": len(expected["answers"]),
                    "prob_gt_one": runs[0]["prob_gt_one"], "truncated": runs[0]["truncated"],
                    "codes": runs[0]["codes"]},
        "problems": problems, "inputs": inputs.properties, "offline": offline,
        "residency": runs[0]["residency"], "environment": env, "source_digest": digest,
        "definition": describe(workload),
    }
    return result, record
