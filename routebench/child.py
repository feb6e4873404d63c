"""One workload process: set up, send the request list, report.

Run as ``python3 child.py <job.json>`` by ``run.py``; a fresh process per
set-up sample keeps each boot cold (the frontier accelerators and their
memos are process-wide).  The job names the store, the workload, its
request list for every pass; the result is written to the
job's ``out`` path, one entry per pass; a calibrated workload adds the
calibration kernel's time after set-up and within every pass.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import resource
import sys
import threading
from pathlib import Path
from time import perf_counter

FAILURE_CODES = ("internal", "overloaded", "deadline_exceeded")


def _post(connection: http.client.HTTPConnection, body: bytes) -> tuple[int, bytes]:
    connection.request("POST", "/route", body=body, headers={"Content-Type": "application/json"})
    response = connection.getresponse()
    return response.status, response.read()


def drive_http(
    address: tuple, bodies: list[bytes], clients: int, tracer=None, prefix: str = "m"
) -> list[tuple]:
    """Closed loop: each client sends its next request when the last one returns."""
    records: list[tuple] = [(0.0, 0, b"")] * len(bodies)
    positions = itertools.count()

    def client() -> None:
        connection = http.client.HTTPConnection(*address, timeout=600)
        try:
            for position in iter(positions.__next__, None):
                if position >= len(bodies):
                    return
                started = perf_counter()
                try:
                    if tracer is None:
                        status, data = _post(connection, bodies[position])
                    else:
                        with tracer.span("client.request", rid=f"{prefix}{position}"):
                            status, data = _post(connection, bodies[position])
                except (OSError, http.client.HTTPException):
                    connection.close()
                    status, data = 0, b""
                records[position] = (perf_counter() - started, status, data)
        finally:
            connection.close()

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def drive_inprocess(
    service, payloads: list[dict], tracer=None, prefix: str = "m", calibrate: bool = False
) -> tuple[list[tuple], float]:
    """Send each payload in turn.  With ``calibrate``, also run the
    calibration kernel ``REPEATS`` times, spread evenly between requests.

    Returns the records and the seconds the kernel took in all.
    """
    from calibrate import REPEATS, kernel_s

    chunks = REPEATS if calibrate else 1
    bounds = [round(k * len(payloads) / chunks) for k in range(chunks + 1)]
    records = []
    kernel_total = 0.0
    for low, high in zip(bounds, bounds[1:]):
        for position in range(low, high):
            started = perf_counter()
            if tracer is None:
                response = service.handle(payloads[position])
            else:
                with tracer.span("client.request", rid=f"{prefix}{position}"):
                    response = service.handle(payloads[position])
            records.append((perf_counter() - started, 200, response))
        if calibrate:
            kernel_total += kernel_s()
    return records, kernel_total


def answer_of(status: int, response) -> tuple:
    """``(ok, error code, path vertices, probability, explored)`` of one response."""
    if status != 200:
        return (False, f"http-{status}", None, 0.0, 0)
    if isinstance(response, bytes):
        body = json.loads(response)
        error = body.get("error") or {}
        path = body.get("path_vertices")
        return (
            bool(body.get("ok")),
            error.get("code"),
            None if path is None else list(path),
            float(body.get("probability", 0.0)),
            int(body.get("explored", 0)),
        )
    return (
        response.ok,
        None if response.error is None else response.error.code,
        None if response.path_vertices is None else list(response.path_vertices),
        float(response.probability),
        int(response.explored),
    )


def summarise(records: list[tuple], order: list[int], max_explored: int) -> dict:
    answers: dict[int, list] = {}
    inconsistent: set[int] = set()
    failed = found = prob_gt_one = truncated = 0
    prob_sum = 0.0
    codes: dict[str, int] = {}
    for (_, status, response), index in zip(records, order):
        ok, code, path, probability, explored = answer_of(status, response)
        if code is not None:
            codes[code] = codes.get(code, 0) + 1
        if status != 200 or code in FAILURE_CODES:
            failed += 1
            continue
        found += ok
        prob_sum += probability
        prob_gt_one += probability > 1.0
        truncated += explored >= max_explored
        answer = [ok, code, path, repr(probability)]
        if answers.setdefault(index, answer) != answer:
            inconsistent.add(index)
    return {
        "latencies_s": [record[0] for record in records],
        "sent": len(records),
        "failed": failed,
        "found": found,
        "prob_sum": prob_sum,
        "prob_gt_one": prob_gt_one,
        "truncated": truncated,
        "codes": codes,
        "answers": {str(index): answer for index, answer in answers.items()},
        "inconsistent": sorted(inconsistent),
    }


def _fresh_service(job: dict, workload: dict):
    """A newly booted in-process service with the frontier memos emptied.

    Every pass of a multi-pass in-process run starts from the same state:
    an empty heuristic cache and empty evaluation and convolution memos.
    """
    from repro.routing import RoutingEngine, RoutingService
    from repro.routing.accel import accelerator_for

    engine = RoutingEngine.from_artifacts(
        job["store"], prewarm=workload["prewarm"], cache_bytes=workload["cache_bytes"]
    )
    engine.build_accelerators()
    for graph in (engine.pace_graph, engine.updated_graph):
        if graph is not None:
            accelerator_for(graph).clear_evaluations()
    return engine, RoutingService(engine)


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    from repro.serving import RouteServer, ServerConfig

    import spans
    from calibrate import calibration_s

    workload = job["workload"]
    tracer = None
    if job["trace"]:
        tracer = spans.Tracer()
        spans.install(tracer)
    population = job["population"]
    over_http = workload["transport"] == "http"
    server = None
    started = perf_counter()
    if over_http:
        server = RouteServer(
            job["store"],
            ServerConfig(prewarm=workload["prewarm"], cache_bytes=workload["cache_bytes"]),
        ).start()
        if workload["warmup"]:
            warmup = [
                json.dumps({**query, "request_id": f"w{index}"}).encode()
                for index, query in enumerate(population)
            ]
            drive_http(server.address, warmup, workload["clients"])
        engine = server.reloader.service.engine
    else:
        engine, service = _fresh_service(job, workload)
    setup_s = perf_counter() - started
    calibrated = workload["calibrated"]
    result: dict = {"setup_s": setup_s, "passes": [],
                    "calibrations_s": [calibration_s()] if calibrated else []}
    try:
        for number, order in enumerate(job["orders"] if job["mode"] == "run" else []):
            if number and not over_http:
                engine, service = _fresh_service(job, workload)
            gc.collect()
            prefix = f"m{number}-"
            payloads = [
                {**population[index], "request_id": f"{prefix}{position}"}
                for position, index in enumerate(order)
            ]
            before = engine.heuristic_cache.counters()
            since = 0
            if tracer is not None:
                tracer.reset_counters()
                since = len(tracer.spans)
            if over_http:
                bodies = [json.dumps(payload).encode() for payload in payloads]
                started = perf_counter()
                records = drive_http(server.address, bodies, workload["clients"], tracer, prefix)
                kernel_total = 0.0
            else:
                started = perf_counter()
                records, kernel_total = drive_inprocess(
                    service, payloads, tracer, prefix, calibrated
                )
            measured = {"wall_s": perf_counter() - started - kernel_total}
            if calibrated:
                result["calibrations_s"].append(kernel_total)
            after = engine.heuristic_cache.counters()
            measured["residency"] = {
                "routing.residency.hits": after.hits - before.hits,
                "routing.residency.faults": after.faults - before.faults,
                "routing.residency.builds": after.misses - before.misses,
                "routing.residency.evictions": after.evictions - before.evictions,
                "routing.residency.resident_bytes": after.resident_bytes,
                "heuristics.build_s": after.build_seconds - before.build_seconds,
            }
            measured.update(summarise(records, order, job["max_explored"]))
            if tracer is not None:
                measured["layers"] = spans.layer_metrics(
                    tracer, max_explored=job["max_explored"], since=since
                )
            result["passes"].append(measured)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if server is not None:
            server.stop()
    Path(job["out"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
