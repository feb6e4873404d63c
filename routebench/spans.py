"""Span recording around the public entry points of each ``src/repro`` layer.

Spans are recorded from the benchmark's own files: :func:`install` wraps
public methods of the program's classes in the traced worker process.  A
span is ``(id, parent id, request id, name, start, end, value)``; spans of
one request share the request id, carried across the HTTP handler and
admission worker threads.  Hot inner calls (frontier expansions, memo
lookups) are counted and timed in per-thread accumulators instead of spans.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from stats import percentile


class Tracer:
    """Spans and counters, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._accumulators: list[defaultdict] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def context(self) -> tuple:
        """``(span id, request id)`` of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1] if stack else (None, None)

    @contextmanager
    def span(self, name: str, *, rid: str | None = None, parent: tuple | None = None):
        """Record ``name`` around the block; yields a one-slot list for a value."""
        stack = self._stack()
        parent_id, inherited = parent if parent is not None else self.context()
        rid = rid or inherited
        span_id = next(self._ids)
        value: list = [None]
        stack.append((span_id, rid))
        start = perf_counter()
        try:
            yield value
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((span_id, parent_id, rid, name, start, end, value[0]))

    def record(self, name: str, start: float, end: float, parent: tuple) -> None:
        """Add a span measured elsewhere (the admission queue wait)."""
        self.spans.append((next(self._ids), parent[0], parent[1], name, start, end, None))

    def add(self, key: str, amount: float = 1.0) -> None:
        """Add to a counter in this thread's accumulator."""
        accumulator = getattr(self._local, "accumulator", None)
        if accumulator is None:
            accumulator = self._local.accumulator = defaultdict(float)
            with self._lock:
                self._accumulators.append(accumulator)
        accumulator[key] += amount

    def reset_counters(self) -> None:
        with self._lock:
            for accumulator in self._accumulators:
                accumulator.clear()

    def counters(self) -> dict[str, float]:
        merged: defaultdict = defaultdict(float)
        with self._lock:
            for accumulator in self._accumulators:
                for key, amount in accumulator.items():
                    merged[key] += amount
        return dict(merged)


def install(tracer: Tracer) -> None:
    """Wrap the layers' public entry points for the rest of this process."""
    from repro.persistence.store import ArtifactStore, HeuristicStoreHandle
    from repro.routing.accel import FrontierAccelerator, TExpansionKernel, VExpansionKernel
    from repro.routing.engine import RoutingEngine
    from repro.routing.service import RoutingService
    from repro.routing.tpath_routing import HeuristicPaceRouter
    from repro.routing.vpath_routing import VPathRouter
    from repro.serving.admission import AdmissionController
    from repro.serving.reload import EngineReloader
    from repro.serving.server import RouteServer

    def patch(owner, name: str, make) -> None:
        setattr(owner, name, make(owner.__dict__[name]))

    def spanned(span_name: str):
        def make(original):
            def wrapper(*args, **kwargs):
                with tracer.span(span_name):
                    return original(*args, **kwargs)

            return wrapper

        return make

    def handle_route(original):
        def wrapper(self, body):
            try:
                rid = json.loads(body).get("request_id")
            except (ValueError, AttributeError):
                rid = None
            with tracer.span("serving.server.handle_route", rid=rid):
                return original(self, body)

        return wrapper

    def admit(original):
        def wrapper(self, fn):
            parent = tracer.context()
            admitted_at = perf_counter()

            def job():
                tracer.record("serving.admission.wait", admitted_at, perf_counter(), parent)
                with tracer.span("serving.admission.run", parent=parent):
                    return fn()

            future = original(self, job)
            if future is None:
                tracer.add("admission.rejected")
            return future

        return wrapper

    def lease(original):
        @contextmanager
        def wrapper(self):
            with tracer.span("serving.reload.lease"), original(self) as service:
                yield service

        return wrapper

    def route(original):
        def wrapper(self, query):
            with tracer.span("routing.router.route") as value:
                result = original(self, query)
                value[0] = result.explored
            return result

        return wrapper

    def expand(original):
        def wrapper(*args):
            started = perf_counter()
            out = original(*args)
            tracer.add("expand.calls")
            tracer.add("expand.s", perf_counter() - started)
            return out

        return wrapper

    def memo(kind: str):
        def make(original):
            def wrapper(self, key):
                out = original(self, key)
                tracer.add(f"{kind}.calls")
                if out is not None:
                    tracer.add(f"{kind}.hits")
                return out

            return wrapper

        return make

    def from_artifacts(original):
        function = original.__func__

        def wrapper(cls, *args, **kwargs):
            with tracer.span("routing.engine.from_artifacts"):
                return function(cls, *args, **kwargs)

        return classmethod(wrapper)

    patch(RouteServer, "handle_route", handle_route)
    patch(AdmissionController, "admit", admit)
    patch(EngineReloader, "lease", lease)
    patch(RoutingService, "handle_batch", spanned("routing.service.handle_batch"))
    patch(RoutingEngine, "route_many", spanned("routing.engine.route_many"))
    patch(RoutingEngine, "from_artifacts", from_artifacts)
    patch(ArtifactStore, "load_index", spanned("persistence.store.load_index"))
    patch(HeuristicStoreHandle, "load_entry", spanned("persistence.store.load_entry"))
    for router in (HeuristicPaceRouter, VPathRouter):
        patch(router, "route", route)
        patch(router, "heuristic_for", spanned("routing.router.heuristic_for"))
    for kernel in (TExpansionKernel, VExpansionKernel):
        patch(kernel, "expand", expand)
    patch(FrontierAccelerator, "evaluation_get", memo("eval"))
    patch(FrontierAccelerator, "convolution_get", memo("conv"))


def _ms(span: tuple) -> float:
    return 1000.0 * (span[5] - span[4])


def layer_metrics(tracer: Tracer, *, max_explored: int, since: int = 0) -> dict[str, float]:
    """Per-layer numbers over the measured requests (request ids ``m<n>``).

    Only request spans from ``tracer.spans[since:]`` count (one pass of a
    multi-pass run); boot numbers come from the process's first boot.  A
    layer's self time is its span minus the spans it caused; the unattributed
    share is the part of the client-side request time that no reported layer
    number covers.
    """
    by_request: dict[str, dict[str, list]] = defaultdict(lambda: defaultdict(list))
    boot: dict[str, list] = defaultdict(list)
    for position, span in enumerate(tracer.spans):
        rid, name = span[2], span[3]
        if rid is not None and rid.startswith("m") and position >= since:
            by_request[rid][name].append(span)
        elif rid is None:
            boot[name].append(span)

    def total(spans: list) -> float:
        return sum(_ms(s) for s in spans)

    series: dict[str, list[float]] = defaultdict(list)
    root_ms = 0.0
    attributed_ms = 0.0
    explored: list[int] = []
    for spans in by_request.values():
        root = total(spans["client.request"])
        handle = total(spans["serving.server.handle_route"])
        wait = total(spans["serving.admission.wait"])
        run = total(spans["serving.admission.run"])
        lease = total(spans["serving.reload.lease"])
        batch = total(spans["routing.service.handle_batch"])
        many = total(spans["routing.engine.route_many"])
        routed = total(spans["routing.router.route"])
        resolve = total(spans["routing.router.heuristic_for"])
        parts = {"routing.service.self_ms": batch - many, "routing.search.ms": routed - resolve,
                 "routing.residency.resolve_ms": resolve}
        if spans["serving.server.handle_route"]:
            parts.update({
                "http.client_overhead_ms": root - handle,
                "serving.server.self_ms": handle - wait - run,
                "serving.admission.wait_ms": wait,
                "serving.reload.lease_ms": lease - batch,
            })
        for key, value in parts.items():
            series[key].append(value)
        series["persistence.store.fault_ms"].extend(
            _ms(s) for s in spans["persistence.store.load_entry"]
        )
        explored.extend(s[6] for s in spans["routing.router.route"])
        root_ms += root
        attributed_ms += sum(parts.values())

    def p(key: str, q: float) -> float:
        return percentile(series[key], q) if series[key] else 0.0

    counters = tracer.counters()
    out = {
        "http.client_overhead_ms.p50": p("http.client_overhead_ms", 50),
        "serving.server.self_ms.p50": p("serving.server.self_ms", 50),
        "serving.admission.wait_ms.p50": p("serving.admission.wait_ms", 50),
        "serving.admission.wait_ms.p99": p("serving.admission.wait_ms", 99),
        "serving.admission.rejected": counters.get("admission.rejected", 0.0),
        "serving.reload.lease_ms.p50": p("serving.reload.lease_ms", 50),
        "routing.service.self_ms.p50": p("routing.service.self_ms", 50),
        "routing.search.ms.p50": p("routing.search.ms", 50),
        "routing.search.ms.p99": p("routing.search.ms", 99),
        "routing.search.explored.mean": sum(explored) / len(explored) if explored else 0.0,
        "routing.search.truncated_share": (
            sum(e >= max_explored for e in explored) / len(explored) if explored else 0.0
        ),
        "routing.accel.expand_calls": counters.get("expand.calls", 0.0),
        "routing.accel.expand_ms.total": 1000.0 * counters.get("expand.s", 0.0),
        "routing.accel.eval_memo_hit_ratio": _ratio(counters, "eval"),
        "routing.accel.conv_memo_hit_ratio": _ratio(counters, "conv"),
        "routing.residency.resolve_ms.p50": p("routing.residency.resolve_ms", 50),
        "persistence.store.fault_ms.p50": p("persistence.store.fault_ms", 50),
        "persistence.store.load_index_s": total(boot["persistence.store.load_index"][:1]) / 1000.0,
        "routing.engine.boot_s": total(boot["routing.engine.from_artifacts"][:1]) / 1000.0,
        "trace.unattributed_share": 1.0 - attributed_ms / root_ms if root_ms else 0.0,
    }
    return out


def _ratio(counters: dict, kind: str) -> float:
    calls = counters.get(f"{kind}.calls", 0.0)
    return counters.get(f"{kind}.hits", 0.0) / calls if calls else 0.0
