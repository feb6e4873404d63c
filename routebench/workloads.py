"""The three workloads and their seeded request lists.

Every workload sends methods rotating T-B-P / T-BS-60 / V-BS-60 with budgets
at 1.2x the expected-cost shortest path.  Its *population* of distinct
queries is drawn once from the network by a fixed, stratified rule (evenly
spaced over the eligible pairs sorted by expected cost), so it does not
depend on ``--seed``; the seed fixes the order in which the population is
sent.  Search cost is heavy-tailed here (a few queries exhaust
``max_explored`` and cost 50x the median), so letting the seed pick the
endpoints made a 300-query run vary 10-25% in throughput and latency from
seed to seed; a fixed population keeps the run's total work the same and
leaves the seed the order, interleaving and cache behaviour.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass

METHODS = ("T-B-P", "T-BS-60", "V-BS-60")
BUDGET_FACTOR = 1.2
#: Fewest passes of a multi-pass workload.
MIN_PASSES = 3


@dataclass(frozen=True)
class Workload:
    """One traffic mix: transport, distance band, repetition and residency."""

    name: str
    #: ``"http"`` drives a RouteServer over POST /route; ``"inprocess"``
    #: calls RoutingService.handle in the workload process.
    transport: str
    #: Euclidean source-destination distance band [min_m, max_m), metres.
    min_m: float
    max_m: float
    #: Requests planned per second of ``--seconds``: a run makes
    #: ``rate x --seconds / pass_requests`` passes (at least
    #: :data:`MIN_PASSES`), so it is a fixed request list, never a time box.
    rate: float
    #: Requests in one pass, drawn as shuffled cycles of the population.
    pass_requests: int
    #: Scale the workload's times to a reference machine speed
    #: (``calibrate.py``; in-process workloads only).  Right for CPU-bound
    #: work.  ``http-hot`` spends much of its time waiting on sockets and the
    #: GIL: scaling it overcorrected in slow spells (a 1.6x slower kernel
    #: beside a 1.25x slower pass) and added noise in steady ones (throughput
    #: spread 0.08 scaled, 0.01 raw, over the same five runs).
    calibrated: bool = True
    #: For repeated workloads: distinct queries cycled, over this many
    #: destinations.  ``None`` = every query is new.
    distinct: int | None = None
    destinations: int | None = None
    prewarm: str = "all"
    cache_bytes: int | None = None
    clients: int = 1
    warmup: bool = False

    def __post_init__(self) -> None:
        if self.calibrated and self.transport != "inprocess":
            raise ValueError(f"workload {self.name}: only in-process workloads are calibrated")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="http-hot",
            transport="http",
            min_m=800.0,
            max_m=math.inf,
            rate=26.0,
            pass_requests=96,
            calibrated=False,
            distinct=48,
            destinations=12,
            clients=2,
            warmup=True,
        ),
        Workload(
            name="fresh-longhaul",
            transport="inprocess",
            min_m=800.0,
            max_m=math.inf,
            rate=12.0,
            pass_requests=100,
        ),
        Workload(
            name="churn-shorthaul",
            transport="inprocess",
            min_m=0.0,
            max_m=600.0,
            rate=200.0,
            pass_requests=300,
            prewarm="none",
            cache_bytes=300_000,
        ),
    )
}


def passes(workload: Workload, seconds: float) -> int:
    """How many passes of its request list a run of ``workload`` makes."""
    return max(MIN_PASSES, round(workload.rate * seconds / workload.pass_requests))


@dataclass
class Inputs:
    """A workload's generated inputs: what is sent, and what it is made of."""

    #: The distinct queries, as RouteRequest payloads without request ids.
    population: list[dict]
    #: For each pass, the population index of each request in send order.
    orders: list[list[int]]
    properties: dict


def _expected_costs(network, edge_graph) -> dict[int, dict[int, float]]:
    """All-pairs expected-cost shortest-path costs (one Dijkstra per source)."""
    from repro.routing import single_source_costs

    return {
        source: single_source_costs(
            network, source, lambda edge: edge_graph.expected_cost(edge.edge_id)
        )
        for source in sorted(network.vertex_ids())
    }


def _spaced(items: list, count: int) -> list:
    """``count`` items evenly spaced over ``items`` (deterministic, no repeats)."""
    count = min(count, len(items))
    return [items[int((k + 0.5) * len(items) / count)] for k in range(count)]


def generate(workload: Workload, pace_graph, seed: int, seconds: float) -> Inputs:
    """The workload's population (seed-independent) and its seeded send orders."""
    network = pace_graph.network
    costs = _expected_costs(network, pace_graph.edge_graph)
    pairs = sorted(
        (cost, source, destination)
        for source, reachable in costs.items()
        for destination, cost in reachable.items()
        if source != destination
        and workload.min_m <= network.euclidean_distance(source, destination) < workload.max_m
    )
    if not pairs:
        raise ValueError(f"workload {workload.name}: no vertex pair in its distance band")
    sent = workload.pass_requests
    if workload.distinct is not None:
        chosen = _hot_pairs(pairs, workload.distinct, workload.destinations or 1)
        population = _payloads(chosen)
    else:
        # Each pair once per method, in passes over the cost-sorted pairs, so
        # an evenly spaced pick is stratified by cost and by method.
        combos = [
            (pairs[i], METHODS[(i + j) % len(METHODS)])
            for j in range(len(METHODS))
            for i in range(len(pairs))
        ]
        population = [
            _payload(pair, method) for pair, method in _spaced(combos, sent)
        ]
    # Every pass gets its own order (freshly shuffled cycles of the
    # population), so a run averages over many orders.  With one order
    # repeated in every pass, the seed alone moved http-hot's p95 by +-10%:
    # it fixes which long searches of the two clients overlap.
    rng = random.Random(seed)
    orders = []
    for _ in range(passes(workload, seconds)):
        order: list[int] = []
        while len(order) < sent:
            cycle = list(range(len(population)))
            rng.shuffle(cycle)
            order.extend(cycle)
        orders.append(order[:sent])
    distances = [
        network.euclidean_distance(q["source"], q["destination"]) for q in population
    ]
    properties = {
        "distance_band_m": [workload.min_m, None if math.isinf(workload.max_m) else workload.max_m],
        "distance_m_min_median_max": [
            round(min(distances), 1),
            round(sorted(distances)[len(distances) // 2], 1),
            round(max(distances), 1),
        ],
        "eligible_pairs": len(pairs),
        "distinct_queries": len(population),
        "destinations": len({q["destination"] for q in population}),
        "requests_per_pass": sent,
        "passes": len(orders),
        "repeated_share": 1.0 - len(population) / (sent * len(orders)),
        "methods": list(METHODS),
        "budget_factor": BUDGET_FACTOR,
        "cache_bytes": workload.cache_bytes,
        "prewarm": workload.prewarm,
        "clients": workload.clients,
        "calibrated": workload.calibrated,
    }
    return Inputs(population=population, orders=orders, properties=properties)


def _hot_pairs(pairs: list, distinct: int, destinations: int) -> list:
    """``distinct`` pairs over ``destinations`` destinations, spread by cost."""
    per_destination = max(1, distinct // destinations)
    by_destination: dict[int, list] = {}
    for pair in pairs:
        by_destination.setdefault(pair[2], []).append(pair)
    candidates = sorted(d for d, group in by_destination.items() if len(group) >= per_destination)
    chosen = []
    for destination in _spaced(candidates, destinations):
        chosen.extend(_spaced(by_destination[destination], per_destination))
    return chosen


def _payload(pair: tuple, method: str) -> dict:
    cost, source, destination = pair
    return {
        "source": source,
        "destination": destination,
        "budget": cost * BUDGET_FACTOR,
        "method": method,
    }


def _payloads(pairs: list) -> list[dict]:
    return [_payload(pair, METHODS[i % len(METHODS)]) for i, pair in enumerate(pairs)]


def describe(workload: Workload) -> dict:
    """The workload's definition as a JSON-ready dict."""
    out = asdict(workload)
    out["max_m"] = None if math.isinf(workload.max_m) else workload.max_m
    return out
