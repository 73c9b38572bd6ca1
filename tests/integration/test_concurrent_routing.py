"""Routing on several threads at once, as the service's thread tier does.

Each net's connections share one ``PathRequest`` and its kernel
problem block (``repro.search.vector.KernelSearch``), whose connection
fields are set in place before every kernel call, and whose result
buffers every search reuses.  The kernel runs with the GIL released,
so a block that two threads shared would be rewritten under a running
search.  Three threads route three different layouts through
``RoutingPipeline.run`` together, with the interpreter switching
threads as often as it can, and every result must equal the layout's
serial route.  There are more threads than a small machine has cores.
"""

import random
import sys
import threading

import repro.core.pathfinder as pathfinder
from repro.api import RouteRequest, RoutingPipeline
from repro.layout.generators import LayoutSpec, grid_layout, random_netlist
from repro.scenarios import route_fingerprint
from repro.search import vector

ROUNDS = 4


def congested_request(seed: int) -> RouteRequest:
    """A 5x5 macro grid with 3-5 terminal nets, routed by negotiation."""
    layout = grid_layout(5, 5, cell_width=20, cell_height=20, gap=3, margin=8)
    spec = LayoutSpec(terminals_per_net=(3, 5), pad_fraction=0.0)
    for net in random_netlist(layout, 14, rng=random.Random(seed), spec=spec):
        layout.add_net(net)
    return RouteRequest(
        layout=layout, strategy="negotiated", strategy_params={"max_iterations": 2}
    )


def fingerprint(request: RouteRequest) -> str:
    return route_fingerprint(RoutingPipeline().run(request).route)


def test_threads_route_as_they_do_serially(monkeypatch):
    assert vector.kernel() is not None, "the search kernel did not build"
    requests = [congested_request(seed) for seed in (11, 12, 13)]
    serial = [fingerprint(request) for request in requests]
    assert len(set(serial)) == len(serial)

    calls = [0]
    real = pathfinder.search_vectorized

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(pathfinder, "search_vectorized", counted)
    start = threading.Barrier(len(requests))
    seen: list[list[str]] = [[] for _ in requests]
    errors: list[BaseException] = []

    def route(index: int) -> None:
        try:
            start.wait()
            for _ in range(ROUNDS):
                seen[index].append(fingerprint(requests[index]))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=route, args=(k,)) for k in range(len(requests))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)

    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert calls[0] > 0  # the threads searched in the kernel
    for index, fingerprints in enumerate(seen):
        assert fingerprints == [serial[index]] * ROUNDS
