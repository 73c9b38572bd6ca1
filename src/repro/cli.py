"""Command-line interface — a thin shim over :mod:`repro.api`.

Six subcommands cover the library's everyday use without writing
Python:

``generate``
    Produce a random general-cell layout as JSON.
``route``
    Build a :class:`~repro.api.request.RouteRequest` (from flags, or
    from a request JSON file via ``--request``), run it through the
    :class:`~repro.api.pipeline.RoutingPipeline`, and render the
    :class:`~repro.api.result.RouteResult` (tables, ASCII art, SVG,
    and/or ``--json-out`` result JSON).
``strategies``
    List the registered routing strategies and their typed parameter
    schemas (``--json`` for the machine-readable form).
``conformance``
    Run the differential conformance harness: every scenario of the
    checked-in corpus through every strategy × config-toggle
    combination, with oracle verification, byte-identity checks, and
    cross-strategy tolerance bands (see ``docs/scenarios.md``).
``serve``
    Run the routing service: a stdlib HTTP server over an async job
    queue with admission control and a content-addressed result cache
    (see ``docs/service.md``).
``render``
    ASCII-render a layout JSON (with no routing).

Example::

    python -m repro generate --cells 12 --nets 10 --seed 7 -o chip.json
    python -m repro route chip.json --strategy two-pass --detail --svg chip.svg
    python -m repro route chip.json --strategy timing-driven
    python -m repro route --request request.json --json-out result.json
    python -m repro strategies --json
    python -m repro conformance --quick --json-out conformance_report.json
    python -m repro serve --port 8080 --workers 4 --queue-limit 64

The historical ``--two-pass`` / ``--negotiate N`` aliases were removed
after a long deprecation; spell the strategy with ``--strategy``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.api import RouteRequest, RouteResult, RoutingPipeline
from repro.api.strategies import BUILTIN_STRATEGIES
from repro.core.escape import EscapeMode
from repro.core.router import RouterConfig
from repro.errors import ReproError
from repro.layout.generators import LayoutSpec, random_layout
from repro.layout.io import layout_from_json, layout_to_json
from repro.layout.layout import Layout
from repro.layout.validate import validate_layout
from repro.analysis.render import render_layout
from repro.analysis.svg import layout_to_svg, save_svg
from repro.analysis.tables import format_table


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument schema (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Gridless line-search A* global routing for general cells "
        "(Clow, DAC 1984).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a random layout JSON")
    gen.add_argument("--cells", type=int, default=10)
    gen.add_argument("--nets", type=int, default=10)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--terminals", type=int, nargs=2, default=(2, 3),
                     metavar=("MIN", "MAX"))
    gen.add_argument("--pins", type=int, nargs=2, default=(1, 1),
                     metavar=("MIN", "MAX"))
    gen.add_argument("-o", "--output", default="-",
                     help="output path ('-' for stdout)")

    route = sub.add_parser("route", help="route a layout JSON")
    route.add_argument("layout", nargs="?", default=None,
                       help="layout JSON path ('-' for stdin); omit with --request")
    route.add_argument("--request", metavar="PATH", dest="request",
                       help="RouteRequest JSON file ('-' for stdin); replaces "
                            "the layout argument and the routing flags")
    route.add_argument("--json-out", metavar="PATH",
                       help="write the RouteResult JSON ('-' for stdout)")
    route.add_argument("--strategy", choices=list(BUILTIN_STRATEGIES), default=None,
                       help="congestion strategy (default: single)")
    route.add_argument("--mode", choices=["full", "aggressive"], default="full")
    route.add_argument("--inverted-corner", action="store_true",
                       help="enable the Figure 2 epsilon")
    route.add_argument("--refine", action="store_true",
                       help="rip-up-and-reconnect refinement per net")
    route.add_argument("--passes", type=int, default=2,
                       help="repasses for the two-pass strategy (default 2)")
    route.add_argument("--detail", action="store_true",
                       help="also run the detailed router")
    route.add_argument("--no-verify", action="store_true",
                       help="skip the independent route verification")
    route.add_argument("--report", action="store_true",
                       help="print the full engineering report")
    route.add_argument("--ascii", action="store_true", help="print ASCII art")
    route.add_argument("--svg", metavar="PATH", help="write an SVG")
    route.add_argument("--skip-unroutable", action="store_true",
                       help="record failures instead of aborting")

    strategies = sub.add_parser(
        "strategies",
        help="list registered strategies and their parameter schemas",
    )
    strategies.add_argument("--json", action="store_true",
                            help="emit the machine-readable describe() document")

    conf = sub.add_parser(
        "conformance",
        help="run the scenario corpus through the strategy x toggle matrix",
    )
    conf.add_argument("--corpus", metavar="DIR", default=None,
                      help="scenario corpus directory (default: the checked-in "
                           "scenarios/ corpus)")
    conf.add_argument("--quick", action="store_true",
                      help="baseline + one flip per toggle (3 points) instead of "
                           "the full prune x reference matrix (4 points)")
    conf.add_argument("--only", action="append", metavar="PATTERN", default=None,
                      help="restrict to scenario names matching the glob "
                           "(repeatable)")
    conf.add_argument("--strategies", nargs="+", metavar="NAME", default=None,
                      help="strategy subset (default: single two-pass negotiated)")
    conf.add_argument("--incremental", action="store_true",
                      help="also replay the scripted layout deltas through "
                           "reroute at every matrix point (incremental-* checks)")
    conf.add_argument("--json-out", metavar="PATH",
                      help="write the conformance report JSON ('-' for stdout)")
    conf.add_argument("--write-corpus", action="store_true",
                      help="regenerate the corpus files from the recipes and exit")

    serve = sub.add_parser(
        "serve",
        help="run the routing service (stdlib HTTP over the async job queue)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port (0 picks an ephemeral port; default 8080)")
    serve.add_argument("--workers", type=int, default=2, metavar="K",
                       help="concurrent routing runs (default 2)")
    serve.add_argument("--queue-limit", type=int, default=32, metavar="N",
                       help="admission window: max queued+running routing runs "
                            "before submissions get 429 (default 32)")
    serve.add_argument("--cache-size", type=int, default=256, metavar="N",
                       help="result-cache entries, keyed by canonical request "
                            "hash (0 disables reuse; default 256)")
    serve.add_argument("--executor", choices=["thread", "process"],
                       default="thread",
                       help="worker tier: 'thread' routes on the dispatch "
                            "threads (GIL-bound), 'process' routes in a "
                            "crash-tolerant process pool (default thread)")
    serve.add_argument("--store", default="memory", metavar="SPEC",
                       help="result/job store: 'memory' (default) or "
                            "'sqlite:PATH' — sqlite survives restarts, "
                            "shares cached results across frontends, and "
                            "re-queues unfinished jobs at startup")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP exchange to stderr")

    render = sub.add_parser("render", help="ASCII-render a layout JSON")
    render.add_argument("layout")
    render.add_argument("--width", type=int, default=78)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "route":
            return _cmd_route(args)
        if args.command == "strategies":
            return _cmd_strategies(args)
        if args.command == "conformance":
            return _cmd_conformance(args)
        if args.command == "serve":
            return _cmd_serve(args)
        return _cmd_render(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = LayoutSpec(
        n_cells=args.cells,
        n_nets=args.nets,
        terminals_per_net=tuple(args.terminals),
        pins_per_terminal=tuple(args.pins),
    )
    layout = random_layout(spec, seed=args.seed)
    validate_layout(layout)
    text = layout_to_json(layout)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(
            f"wrote {args.output}: {len(layout.cells)} cells, "
            f"{len(layout.nets)} nets",
            file=sys.stderr,
        )
    return 0


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_layout(path: str) -> Layout:
    return layout_from_json(_read_text(path))


def _strategy_from_flags(args: argparse.Namespace) -> tuple[str, dict]:
    """Map the strategy flags to (name, params)."""
    name = args.strategy or "single"
    params: dict = {}
    if name == "two-pass":
        params["passes"] = args.passes
    return name, params


def _request_from_flags(args: argparse.Namespace) -> RouteRequest:
    """Build a :class:`RouteRequest` from the route subcommand's flags."""
    strategy, params = _strategy_from_flags(args)
    config = RouterConfig(
        mode=EscapeMode.FULL if args.mode == "full" else EscapeMode.AGGRESSIVE,
        inverted_corner=args.inverted_corner,
        refine=args.refine,
    )
    return RouteRequest(
        layout=_load_layout(args.layout),
        config=config,
        strategy=strategy,
        strategy_params=params,
        on_unroutable="skip" if args.skip_unroutable else "raise",
        verify=not args.no_verify,
        detail=args.detail,
        report=args.report,
    )


#: Route flags that configure the request itself; with --request they
#: are set in the request file, so passing them too is a conflict (the
#: output-only flags --ascii/--svg/--json-out still apply).
_REQUEST_CONFLICT_FLAGS = (
    ("strategy", None), ("mode", "full"), ("inverted_corner", False),
    ("refine", False), ("passes", 2), ("skip_unroutable", False), ("no_verify", False),
    ("detail", False), ("report", False),
)


def _cmd_route(args: argparse.Namespace) -> int:
    if args.request is not None:
        if args.layout is not None:
            raise ReproError("give either a layout argument or --request, not both")
        overridden = [
            name for name, default in _REQUEST_CONFLICT_FLAGS
            if getattr(args, name) != default
        ]
        if overridden:
            flags = ", ".join("--" + name.replace("_", "-") for name in overridden)
            raise ReproError(
                f"{flags}: set these in the request file, not alongside --request"
            )
        request = RouteRequest.from_json(_read_text(args.request))
    else:
        if args.layout is None:
            raise ReproError("a layout argument (or --request) is required")
        request = _request_from_flags(args)

    layout = request.resolve_layout()
    result = RoutingPipeline().run(request, layout=layout)
    # With --json-out - the machine-readable document owns stdout; the
    # human-facing rendering would corrupt it, so it is skipped.
    if args.json_out != "-":
        _render_result(args, request, layout, result)

    if args.json_out:
        text = result.to_json()
        if args.json_out == "-":
            print(text)
        else:
            with open(args.json_out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            print(f"wrote {args.json_out}", file=sys.stderr)

    if result.violations:
        print(
            f"verification violations in {len(result.violations)} nets!",
            file=sys.stderr,
        )
        return 2
    return 0


def _render_result(
    args: argparse.Namespace,
    request: RouteRequest,
    layout: Layout,
    result: RouteResult,
) -> None:
    """Print the human-facing views of one result."""
    route = result.route
    if result.strategy == "two-pass":
        print(
            f"two-pass: overflow {result.congestion_before.total_overflow} -> "
            f"{result.congestion_after.total_overflow}, "
            f"{len(result.rerouted_nets)} nets rerouted"
        )
    elif result.strategy == "negotiated":
        rows = [
            [
                it.iteration,
                it.overflowed_passages,
                it.total_overflow,
                it.max_overflow,
                it.wirelength,
                it.rerouted,
                f"{it.elapsed_seconds * 1e3:.1f}",
            ]
            for it in result.iterations
        ]
        print(format_table(
            ["iter", "passages over", "overflow", "max", "wirelength",
             "rerouted", "t ms"],
            rows,
            title="negotiated congestion",
        ))
        status = "converged" if result.converged else "budget exhausted"
        print(
            f"negotiation {status}: overflow "
            f"{result.congestion_before.total_overflow} -> "
            f"{result.congestion_after.total_overflow}, "
            f"{len(result.rerouted_nets)} nets rerouted"
        )
    elif result.strategy == "timing-driven" and result.timing is not None:
        timing = result.timing
        status = "converged" if result.converged else "budget exhausted"
        worst = timing.worst_net
        print(
            f"timing-driven {status}: overflow "
            f"{result.congestion_before.total_overflow} -> "
            f"{result.congestion_after.total_overflow}, "
            f"worst delay {timing.worst_delay:g}"
            + (f" ({worst})" if worst else "")
            + f", {len(result.rerouted_nets)} nets rerouted"
        )

    if request.report:
        from repro.analysis.report import routing_report

        print(routing_report(layout, route, detailed=result.detailed))
    else:
        print(format_table(
            list(result.summary.as_row().keys()), [result.summary.as_row()],
            title="global routing",
        ))
        if route.failed_nets:
            print("failed nets:", ", ".join(route.failed_nets))
        if result.detail_summary is not None:
            d = result.detail_summary
            print()
            print(format_table(
                ["channels", "tracks", "vias", "wirelength", "conflicts", "overcap"],
                [[d.channels, d.tracks, d.vias, d.wirelength, d.conflicts,
                  d.over_capacity_channels]],
                title="detailed routing",
            ))

    if args.ascii:
        print()
        print(render_layout(layout, route))
    if args.svg:
        save_svg(args.svg, layout_to_svg(layout, route, detailed=result.detailed))
        print(f"wrote {args.svg}", file=sys.stderr)


def _cmd_strategies(args: argparse.Namespace) -> int:
    """List the registered strategies and their parameter schemas."""
    import json

    from repro.api import DEFAULT_REGISTRY

    described = DEFAULT_REGISTRY.describe()
    if args.json:
        print(json.dumps(described, indent=2, sort_keys=True))
        return 0
    rows = []
    for name, info in sorted(described.items()):
        params = info.get("params")
        if params:
            spec = ", ".join(
                f"{pname}: {row['type']}"
                + ("?" if row.get("optional") else "")
                + (f" = {row['default']}" if row.get("default") is not None else "")
                for pname, row in params.items()
            )
        else:
            spec = "(no declared schema)"
        rows.append([name, info.get("description") or "", spec])
    print(format_table(["strategy", "description", "params"], rows,
                       title="registered strategies"))
    return 0


def _cmd_conformance(args: argparse.Namespace) -> int:
    """Run the differential conformance harness over the corpus."""
    import fnmatch

    from repro.scenarios import (
        DEFAULT_CORPUS_DIR,
        FULL_MATRIX,
        QUICK_MATRIX,
        load_corpus,
        run_conformance,
        write_corpus,
    )

    corpus_dir = args.corpus if args.corpus is not None else DEFAULT_CORPUS_DIR
    if args.write_corpus:
        # The run-shaping flags have no meaning when only regenerating
        # files; dropping them silently would look like they worked.
        ignored = [
            flag for flag, value in (
                ("--quick", args.quick), ("--only", args.only),
                ("--strategies", args.strategies), ("--json-out", args.json_out),
                ("--incremental", args.incremental),
            ) if value
        ]
        if ignored:
            raise ReproError(
                f"{', '.join(ignored)}: incompatible with --write-corpus "
                f"(it always rewrites the full default corpus)"
            )
        paths = write_corpus(corpus_dir)
        print(f"wrote {len(paths)} scenario files under {corpus_dir}", file=sys.stderr)
        return 0

    scenarios = load_corpus(corpus_dir)
    if args.only:
        scenarios = [
            s for s in scenarios
            if any(fnmatch.fnmatch(s.name, pattern) for pattern in args.only)
        ]
        if not scenarios:
            raise ReproError(f"no corpus scenarios match {args.only}")
    matrix = QUICK_MATRIX if args.quick else FULL_MATRIX
    report = run_conformance(
        scenarios, strategies=args.strategies, matrix=matrix,
        incremental=args.incremental,
    )

    if args.json_out != "-":
        rows = []
        for scenario in scenarios:
            checks = [c for c in report.checks if c.scenario == scenario.name]
            cases = [c for c in report.cases if c.scenario == scenario.name]
            rows.append([
                scenario.name,
                scenario.family,
                len(cases),
                sum(1 for c in checks if c.ok),
                sum(1 for c in checks if not c.ok),
                f"{sum(c.elapsed_seconds for c in cases):.2f}",
            ])
        print(format_table(
            ["scenario", "family", "cases", "checks ok", "failed", "route s"],
            rows,
            title=f"conformance ({'quick' if args.quick else 'full'} matrix)",
        ))
        for failure in report.failures():
            print(
                f"FAIL [{failure.kind}] {failure.scenario}/{failure.strategy}: "
                f"{failure.detail}"
            )
        print(report.summary())

    if args.json_out:
        text = report.to_json()
        if args.json_out == "-":
            print(text)
        else:
            with open(args.json_out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            print(f"wrote {args.json_out}", file=sys.stderr)
    return 0 if report.ok else 2


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the routing service until interrupted (SIGINT/SIGTERM)."""
    import json
    import signal
    import threading

    from repro.service import RoutingService, make_server

    service = RoutingService(
        workers=args.workers,
        queue_limit=args.queue_limit,
        cache_size=args.cache_size,
        executor=args.executor,
        store=args.store,
    )
    server = make_server(
        service, host=args.host, port=args.port, quiet=not args.verbose
    )
    host, port = server.server_address[:2]
    recovered = service.metrics.snapshot()["recovered"]
    if recovered:
        print(
            f"repro service recovered {recovered} unfinished job(s) from "
            f"the previous run",
            file=sys.stderr,
            flush=True,
        )
    # Flushed eagerly so supervisors (and the CI smoke job) watching
    # stderr see the bound port before the first request arrives.
    print(
        f"repro service listening on http://{host}:{port} "
        f"(workers={args.workers}, queue-limit={args.queue_limit}, "
        f"cache-size={args.cache_size}, executor={args.executor}, "
        f"store={args.store}); Ctrl-C to stop",
        file=sys.stderr,
        flush=True,
    )

    # SIGTERM must shut down as cleanly as Ctrl-C: supervisors (and
    # shells running the server as a background job, where SIGINT is
    # ignored) stop daemons with TERM.  serve_forever cannot be
    # re-entered after shutdown(), which itself must not run on the
    # serving thread — hand it to a helper thread.
    def _graceful_shutdown(signum, frame):  # noqa: ARG001 - stdlib handler signature
        print("repro service shutting down", file=sys.stderr, flush=True)
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous_term = signal.signal(signal.SIGTERM, _graceful_shutdown)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro service shutting down", file=sys.stderr, flush=True)
    finally:
        signal.signal(signal.SIGTERM, previous_term)
        server.server_close()
        service.close()
        final = service.snapshot()
        print(
            "repro service final metrics: "
            + json.dumps(
                {
                    key: final[key]
                    for key in (
                        "requests", "completed", "failed", "cache_hits",
                        "coalesced", "rejected", "recovered",
                        "worker_restarts", "job_retries",
                    )
                }
            ),
            file=sys.stderr,
            flush=True,
        )
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    layout = _load_layout(args.layout)
    print(render_layout(layout, width=args.width))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
