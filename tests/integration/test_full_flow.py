"""Integration tests: the complete global + detailed flow."""

import pytest

from repro.core.router import GlobalRouter, RouterConfig
from repro.core.escape import EscapeMode
from repro.core.negotiate import two_pass
from repro.detail.detailed import DetailedRouter
from repro.layout.generators import LayoutSpec, random_layout
from repro.layout.io import layout_from_json, layout_to_json
from repro.layout.validate import validate_layout
from repro.analysis.metrics import summarize_route
from repro.analysis.verify import verify_detailed, verify_global_route


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_generate_route_verify(seed):
    """Layouts of varied sizes route completely and verify cleanly."""
    layout = random_layout(
        LayoutSpec(
            n_cells=6 + 2 * seed,
            n_nets=5 + 3 * seed,
            terminals_per_net=(2, 4),
            pins_per_terminal=(1, 2),
        ),
        seed=seed,
    )
    validate_layout(layout)
    route = GlobalRouter(layout).route_all()
    assert route.routed_count == len(layout.nets)
    assert verify_global_route(route, layout) == {}
    summary = summarize_route(route, layout)
    assert summary.success_rate == 1.0
    assert summary.total_length > 0


@pytest.mark.parametrize("mode", [EscapeMode.FULL, EscapeMode.AGGRESSIVE])
def test_full_flow_with_detail(mode):
    """Global route -> detailed route -> physical wires stay legal."""
    layout = random_layout(
        LayoutSpec(n_cells=10, n_nets=10, terminals_per_net=(2, 3)), seed=6
    )
    router = GlobalRouter(layout, RouterConfig(mode=mode))
    global_route = router.route_all()
    detailed = DetailedRouter(layout).run(global_route)
    assert verify_detailed(detailed, layout) == []
    assert detailed.total_wirelength >= global_route.total_length
    assert detailed.channel_count > 0


def test_serialization_round_trip_preserves_routing():
    """A layout reloaded from JSON routes to identical results."""
    layout = random_layout(LayoutSpec(n_cells=8, n_nets=6), seed=13)
    reloaded = layout_from_json(layout_to_json(layout))
    original = GlobalRouter(layout).route_all()
    restored = GlobalRouter(reloaded).route_all()
    assert original.total_length == restored.total_length
    for name in original.trees:
        assert [p.points for p in original.tree(name).paths] == [
            p.points for p in restored.tree(name).paths
        ]


def test_two_pass_then_detail_reduces_overcapacity():
    """Congestion-aware global routing helps the detailed router."""
    import random as random_module

    from repro.layout.generators import grid_layout, random_netlist

    layout = grid_layout(3, 3, cell_width=20, cell_height=20, gap=3, margin=8)
    rng = random_module.Random(5)
    spec = LayoutSpec(terminals_per_net=(2, 3), pad_fraction=0.0)
    for net in random_netlist(layout, 24, rng=rng, spec=spec):
        layout.add_net(net)

    single = GlobalRouter(layout).route_all()
    multi = two_pass(GlobalRouter(layout), penalty_weight=4.0, passes=4)
    detailed_single = DetailedRouter(layout).run(single)
    detailed_multi = DetailedRouter(layout).run(multi.route)
    # relief in global congestion should not worsen detailed packing
    assert (
        detailed_multi.over_capacity_channels <= detailed_single.over_capacity_channels + 1
    )
    assert multi.congestion_after.total_overflow <= multi.congestion_before.total_overflow


def test_polygonal_cells_route_end_to_end():
    """The orthogonal-polygon extension works through the whole flow."""
    from repro.geometry.orthpoly import OrthoPolygon
    from repro.geometry.point import Point
    from repro.geometry.rect import Rect
    from repro.layout.cell import Cell
    from repro.layout.layout import Layout
    from repro.layout.net import Net

    layout = Layout(Rect(0, 0, 100, 100))
    layout.add_cell(
        Cell(
            "L",
            OrthoPolygon(
                [Point(20, 20), Point(70, 20), Point(70, 40), Point(40, 40),
                 Point(40, 70), Point(20, 70)]
            ),
        )
    )
    layout.add_cell(Cell.rect("sq", 60, 60, 25, 25))
    # route into the L's notch and out
    layout.add_net(Net.two_point("n1", Point(50, 50), Point(5, 5)))
    layout.add_net(Net.two_point("n2", Point(0, 95), Point(95, 0)))
    route = GlobalRouter(layout).route_all()
    assert route.routed_count == 2
    assert verify_global_route(route, layout) == {}


def test_large_layout_smoke():
    """A bigger instance: everything routes in reasonable time."""
    layout = random_layout(
        LayoutSpec(n_cells=30, n_nets=25, terminals_per_net=(2, 4)), seed=99
    )
    route = GlobalRouter(layout).route_all()
    assert route.routed_count == 25
    assert verify_global_route(route, layout) == {}
    detailed = DetailedRouter(layout).run(route)
    assert verify_detailed(detailed, layout) == []
