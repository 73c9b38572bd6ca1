"""Unit tests for the Layout container."""

import numpy as np
import pytest

from repro.errors import LayoutError
from repro.incremental.delta import LayoutDelta, apply_delta
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.layout.cell import Cell
from repro.layout.io import layout_from_dict, layout_to_dict
from repro.layout.layout import Layout
from repro.layout.net import Net


def basic_layout() -> Layout:
    layout = Layout(Rect(0, 0, 100, 100))
    layout.add_cell(Cell.rect("a", 10, 10, 20, 20))
    layout.add_cell(Cell.rect("b", 50, 50, 20, 20))
    return layout


class TestConstruction:
    def test_degenerate_outline_rejected(self):
        with pytest.raises(LayoutError):
            Layout(Rect(0, 0, 0, 100))

    def test_duplicate_cell_rejected(self):
        layout = basic_layout()
        with pytest.raises(LayoutError):
            layout.add_cell(Cell.rect("a", 80, 80, 5, 5))

    def test_cell_outside_outline_rejected(self):
        layout = basic_layout()
        with pytest.raises(LayoutError):
            layout.add_cell(Cell.rect("c", 95, 95, 20, 20))

    def test_net_with_unknown_cell_rejected(self):
        layout = basic_layout()
        net = Net.two_point("n", Point(0, 0), Point(5, 5))
        object.__setattr__(net.terminals[0].pins[0], "cell", "ghost")
        with pytest.raises(LayoutError):
            layout.add_net(net)

    def test_duplicate_net_rejected(self):
        layout = basic_layout()
        layout.add_net(Net.two_point("n", Point(0, 0), Point(5, 5)))
        with pytest.raises(LayoutError):
            layout.add_net(Net.two_point("n", Point(1, 1), Point(2, 2)))

    def test_out_of_range_coordinates_rejected(self):
        with pytest.raises(LayoutError, match="out of range"):
            Layout(Rect(0, 0, 2**62 + 1, 100))
        layout = basic_layout()
        with pytest.raises(LayoutError, match="out of range"):
            layout.add_net(Net.two_point("n", Point(0, 0), Point(-(2**62) - 1, 5)))
        assert "n" not in layout
        # The limit itself is accepted.
        Layout(Rect(-(2**62), -(2**62), 2**62, 2**62))

    def test_constructor_accepts_contents(self):
        layout = Layout(
            Rect(0, 0, 50, 50),
            cells=[Cell.rect("a", 5, 5, 10, 10)],
            nets=[Net.two_point("n", Point(0, 0), Point(3, 3))],
        )
        assert len(layout.cells) == 1 and len(layout.nets) == 1


class TestAccess:
    def test_lookup(self):
        layout = basic_layout()
        assert layout.cell("a").name == "a"
        with pytest.raises(LayoutError):
            layout.cell("zz")

    def test_net_lookup(self):
        layout = basic_layout()
        layout.add_net(Net.two_point("n", Point(0, 0), Point(5, 5)))
        assert layout.net("n").name == "n"
        with pytest.raises(LayoutError):
            layout.net("zz")

    def test_contains(self):
        layout = basic_layout()
        layout.add_net(Net.two_point("n", Point(0, 0), Point(5, 5)))
        assert "a" in layout and "n" in layout and "zz" not in layout

    def test_remove_net(self):
        layout = basic_layout()
        layout.add_net(Net.two_point("n", Point(0, 0), Point(5, 5)))
        removed = layout.remove_net("n")
        assert removed.name == "n"
        assert len(layout.nets) == 0
        with pytest.raises(LayoutError):
            layout.remove_net("n")

    def test_iter_pins(self):
        layout = basic_layout()
        layout.add_net(Net.two_point("n", Point(0, 0), Point(5, 5)))
        assert len(list(layout.iter_pins())) == 2

    def test_cell_at(self):
        layout = basic_layout()
        assert layout.cell_at(Point(15, 15)).name == "a"
        assert layout.cell_at(Point(10, 15)).name == "a"  # boundary
        assert layout.cell_at(Point(0, 0)) is None


class TestIntegerCoordinates:
    """Fractions, strings and booleans are refused, not truncated.

    The router's int64 columns would silently truncate a fraction, so
    the layout rejects it at the door, and the JSON converters pass
    values through uncoerced so the check sees them.
    """

    @staticmethod
    def document(pin_at=(40, 39), cell_rect=(18, 9, 30, 19)) -> dict:
        layout = Layout(Rect(0, 0, 100, 100), cells=[Cell("c", Rect(*cell_rect))])
        layout.add_net(Net.two_point("n", Point(0, 0), Point(*pin_at)))
        return layout_to_dict(layout)

    def test_valid_document_loads(self):
        layout = layout_from_dict(self.document())
        assert layout.net("n").terminals[1].pins[0].location == Point(40, 39)
        assert not layout.obstacles().point_free(Point(29, 12))

    @pytest.mark.parametrize("at", [[40.7, 39], ["40", 39], [True, False], [40, 39.0]])
    def test_non_integer_pin_rejected(self, at):
        data = self.document()
        data["nets"][0]["terminals"][1]["pins"][0]["at"] = at
        with pytest.raises(LayoutError):
            layout_from_dict(data)

    def test_fractional_cell_rect_rejected(self):
        data = self.document()
        data["cells"][0]["rect"] = [18, 9, 30.5, 19]
        with pytest.raises(LayoutError, match="non-integer"):
            layout_from_dict(data)

    def test_fractional_polygon_vertex_rejected(self):
        data = self.document()
        del data["cells"][0]["rect"]
        data["cells"][0]["polygon"] = [[18, 9], [30.5, 9], [30.5, 19], [18, 19]]
        with pytest.raises(LayoutError, match="non-integer"):
            layout_from_dict(data)

    def test_direct_construction_rejected(self):
        with pytest.raises(LayoutError, match="non-integer"):
            Layout(Rect(0, 0, 100.5, 100))
        with pytest.raises(LayoutError, match="non-integer"):
            Layout(Rect(False, 0, 100, 100))
        layout = basic_layout()
        with pytest.raises(LayoutError, match="non-integer"):
            layout.add_cell(Cell("c", Rect(60.5, 10, 70, 20)))
        with pytest.raises(LayoutError, match="non-integer"):
            layout.add_net(Net.two_point("n", Point(0, 0), Point(5, 5.5)))
        assert "c" not in layout and "n" not in layout

    def test_numpy_integers_accepted(self):
        layout = Layout(Rect(0, 0, np.int64(100), 100))
        layout.add_net(Net.two_point("n", Point(np.int32(0), 0), Point(5, 5)))
        assert "n" in layout

    @pytest.mark.parametrize("dx", [1.5, "1", True])
    def test_non_integer_cell_move_rejected(self, dx):
        base = layout_from_dict(self.document())
        delta = LayoutDelta.from_dict(
            {"version": 1, "move_cells": [{"name": "c", "dx": dx, "dy": 0}]}
        )
        with pytest.raises(LayoutError, match="non-integer"):
            apply_delta(base, delta)


class TestViews:
    def test_obstacles_snapshot(self):
        layout = basic_layout()
        obs = layout.obstacles()
        assert len(obs.rects) == 2
        # growing the view must not affect it or the layout
        grown = obs.extended([Rect(0, 0, 1, 1)])
        assert len(grown.rects) == 3
        assert len(obs.rects) == 2
        assert len(layout.obstacles().rects) == 2

    def test_metrics(self):
        layout = basic_layout()
        assert layout.cell_area == 800
        assert layout.utilization == pytest.approx(0.08)
        # rectilinear gap: 20 in x plus 20 in y
        assert layout.min_cell_separation() == 40

    def test_min_separation_single_cell(self):
        layout = Layout(Rect(0, 0, 50, 50), cells=[Cell.rect("a", 5, 5, 10, 10)])
        assert layout.min_cell_separation() is None
