"""Unit tests for layout validation (the paper's placement restrictions)."""

import pytest

from repro.errors import ValidationError
from repro.geometry.orthpoly import OrthoPolygon
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.layout.cell import Cell
from repro.layout.layout import Layout
from repro.layout.net import Net
from repro.layout.pin import Pin
from repro.layout.terminal import Terminal
from repro.layout.validate import validate_layout


def layout_with(*cells: Cell) -> Layout:
    layout = Layout(Rect(0, 0, 100, 100))
    for cell in cells:
        layout.add_cell(cell)
    return layout


class TestSeparation:
    def test_valid_separation_passes(self):
        layout = layout_with(Cell.rect("a", 0, 0, 20, 20), Cell.rect("b", 25, 0, 20, 20))
        validate_layout(layout, min_separation=2)

    def test_touching_cells_rejected(self):
        layout = layout_with(Cell.rect("a", 0, 0, 20, 20), Cell.rect("b", 20, 0, 20, 20))
        with pytest.raises(ValidationError, match="separation"):
            validate_layout(layout)

    def test_overlapping_cells_rejected(self):
        layout = layout_with(Cell.rect("a", 0, 0, 20, 20), Cell.rect("b", 10, 10, 20, 20))
        with pytest.raises(ValidationError):
            validate_layout(layout)

    def test_diagonal_gap_measured_rectilinearly(self):
        # gap of 1 in both axes -> rectilinear separation 2
        layout = layout_with(Cell.rect("a", 0, 0, 10, 10), Cell.rect("b", 11, 11, 10, 10))
        validate_layout(layout, min_separation=2)
        with pytest.raises(ValidationError):
            validate_layout(layout, min_separation=3)

    def test_zero_min_separation_rejected(self):
        layout = layout_with(Cell.rect("a", 0, 0, 10, 10))
        with pytest.raises(ValidationError, match="non-zero"):
            validate_layout(layout, min_separation=0)


class TestShapes:
    def test_polygon_cells_allowed_by_default(self):
        poly = OrthoPolygon(
            [Point(0, 0), Point(10, 0), Point(10, 5), Point(5, 5), Point(5, 10), Point(0, 10)]
        )
        layout = layout_with(Cell("L", poly))
        validate_layout(layout)

    def test_polygon_cells_rejected_in_strict_mode(self):
        poly = OrthoPolygon(
            [Point(0, 0), Point(10, 0), Point(10, 5), Point(5, 5), Point(5, 10), Point(0, 10)]
        )
        layout = layout_with(Cell("L", poly))
        with pytest.raises(ValidationError, match="polygonal"):
            validate_layout(layout, allow_polygon_cells=False)


class TestPins:
    def make_layout(self) -> Layout:
        return layout_with(Cell.rect("a", 10, 10, 20, 20))

    def test_pin_on_cell_boundary_ok(self):
        layout = self.make_layout()
        layout.add_net(
            Net(
                "n",
                [
                    Terminal("s", [Pin("s", Point(10, 15), "a")]),
                    Terminal("d", [Pin("d", Point(50, 50))]),
                ],
            )
        )
        validate_layout(layout)

    def test_pin_off_its_cell_boundary_rejected(self):
        layout = self.make_layout()
        layout.add_net(
            Net(
                "n",
                [
                    Terminal("s", [Pin("s", Point(40, 40), "a")]),
                    Terminal("d", [Pin("d", Point(50, 50))]),
                ],
            )
        )
        with pytest.raises(ValidationError, match="boundary"):
            validate_layout(layout)

    def test_pin_inside_foreign_cell_rejected(self):
        layout = self.make_layout()
        layout.add_net(
            Net("n", [Terminal.single("s", Point(15, 15)), Terminal.single("d", Point(50, 50))])
        )
        with pytest.raises(ValidationError, match="inside"):
            validate_layout(layout)

    def test_pad_pin_on_outline_ok(self):
        layout = self.make_layout()
        layout.add_net(
            Net("n", [Terminal.single("s", Point(0, 50)), Terminal.single("d", Point(100, 50))])
        )
        validate_layout(layout)

    def test_pin_outside_surface_rejected(self):
        layout = self.make_layout()
        layout.add_net(
            Net("n", [Terminal.single("s", Point(-1, 50)), Terminal.single("d", Point(5, 5))])
        )
        with pytest.raises(ValidationError, match="outside"):
            validate_layout(layout)


class TestRevalidation:
    """A validated layout re-checks only what changed since."""

    @staticmethod
    def net(name, a, b):
        return Net(name, [Terminal.single(f"{name}.s", a), Terminal.single(f"{name}.d", b)])

    def test_a_net_added_after_validation_is_checked(self):
        layout = layout_with(Cell.rect("a", 10, 10, 10, 10))
        layout.add_net(self.net("ok", Point(0, 50), Point(50, 50)))
        validate_layout(layout)
        layout.add_net(self.net("bad", Point(15, 15), Point(50, 60)))
        with pytest.raises(ValidationError, match="'bad' is strictly inside cell 'a'"):
            validate_layout(layout)
        with pytest.raises(ValidationError, match="'bad'"):
            validate_layout(layout)  # still unchecked after a failure
        layout.remove_net("bad")
        validate_layout(layout)

    def test_a_copy_carries_what_was_checked(self):
        layout = layout_with(Cell.rect("a", 10, 10, 10, 10))
        validate_layout(layout)
        copied = layout.copy()
        copied.add_net(self.net("bad", Point(-1, 50), Point(50, 50)))
        with pytest.raises(ValidationError, match="outside the routing surface"):
            validate_layout(copied)
        validate_layout(layout)  # the original never held the net

    def test_adding_a_cell_checks_everything_again(self):
        layout = layout_with(Cell.rect("a", 10, 10, 10, 10))
        validate_layout(layout)
        layout.add_cell(Cell.rect("b", 20, 10, 10, 10))  # touches a
        with pytest.raises(ValidationError, match="'a' and 'b' are 0 apart"):
            validate_layout(layout)

    def test_other_checks_are_not_remembered(self):
        layout = layout_with(Cell.rect("a", 10, 10, 10, 10), Cell.rect("b", 22, 10, 8, 10))
        validate_layout(layout)
        with pytest.raises(ValidationError, match="separation >= 3"):
            validate_layout(layout, min_separation=3)
