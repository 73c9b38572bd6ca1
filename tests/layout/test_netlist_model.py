"""Unit tests for pins, multi-pin terminals, and nets."""

import dataclasses
import pickle

import pytest

from repro.errors import LayoutError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.layout.net import Net
from repro.layout.pin import Pin
from repro.layout.terminal import Terminal


class TestPin:
    def test_basic(self):
        pin = Pin("a", Point(3, 4), "cell1")
        assert pin.location == Point(3, 4)
        assert not pin.is_pad

    def test_pad_pin(self):
        assert Pin("p", Point(0, 0)).is_pad

    def test_empty_name_rejected(self):
        with pytest.raises(LayoutError):
            Pin("", Point(0, 0))


class TestTerminal:
    def test_single_helper(self):
        term = Terminal.single("t", Point(1, 2), "c")
        assert term.locations == (Point(1, 2),)
        assert not term.is_multi_pin

    def test_multi_pin(self):
        term = Terminal("t", [Pin("a", Point(0, 0)), Pin("b", Point(10, 0))])
        assert term.is_multi_pin
        assert len(term.pins) == 2

    def test_no_pins_rejected(self):
        with pytest.raises(LayoutError):
            Terminal("t", [])

    def test_duplicate_pin_names_rejected(self):
        with pytest.raises(LayoutError):
            Terminal("t", [Pin("a", Point(0, 0)), Pin("a", Point(1, 1))])

    def test_nearest_pin(self):
        term = Terminal("t", [Pin("a", Point(0, 0)), Pin("b", Point(10, 0))])
        assert term.nearest_pin_to(Point(8, 0)).name == "b"
        assert term.nearest_pin_to(Point(1, 0)).name == "a"

    def test_nearest_pin_tie_break_by_name(self):
        term = Terminal("t", [Pin("b", Point(0, 2)), Pin("a", Point(2, 0))])
        assert term.nearest_pin_to(Point(0, 0)).name == "a"

    def test_distance_to(self):
        term = Terminal("t", [Pin("a", Point(0, 0)), Pin("b", Point(10, 0))])
        assert term.distance_to(Point(9, 1)) == 2

    def test_locations_are_computed_once(self):
        term = Terminal("t", [Pin("a", Point(0, 0)), Pin("b", Point(10, 0))])
        assert term.locations == (Point(0, 0), Point(10, 0))
        assert term.locations is term.locations

    def test_locations_stay_out_of_equality_hash_and_repr(self):
        pins = [Pin("a", Point(0, 0)), Pin("b", Point(10, 0))]
        term = Terminal("t", pins)
        assert term == Terminal("t", pins) and hash(term) == hash(Terminal("t", pins))
        assert "locations" not in repr(term)
        assert [f.name for f in dataclasses.fields(term)] == ["name", "pins"]

    def test_pickle_round_trip(self):
        term = Terminal("t", [Pin("a", Point(0, 0), "c"), Pin("b", Point(10, 0))])
        copy = pickle.loads(pickle.dumps(term))
        assert copy == term and hash(copy) == hash(term)
        assert copy.locations == term.locations


class TestNet:
    def two_terminals(self):
        return [Terminal.single("s", Point(0, 0)), Terminal.single("d", Point(10, 5))]

    def test_two_point_helper(self):
        net = Net.two_point("n", Point(0, 0), Point(10, 5))
        assert net.is_two_terminal
        assert net.pin_count == 2

    def test_single_terminal_rejected(self):
        with pytest.raises(LayoutError):
            Net("n", [Terminal.single("t", Point(0, 0))])

    def test_duplicate_terminal_names_rejected(self):
        with pytest.raises(LayoutError):
            Net("n", [Terminal.single("t", Point(0, 0)), Terminal.single("t", Point(1, 1))])

    def test_bounding_box_and_hpwl(self):
        net = Net("n", self.two_terminals())
        assert net.bounding_box == Rect(0, 0, 10, 5)
        assert net.hpwl == 15

    def test_hpwl_covers_all_pins_of_all_terminals(self):
        multi = Terminal("m", [Pin("a", Point(0, 0)), Pin("b", Point(20, 0))])
        net = Net("n", [multi, Terminal.single("d", Point(5, 9))])
        assert net.bounding_box == Rect(0, 0, 20, 9)

    def test_terminal_lookup(self):
        net = Net("n", self.two_terminals())
        assert net.terminal("s").name == "s"
        with pytest.raises(LayoutError):
            net.terminal("nope")

    def test_all_pin_locations(self):
        net = Net("n", self.two_terminals())
        assert set(net.all_pin_locations) == {Point(0, 0), Point(10, 5)}
