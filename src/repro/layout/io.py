"""Layout serialization to/from plain dicts and JSON.

A small, stable text format so that example layouts, regression cases,
and externally produced placements can move in and out of the library.
Polygonal cells round-trip via their vertex lists.
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import LayoutError
from repro.geometry.orthpoly import OrthoPolygon
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.layout.cell import Cell
from repro.layout.layout import Layout
from repro.layout.net import Net
from repro.layout.pin import Pin
from repro.layout.terminal import Terminal

FORMAT_VERSION = 1


def layout_to_dict(layout: Layout) -> dict[str, Any]:
    """Convert *layout* to a JSON-ready dict."""
    return {
        "version": FORMAT_VERSION,
        "outline": _rect_to_list(layout.outline),
        "cells": [_cell_to_dict(cell) for cell in layout.cells],
        "nets": [_net_to_dict(net) for net in layout.nets],
    }


def layout_from_dict(data: dict[str, Any]) -> Layout:
    """Rebuild a layout from :func:`layout_to_dict` output.

    Raises :class:`LayoutError` on malformed or wrong-version input.
    """
    try:
        version = data["version"]
        if version != FORMAT_VERSION:
            raise LayoutError(f"unsupported layout format version {version!r}")
        layout = Layout(_rect_from_list(data["outline"]))
        for cell_data in data["cells"]:
            layout.add_cell(_cell_from_dict(cell_data))
        for net_data in data["nets"]:
            layout.add_net(_net_from_dict(net_data))
    except (KeyError, TypeError, ValueError) as exc:
        raise LayoutError(f"malformed layout data: {exc}") from exc
    return layout


def layout_to_json(layout: Layout, *, indent: int | None = 2) -> str:
    """Serialize *layout* to a JSON string."""
    return json.dumps(layout_to_dict(layout), indent=indent)


def layout_from_json(text: str) -> Layout:
    """Parse a layout from a JSON string."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LayoutError(f"invalid JSON: {exc}") from exc
    return layout_from_dict(data)


# ----------------------------------------------------------------------
# Element converters
# ----------------------------------------------------------------------
def _rect_to_list(rect: Rect) -> list[int]:
    """``[x0, y0, x1, y1]`` — the rect shape used throughout the format."""
    return [rect.x0, rect.y0, rect.x1, rect.y1]


def _rect_from_list(values: list[int]) -> Rect:
    """Inverse of :func:`rect_to_list`."""
    x0, y0, x1, y1 = values
    return Rect(x0, y0, x1, y1)


def _cell_to_dict(cell: Cell) -> dict[str, Any]:
    """One cell as its layout-file entry (``rect`` or ``polygon`` form)."""
    if cell.is_rectangular:
        return {"name": cell.name, "rect": _rect_to_list(cell.bounding_box)}
    assert isinstance(cell.shape, OrthoPolygon)
    return {
        "name": cell.name,
        "polygon": [[v.x, v.y] for v in cell.shape.vertices],
    }


def _cell_from_dict(data: dict[str, Any]) -> Cell:
    """Inverse of :func:`cell_to_dict`; raises :class:`LayoutError` when malformed."""
    if "rect" in data:
        return Cell(data["name"], _rect_from_list(data["rect"]))
    if "polygon" in data:
        vertices = [Point(x, y) for x, y in data["polygon"]]
        return Cell(data["name"], OrthoPolygon(vertices))
    raise LayoutError(f"cell entry {data.get('name')!r} has neither 'rect' nor 'polygon'")


def _net_to_dict(net: Net) -> dict[str, Any]:
    """One net as its layout-file entry (terminals with pin lists)."""
    return {
        "name": net.name,
        "terminals": [
            {
                "name": term.name,
                "pins": [
                    {"name": pin.name, "at": [pin.location.x, pin.location.y], "cell": pin.cell}
                    for pin in term.pins
                ],
            }
            for term in net.terminals
        ],
    }


def _net_from_dict(data: dict[str, Any]) -> Net:
    """Inverse of :func:`net_to_dict`."""
    terminals = [
        Terminal(
            term["name"],
            [
                Pin(pin["name"], Point(pin["at"][0], pin["at"][1]), pin.get("cell"))
                for pin in term["pins"]
            ],
        )
        for term in data["terminals"]
    ]
    return Net(data["name"], terminals)


# Public element-level converters.  The incremental delta format
# (:mod:`repro.incremental.delta`) serializes added cells and nets with
# exactly the layout-file shapes, so a delta file reads the same as the
# layout JSON it mutates.
rect_to_list = _rect_to_list
rect_from_list = _rect_from_list
cell_to_dict = _cell_to_dict
cell_from_dict = _cell_from_dict
net_to_dict = _net_to_dict
net_from_dict = _net_from_dict
