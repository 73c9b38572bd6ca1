"""Shared helpers for the property suites."""

from hypothesis import assume, strategies as st

from repro.errors import LayoutError
from repro.geometry.rect import Rect
from repro.layout.cell import Cell
from repro.layout.generators import random_layout
from repro.layout.layout import MAX_COORDINATE, Layout

#: Coordinates at and next to the ``±2**62`` layout limit, and around
#: the origin.
LIMIT = (-MAX_COORDINATE, -MAX_COORDINATE + 1, -MAX_COORDINATE + 2, -1, 0, 1)
LIMIT += tuple(-c for c in LIMIT)


def generate(spec, seed):
    """random_layout, discarding the rare too-dense rejection.

    ``random_layout`` raises :class:`LayoutError` when it cannot place
    every cell of *spec*; such a draw says nothing about the property
    under test, so hypothesis discards it.
    """
    try:
        return random_layout(spec, seed=seed)
    except LayoutError:
        assume(False)


@st.composite
def limit_layouts(draw) -> Layout:
    """Up to three rect cells on :data:`LIMIT` in the ``±2**62`` surface."""
    M = MAX_COORDINATE
    layout = Layout(Rect(-M, -M, M, M))
    for index in range(draw(st.integers(min_value=0, max_value=3))):
        xs, ys = (
            sorted(draw(st.lists(st.sampled_from(LIMIT), min_size=2, max_size=2, unique=True)))
            for _ in range(2)
        )
        layout.add_cell(Cell(f"c{index}", Rect(xs[0], ys[0], xs[1], ys[1])))
    return layout
