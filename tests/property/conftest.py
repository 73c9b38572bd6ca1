"""Shared helpers for the property suites."""

from hypothesis import assume

from repro.errors import LayoutError
from repro.layout.generators import random_layout


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
