"""Property tests: random_layout honors its spec, deterministically.

The scenario corpus and every experiment stand on
:func:`repro.layout.generators.random_layout`, so its contract is
pinned property-style: the separation constraint, the pad/boundary
placement, the terminal/pin count ranges, and byte determinism for the
same spec + seed.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.layout.generators import LayoutSpec
from repro.layout.io import layout_to_json
from repro.layout.validate import validate_layout
from tests.property.conftest import generate


@st.composite
def specs(draw):
    """Small, usually-placeable LayoutSpecs spanning the knob space."""
    term_lo = draw(st.integers(min_value=2, max_value=3))
    term_hi = draw(st.integers(min_value=term_lo, max_value=5))
    pin_lo = draw(st.integers(min_value=1, max_value=2))
    pin_hi = draw(st.integers(min_value=pin_lo, max_value=3))
    return LayoutSpec(
        n_cells=draw(st.integers(min_value=1, max_value=8)),
        n_nets=draw(st.integers(min_value=0, max_value=6)),
        cell_min=6,
        cell_max=draw(st.integers(min_value=6, max_value=14)),
        separation=draw(st.integers(min_value=1, max_value=3)),
        terminals_per_net=(term_lo, term_hi),
        pins_per_terminal=(pin_lo, pin_hi),
        pad_fraction=draw(st.floats(min_value=0.0, max_value=1.0)),
        density=draw(st.floats(min_value=0.15, max_value=0.4)),
    )


def on_boundary(rect: Rect, p: Point) -> bool:
    return rect.contains_point(p) and (
        p.x in (rect.x0, rect.x1) or p.y in (rect.y0, rect.y1)
    )


COMMON = dict(
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


@given(spec=specs(), seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(**COMMON)
def test_same_spec_and_seed_is_byte_deterministic(spec, seed):
    first = generate(spec, seed)
    second = generate(spec, seed)
    assert layout_to_json(first) == layout_to_json(second)


@given(spec=specs(), seed=st.integers(min_value=0, max_value=10_000))
@settings(**COMMON)
def test_problem_size_matches_spec(spec, seed):
    layout = generate(spec, seed)
    assert len(layout.cells) == spec.n_cells
    assert len(layout.nets) == spec.n_nets


@given(spec=specs(), seed=st.integers(min_value=0, max_value=10_000))
@settings(**COMMON)
def test_separation_at_least_spec(spec, seed):
    layout = generate(spec, seed)
    cells = layout.cells
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            gap = cells[i].bounding_box.separation(cells[j].bounding_box)
            assert gap >= spec.separation, (
                f"cells {cells[i].name}/{cells[j].name} separated by {gap} "
                f"< spec {spec.separation}"
            )


@given(spec=specs(), seed=st.integers(min_value=0, max_value=10_000))
@settings(**COMMON)
def test_pads_on_surface_boundary_and_cell_pins_on_their_cell(spec, seed):
    layout = generate(spec, seed)
    cells = {cell.name: cell for cell in layout.cells}
    for net in layout.nets:
        for terminal in net.terminals:
            for pin in terminal.pins:
                if pin.cell is None:
                    assert on_boundary(layout.outline, pin.location), (
                        f"pad pin {pin.name} at {pin.location} off the boundary"
                    )
                else:
                    box = cells[pin.cell].bounding_box
                    assert on_boundary(box, pin.location), (
                        f"pin {pin.name} at {pin.location} off cell {pin.cell}"
                    )


@given(spec=specs(), seed=st.integers(min_value=0, max_value=10_000))
@settings(**COMMON)
def test_terminal_and_pin_counts_within_spec_ranges(spec, seed):
    layout = generate(spec, seed)
    term_lo, term_hi = spec.terminals_per_net
    pin_lo, pin_hi = spec.pins_per_terminal
    for net in layout.nets:
        # The generator clamps nets below two terminals up to two.
        assert max(2, term_lo) <= len(net.terminals) <= max(2, term_hi)
        for terminal in net.terminals:
            assert max(1, pin_lo) <= len(terminal.pins) <= max(1, pin_hi)


@given(spec=specs(), seed=st.integers(min_value=0, max_value=10_000))
@settings(**COMMON)
def test_generated_layouts_validate(spec, seed):
    # validate_layout is the library's own gate; the generator must
    # never hand out a layout the gate rejects.
    validate_layout(generate(spec, seed))
