"""Layout deltas: the unit of change between design iterations.

The paper's premise is that "multiple design iterations are
inevitable" — placements move, nets are swapped in and out, and the
routing surface itself may be resized between runs.  A
:class:`LayoutDelta` captures one such edit batch declaratively
(add/remove/move cells, add/remove nets, a new outline) so that the
incremental re-router (:mod:`repro.incremental.engine`) can reason
about *what changed* instead of re-deriving it by diffing layouts.

Deltas are values: frozen, JSON round-trippable
(:meth:`LayoutDelta.to_json` / :meth:`LayoutDelta.from_json` — added
cells and nets use exactly the layout-file element shapes from
:mod:`repro.layout.io`), and composable (:func:`compose_deltas`
satisfies ``apply(apply(L, a), b) == apply(L, compose_deltas(a, b))``).

Capacity semantics: this router is gridless, so passage capacity is
*derived from geometry* (``gap + 1`` — see
:mod:`repro.core.congestion`), not stored per edge.  Capacity changes
are therefore expressed geometrically: moving/removing cells widens or
narrows the passages between them, and replacing the ``outline``
resizes the routing surface itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Optional

from repro.errors import LayoutError
from repro.geometry.rect import Rect
from repro.layout.cell import Cell
from repro.layout.io import (
    cell_from_dict,
    cell_to_dict,
    net_from_dict,
    net_to_dict,
    rect_from_list,
    rect_to_list,
)
from repro.layout.layout import Layout, _coordinate_problem
from repro.layout.net import Net
from repro.layout.pin import Pin
from repro.layout.terminal import Terminal

FORMAT_VERSION = 1


@dataclass(frozen=True)
class CellMove:
    """Displace one existing cell (and every pin attached to it)."""

    name: str
    dx: int
    dy: int

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return {"name": self.name, "dx": self.dx, "dy": self.dy}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CellMove":
        """Inverse of :meth:`as_dict`."""
        return cls(name=data["name"], dx=data["dx"], dy=data["dy"])


def _duplicates(names: Iterable[str]) -> list[str]:
    seen: set[str] = set()
    dupes: list[str] = []
    for name in names:
        if name in seen and name not in dupes:
            dupes.append(name)
        seen.add(name)
    return dupes


@dataclass(frozen=True)
class LayoutDelta:
    """One batch of edits to apply to a base layout.

    Semantics (the order :func:`apply_delta` uses):

    1. ``outline`` (when set) replaces the routing surface.
    2. ``remove_nets`` / ``remove_cells`` rip named elements out; a
       surviving net may not reference a removed cell unless the same
       delta re-adds it.
    3. ``move_cells`` displaces cells; pins whose ``pin.cell`` names
       the moved cell ride along (matching
       :func:`repro.core.feedback.move_cell`).
    4. ``add_cells`` / ``add_nets`` install new elements.  A name that
       appears in both a remove list and an add list is a *replace*:
       removed, then re-added with the new definition.

    A delta is a value — construction validates internal consistency
    (no duplicate names per list, no move of a cell that is also
    removed or added) but says nothing about any particular layout;
    :func:`apply_delta` checks applicability against the base.
    """

    add_cells: tuple[Cell, ...] = ()
    remove_cells: tuple[str, ...] = ()
    move_cells: tuple[CellMove, ...] = ()
    add_nets: tuple[Net, ...] = ()
    remove_nets: tuple[str, ...] = ()
    outline: Optional[Rect] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "add_cells", tuple(self.add_cells))
        object.__setattr__(self, "remove_cells", tuple(self.remove_cells))
        object.__setattr__(self, "move_cells", tuple(self.move_cells))
        object.__setattr__(self, "add_nets", tuple(self.add_nets))
        object.__setattr__(self, "remove_nets", tuple(self.remove_nets))
        for label, names in (
            ("add_cells", [c.name for c in self.add_cells]),
            ("remove_cells", self.remove_cells),
            ("move_cells", [m.name for m in self.move_cells]),
            ("add_nets", [n.name for n in self.add_nets]),
            ("remove_nets", self.remove_nets),
        ):
            dupes = _duplicates(names)
            if dupes:
                raise LayoutError(f"delta {label} repeats name(s) {dupes}")
        moved = {m.name for m in self.move_cells}
        conflicted = sorted(moved & set(self.remove_cells))
        if conflicted:
            raise LayoutError(
                f"delta both moves and removes cell(s) {conflicted}; "
                f"compose the edits into a replace instead"
            )
        conflicted = sorted(moved & {c.name for c in self.add_cells})
        if conflicted:
            raise LayoutError(
                f"delta both moves and adds cell(s) {conflicted}; "
                f"add the cell at its final position instead"
            )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """Whether applying this delta is the identity."""
        return (
            not self.add_cells
            and not self.remove_cells
            and not self.move_cells
            and not self.add_nets
            and not self.remove_nets
            and self.outline is None
        )

    @property
    def replaced_cells(self) -> frozenset[str]:
        """Cell names removed *and* re-added by this delta."""
        return frozenset(self.remove_cells) & {c.name for c in self.add_cells}

    @property
    def replaced_nets(self) -> frozenset[str]:
        """Net names removed *and* re-added by this delta."""
        return frozenset(self.remove_nets) & {n.name for n in self.add_nets}

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Convert to a JSON-ready dict."""
        return {
            "version": FORMAT_VERSION,
            "add_cells": [cell_to_dict(cell) for cell in self.add_cells],
            "remove_cells": list(self.remove_cells),
            "move_cells": [move.as_dict() for move in self.move_cells],
            "add_nets": [net_to_dict(net) for net in self.add_nets],
            "remove_nets": list(self.remove_nets),
            "outline": None if self.outline is None else rect_to_list(self.outline),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LayoutDelta":
        """Rebuild a delta from :meth:`to_dict` output."""
        try:
            version = data["version"]
            if version != FORMAT_VERSION:
                raise LayoutError(f"unsupported delta format version {version!r}")
            outline = data.get("outline")
            return cls(
                add_cells=tuple(cell_from_dict(c) for c in data.get("add_cells", ())),
                remove_cells=tuple(data.get("remove_cells", ())),
                move_cells=tuple(
                    CellMove.from_dict(m) for m in data.get("move_cells", ())
                ),
                add_nets=tuple(net_from_dict(n) for n in data.get("add_nets", ())),
                remove_nets=tuple(data.get("remove_nets", ())),
                outline=None if outline is None else rect_from_list(outline),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise LayoutError(f"malformed delta data: {exc}") from exc

    def to_json(self, *, indent: int | None = 2) -> str:
        """Serialize to a JSON string (deterministic for equal deltas)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LayoutDelta":
        """Parse a delta from a JSON string."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise LayoutError(f"invalid delta JSON: {exc}") from exc
        return cls.from_dict(data)


def apply_delta(layout: Layout, delta: LayoutDelta) -> Layout:
    """A new layout with *delta* applied to *layout*.

    The base layout is never mutated — a fresh :class:`Layout` is built
    in the base's element order (survivors first, additions after), so
    repeated application is deterministic.  Raises
    :class:`LayoutError` when the delta does not fit the base: removing
    or moving names that do not exist, adding duplicates, moving a cell
    by a non-integer offset or off the surface, or removing a cell a
    surviving net still pins to.
    """
    for name in delta.remove_cells:
        layout.cell(name)
    for name in delta.remove_nets:
        layout.net(name)
    for move in delta.move_cells:
        layout.cell(move.name)
        problem = _coordinate_problem((move.dx, move.dy))
        if problem:
            raise LayoutError(f"move of cell {move.name!r} {problem}")

    if delta.outline in (None, layout.outline) and not (delta.remove_cells or delta.move_cells):
        # Cells and the surface stay: every surviving net carries over
        # as it is, so the base's already-checked contents are copied.
        mutated = layout.copy()
        for name in delta.remove_nets:
            mutated.remove_net(name)
        for cell in delta.add_cells:
            mutated.add_cell(cell)
        for net in delta.add_nets:
            mutated.add_net(net)
        return mutated

    removed_cells = set(delta.remove_cells)
    removed_nets = set(delta.remove_nets)
    re_added_cells = {c.name for c in delta.add_cells}
    moves = {m.name: m for m in delta.move_cells}

    outline = delta.outline if delta.outline is not None else layout.outline
    mutated = Layout(outline)
    for cell in layout.cells:
        if cell.name in removed_cells:
            continue  # gone, or re-added below with its new definition
        move = moves.get(cell.name)
        mutated.add_cell(cell.translated(move.dx, move.dy) if move else cell)
    for cell in delta.add_cells:
        mutated.add_cell(cell)

    for net in layout.nets:
        if net.name in removed_nets:
            continue
        mutated.add_net(_carry_net(net, removed_cells - re_added_cells, moves))
    for net in delta.add_nets:
        mutated.add_net(net)
    return mutated


def _carry_net(net: Net, orphaned_cells: set[str], moves: Mapping[str, CellMove]) -> Net:
    """A surviving net, with pins on moved cells displaced along.

    ``orphaned_cells`` are cells the delta removes without replacing;
    a surviving net pinned to one cannot be carried.
    """
    touched = False
    terminals = []
    for terminal in net.terminals:
        pins = []
        for pin in terminal.pins:
            if pin.cell in orphaned_cells:
                raise LayoutError(
                    f"delta removes cell {pin.cell!r} but net {net.name!r} still "
                    f"references it; remove or replace the net in the same delta"
                )
            move = moves.get(pin.cell) if pin.cell is not None else None
            if move is not None:
                pins.append(
                    Pin(pin.name, pin.location.translated(move.dx, move.dy), pin.cell)
                )
                touched = True
            else:
                pins.append(pin)
        terminals.append(Terminal(terminal.name, pins))
    return Net(net.name, terminals) if touched else net


def changed_rects(layout: Layout, delta: LayoutDelta) -> list[Rect]:
    """Every rectangle of geometry the delta disturbs, in base coordinates.

    Removed cells contribute their old footprint (routes may now pass
    there, but routes that hugged them were placed against geometry
    that no longer exists); moved cells contribute both old and new
    footprints; added cells contribute their new footprint.  The
    dirty-set analyzer (:mod:`repro.incremental.dirty`) inflates these
    by one unit so that routes merely *hugging* changed geometry count
    as intersecting it.
    """
    rects: list[Rect] = []
    for name in delta.remove_cells:
        rects.extend(layout.cell(name).blocking_rects)
    for move in delta.move_cells:
        cell = layout.cell(move.name)
        rects.extend(cell.blocking_rects)
        rects.extend(cell.translated(move.dx, move.dy).blocking_rects)
    for cell in delta.add_cells:
        rects.extend(cell.blocking_rects)
    return rects


# ----------------------------------------------------------------------
# Composition
# ----------------------------------------------------------------------
#: Per-name edit states used by :func:`compose_deltas`.
_REMOVED, _MOVED, _ADDED, _REPLACED = "removed", "moved", "added", "replaced"


def _cell_states(delta: LayoutDelta) -> dict[str, tuple[str, Any]]:
    states: dict[str, tuple[str, Any]] = {}
    added = {c.name: c for c in delta.add_cells}
    for name in delta.remove_cells:
        if name in added:
            states[name] = (_REPLACED, added[name])
        else:
            states[name] = (_REMOVED, None)
    for name, cell in added.items():
        states.setdefault(name, (_ADDED, cell))
    for move in delta.move_cells:
        states[move.name] = (_MOVED, (move.dx, move.dy))
    return states


def _net_states(delta: LayoutDelta) -> dict[str, tuple[str, Any]]:
    states: dict[str, tuple[str, Any]] = {}
    added = {n.name: n for n in delta.add_nets}
    for name in delta.remove_nets:
        if name in added:
            states[name] = (_REPLACED, added[name])
        else:
            states[name] = (_REMOVED, None)
    for name, net in added.items():
        states.setdefault(name, (_ADDED, net))
    return states


def _compose_states(
    name: str,
    first: Optional[tuple[str, Any]],
    second: Optional[tuple[str, Any]],
    *,
    movable: bool,
) -> Optional[tuple[str, Any]]:
    """The single-name composition table.

    Each state is a transition on "does this name exist, and as what";
    composing two deltas composes the transitions, which is what makes
    :func:`compose_deltas` associative.  Pairs that presuppose an
    element the intermediate layout cannot have (remove after remove,
    add over an existing add) raise, mirroring what applying the two
    deltas in sequence would have raised.
    """
    if second is None:
        return first
    if first is None:
        return second
    f_kind, f_val = first
    s_kind, s_val = second

    def invalid() -> LayoutError:
        return LayoutError(
            f"cannot compose deltas: {s_kind!r} of {name!r} after {f_kind!r}"
        )

    if f_kind == _REMOVED:
        if s_kind == _ADDED:
            return (_REPLACED, s_val)
        raise invalid()  # the intermediate layout has no such element
    if f_kind == _MOVED:
        if s_kind == _MOVED:
            return (_MOVED, (f_val[0] + s_val[0], f_val[1] + s_val[1]))
        if s_kind in (_REMOVED, _REPLACED):
            return (s_kind, s_val)
        raise invalid()  # adding over an existing element
    if f_kind == _ADDED:
        if s_kind == _MOVED:
            assert movable
            return (_ADDED, f_val.translated(*s_val))
        if s_kind == _REMOVED:
            return None  # added then removed: the base never sees it
        if s_kind == _REPLACED:
            return (_ADDED, s_val)  # base never had it, so still an add
        raise invalid()
    assert f_kind == _REPLACED
    if s_kind == _MOVED:
        assert movable
        return (_REPLACED, f_val.translated(*s_val))
    if s_kind == _REMOVED:
        return (_REMOVED, None)
    if s_kind == _REPLACED:
        return (_REPLACED, s_val)
    raise invalid()


def compose_deltas(first: LayoutDelta, second: LayoutDelta) -> LayoutDelta:
    """The single delta equivalent to applying *first* then *second*.

    For every layout the pair applies to cleanly::

        apply_delta(apply_delta(L, first), second)
            == apply_delta(L, compose_deltas(first, second))

    and composition is associative, so a whole editing session folds
    into one delta.  Output lists are sorted by name for determinism.
    """
    first_cells, second_cells = _cell_states(first), _cell_states(second)
    cells: dict[str, Optional[tuple[str, Any]]] = {}
    for name in set(first_cells) | set(second_cells):
        cells[name] = _compose_states(
            name, first_cells.get(name), second_cells.get(name), movable=True
        )
    first_nets, second_nets = _net_states(first), _net_states(second)
    nets: dict[str, Optional[tuple[str, Any]]] = {}
    for name in set(first_nets) | set(second_nets):
        nets[name] = _compose_states(
            name, first_nets.get(name), second_nets.get(name), movable=False
        )
    # A net the first delta adds exists in the intermediate layout, so
    # the second delta's cell moves carry its pins along (exactly what
    # sequential application does via ``_carry_net``).  The second
    # delta's own nets are exempt: within one delta, moves precede adds.
    second_moves = {m.name: m for m in second.move_cells}
    if second_moves:
        for name, state in nets.items():
            if state is None or name in second_nets:
                continue
            kind, value = state
            if kind in (_ADDED, _REPLACED):
                nets[name] = (kind, _carry_net(value, set(), second_moves))

    add_cells, remove_cells, move_cells = [], [], []
    for name in sorted(cells):
        state = cells[name]
        if state is None:
            continue
        kind, value = state
        if kind == _REMOVED:
            remove_cells.append(name)
        elif kind == _MOVED:
            move_cells.append(CellMove(name, value[0], value[1]))
        elif kind == _ADDED:
            add_cells.append(value)
        else:  # replaced
            remove_cells.append(name)
            add_cells.append(value)

    add_nets, remove_nets = [], []
    for name in sorted(nets):
        state = nets[name]
        if state is None:
            continue
        kind, value = state
        if kind == _REMOVED:
            remove_nets.append(name)
        elif kind == _ADDED:
            add_nets.append(value)
        else:  # replaced
            remove_nets.append(name)
            add_nets.append(value)

    return LayoutDelta(
        add_cells=tuple(add_cells),
        remove_cells=tuple(remove_cells),
        move_cells=tuple(move_cells),
        add_nets=tuple(add_nets),
        remove_nets=tuple(remove_nets),
        outline=second.outline if second.outline is not None else first.outline,
    )
