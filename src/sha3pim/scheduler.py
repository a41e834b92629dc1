"""Macro-op expansion and greedy packing of gate streams into cycle bundles.

Producers emit streams of macro operations separated by barriers; ops
between two barriers are declared independent by the producer. A macro is
either XOR2, the one ``MacroKind`` macro, or a single gate, whose kind is
its ``GateType``. Every macro is a *run*: its first line's cells
plus a count and a stride that repeats them along parallel rows or
columns, the unit a row-parallel crossbar operation works in (a single
macro is a run of one line). Expansion rewrites each run into its fixed
primitive sequence, as micro-op runs, and a first-fit pass keys each
micro-op run once and packs it into bundles of one merged region and one
``crossbar.line_pattern`` each, where its lines would go one by one. A
run is keyed by the merged region of its first output, and must lie in
that region, as every run of the hash microcode does inside its unit;
``crossbar.check_bundle`` rejects one that does not. The microcode is
written for one reference unit and replayed in lockstep on every unit,
so no bundle needs to hold more than one region. A segment, the bundles
scheduled from one stream, is expanded to one ``crossbar.LineTable``,
which one ``grids`` pass, one ``crossbar.check_bundle`` call,
``check_presets`` and then ``engine.freeze`` all read.

Fixed decompositions (each line is one cycle; presets batched where legal):

    gate(ins)   = INIT1 out; gate ins->out      (INIT1 alone: the preset only)
    XOR2(a,b)   = INIT1 u,v,w,out; OR2(a,b)->u; AND2(a,b)->v; NOT v->w;
                  AND2(u,w)->out

XOR2 carries its scratch cells pinned on the macro, which is how the
hash microcode lays out its units. No op declares an orientation:
a macro's cells share one row or one column, and each micro-op's
orientation follows from its cells. A stream carries one step label, which
every bundle scheduled from it takes.

Presets are counted: each INIT1 cycle is part of the modelled cost. The
preset rule (``check_presets``) proves on every scheduled segment that each
gate writes a cell preset since its last write and not read since, so no
microcode can drop one. A preset that only feeds its gate is dead on the
host, where a gate's output depends on its inputs alone; ``engine.freeze``
marks such rows, and replay skips them outside strict mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .crossbar import (
    GATE_NUM_INPUTS,
    Cell,
    Crossbar,
    CycleBundle,
    GateType,
    LineTable,
    MicroOp,
    SchedulingError,
    SimulationError,
    SwitchId,
    grids,
    line_pattern,
    line_table,
    shape_violation,
)


class ShapeError(SimulationError):
    """A macro's cells share no row or column, or it repeats a cell it writes."""


class MacroKind(Enum):
    """The macros that expand to several gates."""

    XOR2 = "xor2"


_NUM_INPUTS = {MacroKind.XOR2: 2, **GATE_NUM_INPUTS}

SCRATCH_NEEDS = {MacroKind.XOR2: 3}


@dataclass(slots=True)
class MacroOp:
    """One logical operation before decomposition into primitives, run
    along ``count`` parallel lines.

    The first line's inputs, output and scratch cells share one row or one
    column, which fixes the orientation of every micro-op it expands to;
    line ``k`` is the first moved by ``k`` strides, and the stride may not
    move along the line. ``scratch`` pins the cells an XOR2 expansion
    uses. ``switches`` lists partition boundaries that must be
    bridged for this op (used by the inter-unit copy hops); such ops only
    share a bundle with ops declaring the identical switch set.
    """

    kind: MacroKind | GateType
    inputs: tuple[Cell, ...]
    output: Cell
    scratch: tuple[Cell, ...] | None = None
    switches: frozenset[SwitchId] = frozenset()
    count: int = 1
    stride: Cell = (0, 0)

    def validate(self) -> None:
        msg = shape_violation(self.kind.name, _NUM_INPUTS[self.kind], self.inputs,
                              (self.output, *(self.scratch or ())),
                              self.count, self.stride)
        if msg:
            raise ShapeError(msg)


_BARRIER = object()


class OpStream:
    """Ordered macro ops with explicit sequence-point barriers, under one
    step label.

    The macros between two barriers form a group. They must be independent
    of each other, and no two of them may write the same cell.
    """

    def __init__(self, label: str = "main"):
        self.label = label
        self._items: list = []

    def append(self, op: MacroOp) -> None:
        self._items.append(op)

    def barrier(self) -> None:
        if self._items and self._items[-1] is not _BARRIER:
            self._items.append(_BARRIER)

    def __len__(self) -> int:
        """The number of lines of its macros."""
        return sum(item.count for item in self._items if item is not _BARRIER)

    def groups(self):
        """Yield lists of macros delimited by barriers."""
        group: list[MacroOp] = []
        for item in self._items:
            if item is _BARRIER:
                if group:
                    yield group
                    group = []
            else:
                group.append(item)
        if group:
            yield group


def expand(macro: MacroOp) -> list[list[MicroOp]]:
    """Decompose one macro into stages of co-schedulable micro-ops, each a
    run along the macro's lines.

    Stages are sequentially dependent; ops inside one stage are not.
    """
    macro.validate()
    kind = macro.kind
    run = {"count": macro.count, "stride": macro.stride}
    if isinstance(kind, GateType):
        # Every gate output is INIT1-prepared; the preset cycle is counted,
        # the preset rule proves it, and replay skips it when it is dead.
        stages = [[MicroOp(GateType.INIT1, (), macro.output, **run)]]
        if kind is not GateType.INIT1:
            stages.append([MicroOp(kind, macro.inputs, macro.output, **run)])
        return stages

    need = SCRATCH_NEEDS[kind]
    scratch = macro.scratch or ()
    if len(scratch) != need:
        raise ShapeError(f"{kind.name} needs {need} scratch cells, got {len(scratch)}")

    def init(*cells: Cell) -> list[MicroOp]:
        return [MicroOp(GateType.INIT1, (), cell, **run) for cell in cells]

    def op(gate: GateType, ins: tuple[Cell, ...], out: Cell) -> list[MicroOp]:
        return [MicroOp(gate, ins, out, **run)]

    a, b = macro.inputs     # XOR2
    u, v, w = scratch
    return [init(u, v, w, macro.output),
            op(GateType.OR2, (a, b), u),
            op(GateType.AND2, (a, b), v),
            op(GateType.NOT, (v,), w),
            op(GateType.AND2, (u, w), macro.output)]


@dataclass
class ScheduledProgram:
    """Packed bundles under their stream's step label, and their lines."""

    label: str
    bundles: list[CycleBundle]
    lines: LineTable


def _close(pending: list[tuple[list[MicroOp], frozenset[SwitchId]]]
           ) -> tuple[list[CycleBundle], LineTable]:
    """Emit the open bundles ``pending`` (ops, switch set) in order, each
    split into grids if its presets are not one, with their line table.

    A single-cycle preset drives selected wordlines x bitlines, so the
    cells of one INIT group must form a full cross product. Every preset
    bundle is classified off the segment's table in one ``grids`` pass. A
    non-grid set is split line by line into the groups of lines sharing one
    cross-line set (columns or rows, whichever gives fewer), one bundle
    each, and the split segment is expanded again.
    """
    bundles = [CycleBundle(ops, switches) for ops, switches in pending]
    lines = line_table(bundles)
    at = np.flatnonzero(lines.gate[lines.run] == GateType.INIT1)
    grid = grids(lines.bundle[lines.run[at]], lines.cells[at, 0, 0],
                 lines.cells[at, 0, 1], len(bundles))
    if grid.all():
        return bundles, lines
    bundles = [part for bundle, whole in zip(bundles, grid)
               for part in ([bundle] if whole else _split(bundle))]
    return bundles, line_table(bundles)


def _split(bundle: CycleBundle) -> list[CycleBundle]:
    """A non-grid preset bundle's lines, one bundle per cross-line set."""
    lines = bundle.lines()
    outputs = {line.output for line in lines}
    by_col: dict[frozenset, set[Cell]] = {}
    by_row: dict[frozenset, set[Cell]] = {}
    for c in sorted({c for _, c in outputs}):
        key = frozenset(r for r, cc in outputs if cc == c)
        by_col.setdefault(key, set()).update((r, c) for r in key)
    for r in sorted({r for r, _ in outputs}):
        key = frozenset(c for rr, c in outputs if rr == r)
        by_row.setdefault(key, set()).update((r, c) for c in key)
    return [CycleBundle([line for line in lines if line.output in group],
                        bundle.closed_switches)
            for group in min((by_col, by_row), key=len).values()]


def schedule(stream: OpStream, crossbar: Crossbar) -> ScheduledProgram:
    """Expand and pack a macro stream into legal cycle bundles.

    Each bundle holds one merged region, one switch set and one
    ``line_pattern``; that triple is its key. Within each barrier group,
    first fit puts every micro-op run into the earliest bundle past its
    macro's previous stage whose key equals the run's. A run is keyed
    once, by the region of its first output, and placed whole, as each of
    its lines would be placed alone; a run that leaves that region fails
    the check below.
    Bundle order concatenated across groups preserves the stream's serial
    semantics.

    Once every group is packed, the preset bundles that are not a grid are
    split (``_close``). The producer promises that the macros of one group
    are independent and that no two of them write the same cell. The
    segment's line table is checked by one ``crossbar.check_bundle`` call,
    and by ``check_presets``; an illegal bundle, such as one with two
    writes of one cell or a gate whose preset was read first, raises
    ``SchedulingError``, which names it (``bundle k``) in a segment of more
    than one bundle.
    """
    partitions = crossbar.partition_map
    pending: list[tuple[list[MicroOp], frozenset[SwitchId]]] = []
    for group in stream.groups():
        keys: list[tuple] = []
        bundles: list[list[MicroOp]] = []
        for macro in group:
            floor = -1
            for stage in expand(macro):
                stage_top = floor
                for op in stage:
                    key = (partitions.region_of(op.output, macro.switches),
                           macro.switches, line_pattern(op))
                    try:
                        index = keys.index(key, floor + 1)
                    except ValueError:
                        index = len(keys)
                        keys.append(key)
                        bundles.append([])
                    bundles[index].append(op)
                    stage_top = max(stage_top, index)
                floor = stage_top
        pending += [(ops, switches) for (_, switches, _), ops in zip(keys, bundles)]
    bundles, lines = _close(pending)
    ok, violations = crossbar.check_bundle(bundles, lines)
    if not ok:
        raise SchedulingError("scheduler emitted an illegal bundle: "
                              + "; ".join(violations))
    check_presets(lines)
    return ScheduledProgram(stream.label, bundles, lines)


def check_presets(lines: LineTable) -> None:
    """The preset rule, on a segment's line table: raise
    ``SchedulingError`` unless every non-INIT1 gate writes a cell that was
    INIT1-preset since its last write, with no read of it in between.

    A stateful gate can only switch its output cell away from the preset
    value, so without a fresh preset its result would depend on the cell's
    old value.
    Each preset comes from the same macro as its gate, and so from the same
    segment, which makes this check of one segment in reference
    coordinates exact. A preset that is read (a constant 1) is legal; it
    only cannot then serve a gate.

    Every line of every run is one access per cell it touches. Accesses
    are sorted by cell, then bundle, reads before writes (a bundle reads
    before it writes), then line; a gate's write is legal iff the access
    before it is an INIT1 write of its cell.
    """
    if not lines.cells.shape[0]:
        return
    owner, gate, bundle = lines.run, lines.gate, lines.bundle
    r, c = lines.cells[..., 0], lines.cells[..., 1]
    line, slot = np.nonzero(np.arange(3) <= lines.arity[owner][:, None])
    cell = (r[line, slot] - r.min()) * (c.max() - c.min() + 1) \
        + c[line, slot] - c.min()
    # one int64 per access orders it by cell, bundle, then reads before
    # writes; the stable sort keeps the line order of the rest
    order = np.argsort((cell * len(lines.bundle_ptr) + bundle[owner[line]]) * 2
                       + (slot == 0), kind="stable")
    line, write, cell = line[order], slot[order] == 0, cell[order]
    del order, slot
    gated = np.flatnonzero(write & (gate[owner[line]] != GateType.INIT1))
    before = np.maximum(gated - 1, 0)
    legal = (gated > 0) & (cell[before] == cell[gated]) & write[before] \
        & (gate[owner[line[before]]] == GateType.INIT1)
    if not legal.all():
        bad = int(line[gated[~legal]].min())
        raise SchedulingError(
            f"bundle {bundle[owner[bad]]}: {GateType(gate[owner[bad]]).name} writes "
            f"{(int(r[bad, 0]), int(c[bad, 0]))}, which was not preset since "
            "its last write or read")
