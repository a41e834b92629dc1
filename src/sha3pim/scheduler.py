"""Macro-op expansion and greedy packing of gate streams into cycle bundles.

Producers emit streams of macro operations separated by barriers; ops
between two barriers are declared independent by the producer, and an
``OpStream`` stores them as that group. A macro is
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
so no bundle needs to hold more than one region.

A segment is the bundles scheduled from one stream. ``schedule`` takes
one stream or a *batch*: consecutive whole streams, each packed on its
own, whose segments are expanded to one ``crossbar.LineTable``, which one
``grids`` pass, one ``crossbar.check_bundle`` call, ``check_presets``
and then one ``engine.freeze`` call, giving back one program per segment,
all read. A compile cuts its streams into batches with ``batches``: a
batch holds no more lines than the longest single stream expands to, so
no table is larger than that stream's alone. No rule reads across two
segments, since segments are replayed apart and some (the RC and ROT
chains) are spliced between others: the preset rule takes a gate's
preset only from its own segment, ``freeze`` finds a preset dead only in
its own, and an error is the one scheduling the failing stream alone
raises, naming its own bundle.

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

import itertools
from bisect import bisect_right
from collections import defaultdict
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
    PartitionMap,
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


class OpStream:
    """Ordered macro ops with explicit sequence-point barriers, under one
    step label.

    The macros between two barriers form a group. They must be independent
    of each other, and no two of them may write the same cell. The stream
    stores its groups; only the last may be empty, so repeated barriers
    count as one.
    """

    def __init__(self, label: str = "main"):
        self.label = label
        self._groups: list[list[MacroOp]] = [[]]

    def append(self, op: MacroOp) -> None:
        self._groups[-1].append(op)

    def barrier(self) -> None:
        if self._groups[-1]:
            self._groups.append([])

    def __len__(self) -> int:
        """The number of lines of its macros."""
        return sum(op.count for group in self._groups for op in group)

    def expanded_len(self) -> int:
        """The number of lines ``expand`` makes of its macros: the length
        of its line table when scheduled."""
        return sum(op.count * _EXPANDED_LINES[op.kind]
                   for group in self._groups for op in group)

    def groups(self) -> list[list[MacroOp]]:
        """Its groups of macros, in order, none empty."""
        return [group for group in self._groups if group]


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


# the lines ``expand`` makes of each line of a macro: XOR2's four presets
# and four gates, a gate and its preset, or a preset alone
_EXPANDED_LINES = {MacroKind.XOR2: 8, **{gate: 2 for gate in GateType},
                   GateType.INIT1: 1}


def batches(streams: list[OpStream]) -> list[list[OpStream]]:
    """Cut ``streams``, in order, into batches of consecutive whole streams
    for ``schedule``: each batch takes the next streams while their lines
    (``OpStream.expanded_len``) fit in those of the longest stream. So no
    batch's line table is longer than that stream's alone, and scheduling
    and freezing a batch take no more memory than that stream does."""
    sizes = [stream.expanded_len() for stream in streams]
    bound, room = max(sizes, default=0), -1
    cut: list[list[OpStream]] = []
    for stream, size in zip(streams, sizes):
        if size > room:
            cut.append([])
            room = bound
        cut[-1].append(stream)
        room -= size
    return cut


@dataclass
class ScheduledProgram:
    """Packed bundles of one or more streams, in order, each bundle under
    its stream's step label, and their lines: one segment per stream."""

    labels: list[str]
    bundles: list[CycleBundle]
    lines: LineTable


def _close(pending: list[list[tuple[list[MicroOp], frozenset[SwitchId]]]]
           ) -> tuple[list[CycleBundle], LineTable]:
    """Emit each stream's open bundles ``pending[s]`` (ops, switch set) in
    order, each split into grids if its presets are not one, with their
    line table, one segment per stream.

    A single-cycle preset drives selected wordlines x bitlines, so the
    cells of one INIT group must form a full cross product. Every preset
    bundle is classified off the table in one ``grids`` pass. A non-grid
    set is split line by line into the groups of lines sharing one
    cross-line set (columns or rows, whichever gives fewer), one bundle
    each, and the split bundles are expanded again.
    """
    bundles = [CycleBundle(ops, switches) for stream in pending
               for ops, switches in stream]
    starts = np.cumsum([0] + [len(stream) for stream in pending])
    lines = line_table(bundles, starts)
    at = np.flatnonzero(lines.gate[lines.run] == GateType.INIT1)
    grid = grids(lines.bundle[lines.run[at]], lines.cells[at, 0, 0],
                 lines.cells[at, 0, 1], len(bundles))
    if grid.all():
        return bundles, lines
    parts = [[bundle] if whole else _split(bundle) for bundle, whole in zip(bundles, grid)]
    bundles = [part for split in parts for part in split]
    return bundles, line_table(bundles, np.cumsum([0] + list(map(len, parts)))[starts])


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


def schedule(streams: OpStream | list[OpStream], crossbar: Crossbar
             ) -> ScheduledProgram:
    """Expand and pack one macro stream, or a batch of them, into legal
    cycle bundles.

    Each stream is packed on its own. Each bundle holds one merged region,
    one switch set and one ``line_pattern``; that triple is its key.
    Within each barrier group, first fit puts every micro-op run into the
    earliest bundle past its macro's previous stage whose key equals the
    run's. A run is keyed once, by the region of its first output, and
    placed whole, as each of its lines would be placed alone; a run that
    leaves that region fails the check below.
    Bundle order concatenated across groups preserves the stream's serial
    semantics.

    Once every stream is packed, the preset bundles that are not a grid are
    split (``_close``). The producer promises that the macros of one group
    are independent and that no two of them write the same cell. The
    batch's line table, one segment per stream, is checked by one
    ``crossbar.check_bundle`` call and by ``check_presets``; an illegal
    bundle, such as one with two writes of one cell or a gate whose preset
    was read first, raises ``SchedulingError``. The error is the one
    scheduling the first illegal stream alone raises: it names the bundle
    (``bundle k``, counted in that stream) in a stream of more than one
    bundle. A stream that fails to expand (``ShapeError``) raises while
    the batch is packed, before any stream is checked.
    """
    streams = [streams] if isinstance(streams, OpStream) else streams
    bundles, lines = _close([_pack(stream, crossbar.partition_map)
                             for stream in streams])
    _check(crossbar, bundles, lines)
    sizes = np.diff(lines.segment_ptr).tolist()
    return ScheduledProgram([stream.label for stream, n in zip(streams, sizes)
                             for _ in range(n)], bundles, lines)


def _pack(stream: OpStream, partitions: PartitionMap
          ) -> list[tuple[list[MicroOp], frozenset[SwitchId]]]:
    """First fit of ``stream``'s micro-op runs (``schedule``): its open
    bundles in order, as (ops, switch set)."""
    pending: list[tuple[list[MicroOp], frozenset[SwitchId]]] = []
    for group in stream.groups():
        opened: list[tuple[list[MicroOp], frozenset[SwitchId]]] = []
        by_key: dict[tuple, list[int]] = defaultdict(list)  # ascending indices
        for macro in group:
            floor = -1
            for stage in expand(macro):
                stage_top = floor
                for op in stage:
                    fits = by_key[(partitions.region_of(op.output, macro.switches),
                                   macro.switches, line_pattern(op))]
                    at = bisect_right(fits, floor)
                    if at == len(fits):
                        fits.append(len(opened))
                        opened.append(([], macro.switches))
                    opened[fits[at]][0].append(op)
                    stage_top = max(stage_top, fits[at])
                floor = stage_top
        pending += opened
    return pending


def _check(crossbar: Crossbar, bundles: list[CycleBundle], lines: LineTable) -> None:
    """``check_bundle`` and ``check_presets`` on a scheduled table: raise
    ``SchedulingError`` as checking each segment alone, in order, would."""
    ok, violations = crossbar.check_bundle(bundles, lines)
    if not ok:
        # each segment alone: the first illegal one names its own bundles
        for lo, hi in itertools.pairwise(lines.segment_ptr.tolist()):
            if hi - lo < len(bundles):
                _check(crossbar, bundles[lo:hi], line_table(bundles[lo:hi]))
        raise SchedulingError("scheduler emitted an illegal bundle: "
                              + "; ".join(violations))
    check_presets(lines)


def check_presets(lines: LineTable) -> None:
    """The preset rule, on a line table: raise ``SchedulingError`` unless
    every non-INIT1 gate writes a cell that was INIT1-preset since its last
    write in its own segment, with no read of it in between. The error
    names the first such gate's bundle, counted in its segment.

    A stateful gate can only switch its output cell away from the preset
    value, so without a fresh preset its result would depend on the cell's
    old value.
    Each preset comes from the same macro as its gate, and so from the same
    segment, which makes this check of one segment in reference
    coordinates exact; a preset from another segment never serves, as
    segments are replayed apart. A preset that is read (a constant 1) is
    legal; it only cannot then serve a gate.

    Every line of every run is one access per cell it touches. Accesses
    are sorted by cell, then bundle, reads before writes (a bundle reads
    before it writes), then line; a gate's write is legal iff the access
    before it is an INIT1 write of its cell in its segment.
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
    # each bundle's segment
    segment = np.repeat(np.arange(len(lines.segment_ptr) - 1), np.diff(lines.segment_ptr))
    legal = (gated > 0) & (cell[before] == cell[gated]) & write[before] \
        & (gate[owner[line[before]]] == GateType.INIT1) \
        & (segment[bundle[owner[line[before]]]] == segment[bundle[owner[line[gated]]]])
    if not legal.all():
        bad = int(line[gated[~legal]].min())
        b = bundle[owner[bad]]
        raise SchedulingError(
            f"bundle {b - lines.segment_ptr[segment[b]]}: "
            f"{GateType(gate[owner[bad]]).name} writes "
            f"{(int(r[bad, 0]), int(c[bad, 0]))}, which was not preset since "
            "its last write or read")
