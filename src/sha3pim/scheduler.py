"""Macro-op expansion and greedy packing of gate streams into cycle bundles.

Producers emit streams of macro operations separated by barriers; ops
between two barriers are declared independent by the producer. A macro is
one of the two ``MacroKind`` macros, XOR2 and COPY, or a single gate, whose
kind is its ``GateType``. Expansion rewrites each macro into its fixed
primitive sequence, and a first-fit pass packs the resulting micro-ops into
the fewest bundles it can without violating the crossbar legality rules.

Fixed decompositions (each line is one cycle; presets batched where legal):

    gate(ins)   = INIT1 out; gate ins->out      (INIT1 alone: the preset only)
    COPY(a)     = INIT1 t; NOT a->t; INIT1 out; NOT t->out
    XOR2(a,b)   = OR2(a,b)->u; AND2(a,b)->v; NOT v->w; AND2(u,w)->out

XOR2 and COPY carry their scratch cells pinned on the macro, which is
how the hash microcode lays out its units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .crossbar import (
    GATE_NUM_INPUTS,
    IN_ROW,
    Cell,
    Crossbar,
    CycleBundle,
    GateType,
    MicroOp,
    PartitionMap,
    SchedulingError,
    SimulationError,
    SwitchId,
)


class ShapeError(SimulationError):
    """A macro references cells that share neither a row nor a column."""


class MacroKind(Enum):
    """The macros that expand to several gates."""

    XOR2 = "xor2"
    COPY = "copy"


_NUM_INPUTS = {MacroKind.XOR2: 2, MacroKind.COPY: 1, **GATE_NUM_INPUTS}

SCRATCH_NEEDS = {MacroKind.XOR2: 3, MacroKind.COPY: 1}


@dataclass(slots=True)
class MacroOp:
    """One logical operation before decomposition into primitives.

    ``scratch`` pins the cells an XOR2 or COPY expansion uses.
    ``switches`` lists partition boundaries that must be bridged for this op
    (used by the inter-unit copy hops); such ops only share a bundle with
    ops declaring the identical switch set.
    """

    kind: MacroKind | GateType
    orientation: str
    inputs: tuple[Cell, ...]
    output: Cell
    label: str = "main"
    scratch: tuple[Cell, ...] | None = None
    switches: frozenset[SwitchId] = frozenset()

    def validate(self) -> None:
        if len(self.inputs) != _NUM_INPUTS[self.kind]:
            raise ShapeError(
                f"{self.kind.name} takes {_NUM_INPUTS[self.kind]} inputs, "
                f"got {len(self.inputs)}")
        axis = 0 if self.orientation == IN_ROW else 1
        cells = self.inputs + (self.output,) + (self.scratch or ())
        if len({cell[axis] for cell in cells}) > 1:
            raise ShapeError(
                f"{self.kind.name} cells {cells} do not share one "
                f"{'row' if axis == 0 else 'column'}")


_BARRIER = object()


class OpStream:
    """Ordered macro ops with explicit sequence-point barriers."""

    def __init__(self):
        self._items: list = []

    def append(self, op: MacroOp) -> None:
        self._items.append(op)

    def barrier(self) -> None:
        if self._items and self._items[-1] is not _BARRIER:
            self._items.append(_BARRIER)

    def __len__(self) -> int:
        return sum(1 for item in self._items if item is not _BARRIER)

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
    """Decompose one macro into stages of co-schedulable micro-ops.

    Stages are sequentially dependent; ops inside one stage are not.
    """
    macro.validate()
    kind = macro.kind
    if isinstance(kind, GateType):
        # Every gate output is INIT1-prepared; the preset cycle is counted.
        stages = [[MicroOp(GateType.INIT1, macro.orientation, (), macro.output)]]
        if kind is not GateType.INIT1:
            stages.append([MicroOp(kind, macro.orientation, macro.inputs,
                                   macro.output)])
        return stages

    need = SCRATCH_NEEDS[kind]
    scratch = macro.scratch or ()
    if len(scratch) != need:
        raise ShapeError(f"{kind.name} needs {need} scratch cells, got {len(scratch)}")
    o = macro.orientation

    def init(*cells: Cell) -> list[MicroOp]:
        return [MicroOp(GateType.INIT1, o, (), cell) for cell in cells]

    def op(gate: GateType, ins: tuple[Cell, ...], out: Cell) -> list[MicroOp]:
        return [MicroOp(gate, o, ins, out)]

    if kind is MacroKind.COPY:
        (a,) = macro.inputs
        (t,) = scratch
        return [init(t), op(GateType.NOT, (a,), t),
                init(macro.output), op(GateType.NOT, (t,), macro.output)]

    a, b = macro.inputs     # XOR2
    u, v, w = scratch
    return [init(u, v, w, macro.output),
            op(GateType.OR2, (a, b), u),
            op(GateType.AND2, (a, b), v),
            op(GateType.NOT, (v,), w),
            op(GateType.AND2, (u, w), macro.output)]


@dataclass
class ScheduledProgram:
    """Packed bundles plus the step label of each bundle."""

    bundles: list[CycleBundle] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)


class _OpenBundle:
    """Incremental legality bookkeeping for one bundle being packed.

    INIT1 cells are admitted freely and reconciled into grid patterns when
    the bundle closes; everything else is enforced on admission.
    """

    __slots__ = ("ops", "switches", "writes", "reads", "regions")

    def __init__(self, switches: frozenset[SwitchId]):
        self.ops: list[MicroOp] = []
        self.switches = switches
        self.writes: set[Cell] = set()
        self.reads: set[Cell] = set()
        # region -> ("init", set of cells) or (gate, orientation, pattern)
        self.regions: dict[tuple[int, int], tuple] = {}

    def admits(self, op: MicroOp, region: tuple[int, int],
               switches: frozenset[SwitchId]) -> bool:
        if switches != self.switches:
            return False
        if op.output in self.writes or op.output in self.reads:
            return False
        if any(cell in self.writes for cell in op.inputs):
            return False
        sig = self.regions.get(region)
        if sig is None:
            return True
        if op.gate is GateType.INIT1:
            return sig[0] == "init"
        if sig[0] == "init":
            return False
        axis = 1 if op.orientation == IN_ROW else 0
        return sig == (op.gate, op.orientation,
                       tuple(c[axis] for c in op.inputs), op.output[axis])

    def add(self, op: MicroOp, region: tuple[int, int]) -> None:
        self.ops.append(op)
        self.writes.add(op.output)
        self.reads.update(op.inputs)
        if op.gate is GateType.INIT1:
            sig = self.regions.get(region)
            if sig is None:
                self.regions[region] = ("init", {op.output})
            else:
                sig[1].add(op.output)
        else:
            axis = 1 if op.orientation == IN_ROW else 0
            self.regions[region] = (op.gate, op.orientation,
                                    tuple(c[axis] for c in op.inputs),
                                    op.output[axis])

    def finalize(self) -> list[CycleBundle]:
        """Close the bundle, spilling non-grid INIT cell sets into follow-ups.

        A single-cycle preset drives selected wordlines x bitlines, so the
        cells of one INIT group must form a full cross product. Leftover
        groups become their own (grid-shaped) bundles.
        """
        spill: list[list[MicroOp]] = []
        keep: list[MicroOp] = []
        init_cells_kept: set[Cell] = set()
        for region, sig in self.regions.items():
            if sig[0] != "init":
                continue
            cells = sig[1]
            rows = {r for r, _ in cells}
            cols = {c for _, c in cells}
            if len(cells) == len(rows) * len(cols):
                init_cells_kept.update(cells)
                continue
            # Split into groups of lines sharing the same cross-line set.
            by_col: dict[frozenset, list[Cell]] = {}
            by_row: dict[frozenset, list[Cell]] = {}
            for c in cols:
                key = frozenset(r for r, cc in cells if cc == c)
                by_col.setdefault(key, []).extend((r, c) for r in key)
            for r in rows:
                key = frozenset(c for rr, c in cells if rr == r)
                by_row.setdefault(key, []).extend((r, c) for c in key)
            groups = min((by_col, by_row), key=len)
            first = True
            for group_cells in groups.values():
                if first:
                    init_cells_kept.update(group_cells)
                    first = False
                else:
                    spill.append([MicroOp(GateType.INIT1, IN_ROW, (), cell)
                                  for cell in sorted(group_cells)])
        for op in self.ops:
            if op.gate is GateType.INIT1 and op.output not in init_cells_kept:
                continue
            keep.append(op)
        out = [CycleBundle(keep, self.switches)]
        out.extend(CycleBundle(ops, self.switches) for ops in spill)
        return out


def schedule(stream: OpStream, crossbar: Crossbar) -> ScheduledProgram:
    """Expand and pack a macro stream into legal cycle bundles.

    Within each barrier group a greedy first-fit pass places every micro-op
    into the earliest bundle that stays legal and respects the op's position
    in its macro's expansion. Bundle order concatenated across groups
    preserves the stream's serial semantics. Every bundle is then checked
    by ``crossbar.check_bundle``; an illegal one raises ``SchedulingError``.
    """
    program = ScheduledProgram()
    partitions = crossbar.partition_map
    for group in stream.groups():
        open_bundles: list[_OpenBundle] = []
        group_label = group[0].label
        for macro in group:
            if macro.label != group_label:
                raise SchedulingError(
                    f"mixed labels {group_label!r}/{macro.label!r} in one barrier group")
            stages = expand(macro)
            floor = -1
            for stage in stages:
                stage_top = floor
                for op in stage:
                    region = _region(partitions, op, macro.switches)
                    index = floor + 1
                    while index < len(open_bundles) and not \
                            open_bundles[index].admits(op, region, macro.switches):
                        index += 1
                    if index == len(open_bundles):
                        open_bundles.append(_OpenBundle(macro.switches))
                    open_bundles[index].add(op, region)
                    stage_top = max(stage_top, index)
                floor = stage_top
        for ob in open_bundles:
            for bundle in ob.finalize():
                program.bundles.append(bundle)
                program.labels.append(group_label)
    for bundle in program.bundles:
        ok, violations = crossbar.check_bundle(bundle)
        if not ok:
            raise SchedulingError("scheduler emitted an illegal bundle: "
                                  + "; ".join(violations))
    return program


def _region(partitions: PartitionMap, op: MicroOp,
            switches: frozenset[SwitchId]) -> tuple[int, int]:
    """The one merged region holding every cell of ``op``."""
    regions = {partitions.region_of(cell, switches) for cell in op.cells()}
    if len(regions) > 1:
        raise SchedulingError(
            f"op on cells {op.cells()} crosses an open partition boundary")
    return regions.pop()
