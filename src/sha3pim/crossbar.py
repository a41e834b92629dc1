"""Logical model of one partitioned memristive crossbar executing stateful logic.

The crossbar is a grid of binary cells. In every clock cycle a *bundle* of
single-cycle gates executes; each gate reads input cells and overwrites one
output cell along a single wordline (in-row) or bitline (in-column).
Transistor switches at fixed partition boundaries electrically isolate
sub-arrays, which is what lets unrelated gates share a cycle. Bundles are
validated against the alignment/isolation rules before execution, and every
executed gate is charged one gate-energy quantum.

Peripheral reads/writes (message load, digest readout) move data in and out
of the array without gates; they are accounted under the separate ``io``
label with a per-row cycle cost and zero gate energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from typing import IO

import numpy as np

Cell = tuple[int, int]
SwitchId = tuple[str, int]   # ("row", boundary_row) or ("col", boundary_col)

IN_ROW = "row"
IN_COL = "col"


class GateType(IntEnum):
    """Single-cycle stateful-logic primitives (plus the output preset)."""

    INIT1 = 0
    NOT = 1
    NOR2 = 2
    OR2 = 3
    AND2 = 4


def _truth(fn) -> tuple[int, ...]:
    return tuple(fn(a, b) for a in (0, 1) for b in (0, 1))


# The semantics of every gate, written once: its arity and its output for
# each pattern of the input bits (a, b), at index a << 1 | b. Inputs past
# the arity are ignored.
GATE_TABLE: dict[GateType, tuple[int, tuple[int, ...]]] = {
    GateType.INIT1: (0, _truth(lambda a, b: 1)),
    GateType.NOT: (1, _truth(lambda a, b: a ^ 1)),
    GateType.NOR2: (2, _truth(lambda a, b: (a | b) ^ 1)),
    GateType.OR2: (2, _truth(lambda a, b: a | b)),
    GateType.AND2: (2, _truth(lambda a, b: a & b)),
}

GATE_NUM_INPUTS = {gate: arity for gate, (arity, _) in GATE_TABLE.items()}

# GATE_TABLE flattened for vectorized lookup at gate << 2 | a << 1 | b.
GATE_TRUTH = np.array([bit for gate in GateType for bit in GATE_TABLE[gate][1]],
                      dtype=np.uint8)


def gate_function(gate: GateType, inputs: tuple[int, ...]) -> int:
    a, b = (tuple(inputs) + (0, 0))[:2]
    return GATE_TABLE[gate][1][a << 1 | b]


class SimulationError(Exception):
    """Base class for crossbar model errors."""


class AddressError(SimulationError):
    """A referenced cell lies outside the crossbar."""


class SchedulingError(SimulationError):
    """A bundle violates the single-cycle legality rules."""


class StrictInitError(SimulationError):
    """A gate read a cell that was never written."""


class CapacityError(SimulationError):
    """More concurrent messages than available hash units."""


@dataclass
class CrossbarConfig:
    """Geometry and cost parameters of one crossbar array.

    Defaults model a 1024x1024 array split into 27x14 partitions of
    72x37 cells each, with 3ns/6.4fJ gates on 4F^2 cells.
    """

    rows: int = 1024
    cols: int = 1024
    horizontal_partitions: int = 27   # partitions along a row (column direction)
    vertical_partitions: int = 14     # partitions along a column (row direction)
    unit_rows: int = 72
    unit_cols: int = 37
    gate_delay_ns: float = 3.0
    gate_energy_fj: float = 6.4
    cell_area_f2: float = 4.0
    io_cycles_per_row: int = 1
    strict_init: bool = False

    def __post_init__(self):
        numeric = (self.rows, self.cols, self.horizontal_partitions,
                   self.vertical_partitions, self.unit_rows, self.unit_cols,
                   self.gate_delay_ns, self.gate_energy_fj, self.cell_area_f2,
                   self.io_cycles_per_row)
        if not all(math.isfinite(v) and v > 0 for v in numeric):
            raise ValueError("all crossbar parameters must be finite and positive")
        if self.gate_energy_fj * 1e-15 == 0 or self.gate_delay_ns * 1e-9 == 0 \
                or not math.isfinite(self.clock_hz):
            raise ValueError("gate delay and energy must stay nonzero in s and J, "
                             "with a finite clock")
        if self.rows < self.vertical_partitions * self.unit_rows:
            raise ValueError(
                f"{self.rows} rows cannot hold {self.vertical_partitions} "
                f"partitions of {self.unit_rows} rows")
        if self.cols < self.horizontal_partitions * self.unit_cols:
            raise ValueError(
                f"{self.cols} cols cannot hold {self.horizontal_partitions} "
                f"partitions of {self.unit_cols} cols")

    @property
    def geometry(self) -> tuple[int, ...]:
        """The fields that fix the cell grid and its partition grid."""
        return (self.rows, self.cols, self.vertical_partitions,
                self.horizontal_partitions, self.unit_rows, self.unit_cols)

    @property
    def num_units(self) -> int:
        return self.horizontal_partitions * self.vertical_partitions

    @property
    def clock_hz(self) -> float:
        return 1.0 / (self.gate_delay_ns * 1e-9)


@dataclass(slots=True)
class MicroOp:
    """One gate event: a primitive applied to cells sharing a row or column.

    Its orientation follows from its cells: in-row when the first input
    shares the output's row, in-column otherwise, and None for a preset,
    which has no inputs.
    """

    gate: GateType
    inputs: tuple[Cell, ...]
    output: Cell

    @property
    def orientation(self) -> str | None:
        if not self.inputs:
            return None
        return IN_ROW if self.inputs[0][0] == self.output[0] else IN_COL

    def cells(self) -> tuple[Cell, ...]:
        return self.inputs + (self.output,)

    def validate_shape(self) -> str | None:
        """Return a violation message, or None if the op is well-formed."""
        expected = GATE_NUM_INPUTS[self.gate]
        if len(self.inputs) != expected:
            return f"{self.gate.name} takes {expected} inputs, got {len(self.inputs)}"
        if self.output in self.inputs:
            return f"output cell {self.output} repeats an input"
        axis = 0 if self.orientation == IN_ROW else 1
        line = self.output[axis]
        if any(cell[axis] != line for cell in self.inputs):
            return f"cells {self.cells()} share neither one row nor one column"
        return None


def line_pattern(op: MicroOp) -> tuple:
    """What one merged region's line drivers apply in a cycle; every op of
    a region must share it. An INIT1 preset is the gate alone; any other
    gate adds its orientation and the along-line coordinates of its inputs
    and output."""
    if op.gate is GateType.INIT1:
        return (op.gate,)
    if op.orientation == IN_ROW:
        return (op.gate, IN_ROW, tuple(c for _, c in op.inputs), op.output[1])
    return (op.gate, IN_COL, tuple(r for r, _ in op.inputs), op.output[0])


def is_grid(cells: set[Cell]) -> bool:
    """True if ``cells`` is a rows x cols cross product, the cell set one
    preset cycle can drive."""
    rows = {r for r, _ in cells}
    cols = {c for _, c in cells}
    return len(cells) == len(rows) * len(cols)


@dataclass(slots=True)
class CycleBundle:
    """Gate events co-scheduled in one clock cycle.

    Switches default open; ``closed_switches`` lists the partition
    boundaries explicitly bridged during this cycle.
    """

    ops: list[MicroOp] = field(default_factory=list)
    closed_switches: frozenset[SwitchId] = frozenset()


class PartitionMap:
    """The config's grid of equal partitions and per-cycle switch merging.

    Row switches sit at multiples of ``unit_rows`` inside the partition
    grid, column switches at multiples of ``unit_cols``; cells beyond the
    grid belong to the last partition row or column.
    """

    def __init__(self, config: CrossbarConfig):
        self.unit_rows = config.unit_rows
        self.unit_cols = config.unit_cols
        self.vparts = config.vertical_partitions
        self.hparts = config.horizontal_partitions
        self.switches: frozenset[SwitchId] = frozenset(
            [("row", self.unit_rows * i) for i in range(1, self.vparts)]
            + [("col", self.unit_cols * i) for i in range(1, self.hparts)])

    def region_of(self, cell: Cell, closed_switches: frozenset[SwitchId]) -> tuple[int, int]:
        """Merged region of ``cell``: its partition, less one for each closed
        switch at or before it. Ids that are not switches are ignored."""
        r, c = cell
        v = min(r // self.unit_rows, self.vparts - 1)
        h = min(c // self.unit_cols, self.hparts - 1)
        for switch in closed_switches:
            if switch in self.switches:
                kind, b = switch
                if kind == "row" and b <= r:
                    v -= 1
                elif kind == "col" and b <= c:
                    h -= 1
        return v, h

    def op_region(self, op: MicroOp,
                  closed_switches: frozenset[SwitchId]) -> tuple[int, int] | None:
        """The one merged region holding every cell of ``op``, or None if
        the op crosses an open partition boundary."""
        regions = {self.region_of(cell, closed_switches) for cell in op.cells()}
        return regions.pop() if len(regions) == 1 else None


@dataclass
class LabelStats:
    cycles: int = 0
    gate_executions: int = 0


@dataclass
class ExecutionStats:
    """Latency/energy bookkeeping, broken down by microcode step label."""

    gate_energy_fj: float = 6.4
    cycles: int = 0
    gate_executions: int = 0
    per_label: dict[str, LabelStats] = field(default_factory=dict)

    def _label(self, label: str) -> LabelStats:
        if label not in self.per_label:
            self.per_label[label] = LabelStats()
        return self.per_label[label]

    def add_cycles(self, label: str, cycles: int, gate_executions: int) -> None:
        self.cycles += cycles
        self.gate_executions += gate_executions
        entry = self._label(label)
        entry.cycles += cycles
        entry.gate_executions += gate_executions

    @property
    def energy_fj(self) -> float:
        return self.gate_executions * self.gate_energy_fj

    def as_dict(self) -> dict:
        return {
            "cycles": self.cycles,
            "gate_executions": self.gate_executions,
            "energy_fj": self.energy_fj,
            "per_label": {k: {"cycles": v.cycles, "gate_executions": v.gate_executions}
                          for k, v in sorted(self.per_label.items())},
        }


class Crossbar:
    """One crossbar instance: cell grid, partition map, stats, trace."""

    def __init__(self, config: CrossbarConfig | None = None):
        self.config = config or CrossbarConfig()
        self.partition_map = PartitionMap(self.config)
        self.state = np.zeros((self.config.rows, self.config.cols), dtype=np.uint8)
        self.initialized = np.zeros((self.config.rows, self.config.cols), dtype=np.uint8)
        self.stats = ExecutionStats(gate_energy_fj=self.config.gate_energy_fj)
        self.trace: IO[str] | None = None

    # ------------------------------------------------------------------ setup

    def attach_trace(self, stream: IO[str]) -> None:
        """Have ``engine.replay`` write its trace (schema 3: a header per
        replay, then one JSON line per bundle) to ``stream``."""
        self.trace = stream

    # ---------------------------------------------------------------- legality

    def check_bundle(self, bundle: CycleBundle) -> tuple[bool, list[str]]:
        """Validate a bundle against the single-cycle legality rules.

        Legal iff: op shapes are well-formed and in bounds; no op spans an
        open switch; within each (merged) partition all ops share one
        ``line_pattern`` and preset cells form a rows x cols grid; and no
        read/write or write/write cell conflicts exist anywhere in the bundle.
        """
        violations: list[str] = []
        for i, op in enumerate(bundle.ops):
            msg = op.validate_shape()
            if msg:
                violations.append(f"op {i}: {msg}")
                continue
            for r, c in op.cells():
                if not (0 <= r < self.config.rows and 0 <= c < self.config.cols):
                    violations.append(f"op {i}: cell ({r},{c}) out of bounds")
                    break
        if violations:
            return False, violations

        partitions = self.partition_map
        for sw in bundle.closed_switches:
            if sw not in partitions.switches:
                violations.append(f"no switch at boundary {sw}")
        if violations:
            return False, violations

        # Rule 2/3: each op must sit inside a single merged region.
        by_region: dict[tuple[int, int], list[int]] = {}
        for i, op in enumerate(bundle.ops):
            region = partitions.op_region(op, bundle.closed_switches)
            if region is None:
                violations.append(f"op {i}: crosses an open partition boundary")
            else:
                by_region.setdefault(region, []).append(i)

        # Rule 1: one line pattern per region; presets form a grid.
        for region, indices in by_region.items():
            patterns = {line_pattern(bundle.ops[i]) for i in indices}
            if len(patterns) > 1:
                gates = {p[0] for p in patterns}
                what = (f"mixed gate types {sorted(g.name for g in gates)}"
                        if len(gates) > 1 else
                        "mixed orientations" if len({p[1] for p in patterns}) > 1
                        else "unaligned input/output lines")
                violations.append(f"partition {region}: {what} (ops {indices})")
            elif patterns.pop()[0] is GateType.INIT1 and not is_grid(
                    {bundle.ops[i].output for i in indices}):
                violations.append(
                    f"partition {region}: INIT cells do not form a grid pattern")

        # Rule 4: cell conflicts.
        writers: dict[Cell, int] = {}
        for i, op in enumerate(bundle.ops):
            if op.output in writers:
                violations.append(
                    f"ops {writers[op.output]} and {i} both write {op.output}")
            writers[op.output] = i
        for i, op in enumerate(bundle.ops):
            for cell in op.inputs:
                j = writers.get(cell)
                if j is not None and j != i:
                    violations.append(f"op {i} reads {cell} written by op {j}")

        return not violations, violations

    # --------------------------------------------------------------- execution

    def execute_bundle(self, bundle: CycleBundle, label: str = "main",
                       check: bool = True) -> None:
        """Apply one cycle: every op's output becomes its gate function.

        Reads happen before any write (legal bundles are conflict-free, so
        this matches any serial order). Adds one cycle and ``len(ops)`` gate
        executions to the stats.
        """
        if check:
            ok, violations = self.check_bundle(bundle)
            if not ok:
                raise SchedulingError("; ".join(violations))
        state = self.state
        rows, cols = state.shape
        results: list[tuple[Cell, int]] = []
        for op in bundle.ops:
            for r, c in op.cells():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise AddressError(f"cell ({r},{c}) out of bounds")
            if self.config.strict_init:
                for r, c in op.inputs:
                    if not self.initialized[r, c]:
                        raise StrictInitError(
                            f"{op.gate.name} reads uninitialized cell ({r},{c})")
            values = tuple(int(state[r, c]) for r, c in op.inputs)
            results.append((op.output, gate_function(op.gate, values)))
        for (r, c), value in results:
            state[r, c] = value
            self.initialized[r, c] = 1
        self.stats.add_cycles(label, 1, len(bundle.ops))

    # -------------------------------------------------------------- peripheral

    def _check_range(self, row_range: tuple[int, int], col_range: tuple[int, int]) -> None:
        r0, r1 = row_range
        c0, c1 = col_range
        if not (0 <= r0 < r1 <= self.config.rows and 0 <= c0 < c1 <= self.config.cols):
            raise AddressError(f"region rows {row_range} cols {col_range} out of bounds")

    def write_region(self, row_range: tuple[int, int], col_range: tuple[int, int],
                     bits: np.ndarray) -> None:
        """Peripheral write; costs io cycles per row, no gate energy."""
        self._check_range(row_range, col_range)
        r0, r1 = row_range
        c0, c1 = col_range
        block = np.asarray(bits, dtype=np.uint8).reshape(r1 - r0, c1 - c0)
        self.state[r0:r1, c0:c1] = block
        self.initialized[r0:r1, c0:c1] = 1
        self.stats.add_cycles("io", (r1 - r0) * self.config.io_cycles_per_row, 0)

    def read_region(self, row_range: tuple[int, int],
                    col_range: tuple[int, int]) -> np.ndarray:
        """Peripheral read; costs io cycles per row, no gate energy."""
        self._check_range(row_range, col_range)
        r0, r1 = row_range
        c0, c1 = col_range
        if self.config.strict_init and not self.initialized[r0:r1, c0:c1].all():
            raise StrictInitError(f"region rows {row_range} cols {col_range} "
                                  "read before being written")
        self.stats.add_cycles("io", (r1 - r0) * self.config.io_cycles_per_row, 0)
        return self.state[r0:r1, c0:c1].copy()
