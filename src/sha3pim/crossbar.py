"""Logical model of one partitioned memristive crossbar executing stateful logic.

The crossbar is a grid of binary cells. In every clock cycle a *bundle* of
single-cycle gates executes; each gate reads input cells and overwrites one
output cell along a single wordline (in-row) or bitline (in-column).
Transistor switches at fixed partition boundaries electrically isolate
sub-arrays, which is what lets unrelated gates share a cycle. A bundle holds
*runs*: one gate pattern repeated along parallel lines (``MicroOp`` with a
count and a stride), expanded to its lines once per batch of segments,
into the ``LineTable`` every later pass reads. Bundles are validated
against the alignment/isolation rules before execution, a bundle or a
whole batch at a time, and every executed gate is charged one
gate-energy quantum.

Peripheral reads/writes (message load, digest readout) move data in and out
of the array without gates; they are accounted under the separate ``io``
label with a per-row cycle cost and zero gate energy.
"""

from __future__ import annotations

import ctypes
import functools
import math
import numbers
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import IntEnum
from types import MappingProxyType
from typing import IO, NamedTuple

import numpy as np

from . import native

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


# The semantics of every gate, written once: its arity, whether it is the
# OR (else the AND) of its inputs, and whether that is inverted. Inputs past
# the arity are ignored, so a gate of no inputs, the preset, writes 1: the
# AND of none.
GATE_TABLE: dict[GateType, tuple[int, bool, bool]] = {
    GateType.INIT1: (0, False, False),
    GateType.NOT: (1, True, True),
    GateType.NOR2: (2, True, True),
    GateType.OR2: (2, True, False),
    GateType.AND2: (2, False, False),
}

GATE_NUM_INPUTS = {gate: arity for gate, (arity, _, _) in GATE_TABLE.items()}


def gate_function(gate: GateType, inputs: tuple[int, ...]) -> int:
    arity, either, invert = GATE_TABLE[gate]
    bits = tuple(inputs)[:arity]
    return int(any(bits) if either else all(bits)) ^ invert


def integer(name: str, value) -> int:
    """``value`` as an int; ``ValueError`` for a bool or a non-integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


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
        for name in ("rows", "cols", "horizontal_partitions", "vertical_partitions",
                     "unit_rows", "unit_cols", "io_cycles_per_row"):
            setattr(self, name, integer(name, getattr(self, name)))
        for name in ("gate_delay_ns", "gate_energy_fj", "cell_area_f2"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not isinstance(self.strict_init, (bool, np.bool_)):
            raise ValueError(f"strict_init must be a bool, got {self.strict_init!r}")
        self.strict_init = bool(self.strict_init)
        numeric = (self.rows, self.cols, self.horizontal_partitions,
                   self.vertical_partitions, self.unit_rows, self.unit_cols,
                   self.gate_delay_ns, self.gate_energy_fj, self.cell_area_f2,
                   self.io_cycles_per_row)
        if not all(math.isfinite(v) and v > 0 for v in numeric):
            raise ValueError("all crossbar parameters must be finite and positive")
        # the clock and the bits per joule scale with their reciprocals,
        # the power with their ratio
        if self.gate_energy_fj * 1e-15 == 0 or self.gate_delay_ns * 1e-9 == 0 \
                or not math.isfinite(self.clock_hz) \
                or not math.isfinite(1 / (self.gate_energy_fj * 1e-15)) \
                or self.gate_energy_fj * 1e-15 * self.clock_hz == 0:
            raise ValueError("gate delay and energy must stay nonzero in s and J, "
                             "with finite reciprocals and a nonzero ratio")
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


def shape_violation(name: str, arity: int, inputs: tuple[Cell, ...],
                    written: tuple[Cell, ...], count: int,
                    stride: Cell) -> str | None:
    """Why an op ``name`` of ``arity`` inputs, reading ``inputs`` and
    writing ``written`` along ``count`` lines, each ``stride`` past the
    last, is malformed, or None if it is not. The one shape rule of
    micro-ops and macros.

    Only inputs may repeat. The first line's cells share one row or one
    column, and a run's lines must not meet, so its stride is nonzero and
    does not move along the line; every line then shares the first line's
    ``line_pattern``.
    """
    if len(inputs) != arity:
        return f"{name} takes {arity} inputs, got {len(inputs)}"
    cells = inputs + written
    for cell in written:
        if cells.count(cell) > 1:
            return f"{name} writes {cell}, which it also reads or writes elsewhere"
    in_row = len({r for r, _ in cells}) == 1
    in_col = len({c for _, c in cells}) == 1
    if not (in_row or in_col):
        return f"{name} cells {cells} share neither one row nor one column"
    if count < 1:
        return f"{name}: a run needs at least one line, got {count}"
    if count > 1 and (stride == (0, 0) or (in_row and not in_col and stride[1])
                      or (in_col and not in_row and stride[0])):
        return f"{name}: run stride {stride} moves along the line of {cells}"
    return None


def shift(cells: tuple[Cell, ...], k: int, stride: Cell) -> tuple[Cell, ...]:
    """``cells`` moved by ``k`` strides."""
    dr, dc = k * stride[0], k * stride[1]
    return tuple((r + dr, c + dc) for r, c in cells)


@dataclass(slots=True)
class MicroOp:
    """A run of one gate event along ``count`` parallel lines.

    The first line applies ``gate`` to ``inputs`` and writes ``output``,
    cells sharing a row or a column; line ``k`` is the first moved by ``k``
    strides. Its orientation follows from the first line's cells: in-row
    when the first input shares the output's row, in-column otherwise, and
    None for a preset, which has no inputs. A single gate event is a run of
    one line.
    """

    gate: GateType
    inputs: tuple[Cell, ...]
    output: Cell
    count: int = 1
    stride: Cell = (0, 0)

    @property
    def orientation(self) -> str | None:
        if not self.inputs:
            return None
        return IN_ROW if self.inputs[0][0] == self.output[0] else IN_COL

    def cells(self) -> tuple[Cell, ...]:
        """The first line's cells, inputs first."""
        return self.inputs + (self.output,)

    def lines(self) -> list[MicroOp]:
        """The run as one-line ops, in line order."""
        n = len(self.inputs)
        return [MicroOp(self.gate, cells[:n], cells[n])
                for cells in (shift(self.cells(), k, self.stride)
                              for k in range(self.count))]

    def validate_shape(self) -> str | None:
        """Return a violation message, or None if the op is well-formed."""
        return shape_violation(self.gate.name, GATE_NUM_INPUTS[self.gate],
                               self.inputs, (self.output,), self.count, self.stride)


def line_pattern(op: MicroOp) -> tuple:
    """What one merged region's line drivers apply in a cycle; every op of
    a region must share it. An INIT1 preset is the gate alone; any other
    gate adds its orientation and the along-line coordinates of its inputs
    and output, which every line of a run shares."""
    if op.gate is GateType.INIT1:
        return (op.gate,)
    if op.orientation == IN_ROW:
        return (op.gate, IN_ROW, tuple(c for _, c in op.inputs), op.output[1])
    return (op.gate, IN_COL, tuple(r for r, _ in op.inputs), op.output[0])


def grids(group: np.ndarray, rows: np.ndarray, cols: np.ndarray,
          n: int) -> np.ndarray:
    """For each group ``g < n``, whether the cells (``rows[i]``,
    ``cols[i]``) with ``group[i] == g`` form a rows x cols cross product,
    the cell set one preset cycle can drive. A group without cells is a
    grid.

    One pass for all groups: a group is a grid iff its distinct cells
    number its distinct rows times its distinct columns, each counted on
    int64 keys that lead with the group.
    """
    if not len(group):
        return np.ones(n, dtype=bool)
    group = group.astype(np.int64)
    r, c = rows - rows.min(), cols - cols.min()
    height, width = int(r.max()) + 1, int(c.max()) + 1

    def distinct(key, span):
        key = np.sort(key)
        return np.bincount(key[np.diff(key, prepend=-1) != 0] // span, minlength=n)

    return distinct((group * height + r) * width + c, height * width) \
        == distinct(group * height + r, height) * distinct(group * width + c, width)


@dataclass(slots=True)
class CycleBundle:
    """Gate events co-scheduled in one clock cycle, as runs.

    Switches default open; ``closed_switches`` lists the partition
    boundaries explicitly bridged during this cycle.
    """

    ops: list[MicroOp] = field(default_factory=list)
    closed_switches: frozenset[SwitchId] = frozenset()

    def lines(self) -> list[MicroOp]:
        """Every line of every run, as one-line ops in order."""
        return [line for op in self.ops for line in op.lines()]


@dataclass(slots=True)
class LineTable:
    """The runs of one or more segments expanded to their lines
    (``line_table``), runs in bundle order and lines in run order. Line
    ``i`` touches ``cells[i, slot]`` = (row, col): slot 0 its output, slots
    1 and 2 its inputs. An input slot past the gate's arity repeats the
    slot before it, or the output for a gate of no inputs. A segment is
    the bundles of one stream; no rule reads across two of them.
    """

    segment_ptr: np.ndarray   # int64 [n_segments + 1]: each segment's first bundle
    bundle_ptr: np.ndarray    # int64 [n_bundles + 1]: each bundle's first run
    line_ptr: np.ndarray      # int64 [n_runs + 1]: each run's first line
    bundle: np.ndarray        # int64 [n_runs]: each run's bundle
    gate: np.ndarray          # int64 [n_runs]
    arity: np.ndarray         # int64 [n_runs]: its number of inputs
    run: np.ndarray           # int32 [n_lines]: each line's run
    cells: np.ndarray         # int64 [n_lines, 3, 2]


def line_table(bundles: list[CycleBundle], segment_ptr=None) -> LineTable:
    """Expand every run of ``bundles``, in order, to its lines. A run of
    no lines (a malformed count below 1) gets none. ``segment_ptr`` gives
    each segment's first bundle, then ``len(bundles)``; the bundles are
    one segment by default."""
    runs = []
    for k, bundle in enumerate(bundles):
        for op in bundle.ops:
            inputs = op.inputs or (op.output,)
            a, b = (inputs + inputs[-1:])[:2]
            runs.append((k, op.gate, len(op.inputs), max(op.count, 0), *op.output,
                         *a, *b, *op.stride))
    runs = np.array(runs, dtype=np.int64).reshape(-1, 12)
    count, first, stride = runs[:, 3], runs[:, 4:10].reshape(-1, 3, 2), runs[:, None, 10:]
    line_ptr = np.r_[0, np.cumsum(count)]
    run = np.repeat(np.arange(runs.shape[0], dtype=np.int32), count)
    k = np.arange(line_ptr[-1]) - line_ptr[run]
    cells = first[run] + k[:, None, None] * stride[run]
    if segment_ptr is None:
        segment_ptr = [0, len(bundles)]
    return LineTable(np.asarray(segment_ptr, dtype=np.int64),
                     np.searchsorted(runs[:, 0], np.arange(len(bundles) + 1)),
                     line_ptr, runs[:, 0], runs[:, 1], runs[:, 2], run, cells)


class PartitionMap:
    """The config's grid of equal partitions: its switches, the hash unit
    each partition holds, and the crossbar cut into partition-sized tiles.

    Row switches sit at multiples of ``unit_rows`` inside the partition
    grid, column switches at multiples of ``unit_cols``; for merging,
    cells beyond the grid belong to the last partition row or column.
    Unit ``u`` is partition ``divmod(u, hparts)``.

    The tile grid is the partition grid continued over the rest of the
    array and padded to whole tiles. Tiles are numbered partitions first,
    in unit-id order, then the remaining tiles in row-major order (for
    Keccak, the shared RC column and ROT row), so the tiles of units
    ``0..n-1`` are the first ``n``. A cell's local index is ``r *
    unit_cols + c`` within its tile, so a shift of whole partitions keeps
    the local index and moves only the tile. ``locate`` and ``cell`` are
    the map between cells and (tile, local index), both ways.
    """

    def __init__(self, config: CrossbarConfig):
        self.rows, self.cols = config.rows, config.cols
        self.unit_rows, self.unit_cols = config.unit_rows, config.unit_cols
        self.vparts = config.vertical_partitions
        self.hparts = config.horizontal_partitions
        self.geometry = config.geometry
        self.switches: frozenset[SwitchId] = frozenset(
            [self.switch("row", v) for v in range(1, self.vparts)]
            + [self.switch("col", h) for h in range(1, self.hparts)])
        grid = (-(-self.rows // self.unit_rows), -(-self.cols // self.unit_cols))
        self.n_tiles = grid[0] * grid[1]
        partitions = np.ravel_multi_index(
            self.partition(np.arange(self.vparts * self.hparts)), grid)
        rest = np.delete(np.arange(self.n_tiles), partitions)
        # tile -> (tile row, tile column) in the tile grid, and back
        self.places = np.column_stack(np.divmod(np.r_[partitions, rest], grid[1]))
        self.index = np.empty(grid, dtype=np.int64)
        self.index[self.places[:, 0], self.places[:, 1]] = np.arange(self.n_tiles)
        self.words = -(-self.n_tiles // 64)

    @functools.cached_property
    def words_map(self) -> np.ndarray:
        """The map the C io entry points read: as int64s, the words per
        cell, ``unit_rows``, ``unit_cols`` and the tile grid's columns,
        then ``index``, row-major."""
        return np.r_[self.words, self.unit_rows, self.unit_cols,
                     self.index.shape[1], self.index.ravel()].astype(np.int64)

    @functools.cached_property
    def bit_of_cell(self) -> np.ndarray:
        """[rows, cols]: each cell's bit in a crossbar's words read as one
        little-endian bit string, ``local * 64 * words + tile``."""
        tile, local = self.locate(*np.indices((self.rows, self.cols)))
        return local * 64 * self.words + tile

    def switch(self, kind: str, k: int) -> SwitchId:
        """The ``kind`` ("row" or "col") switch between partition rows, or
        columns, ``k - 1`` and ``k``."""
        return (kind, k * (self.unit_rows if kind == "row" else self.unit_cols))

    def partition(self, unit_id):
        """(partition row, partition column) of a unit id or an id array."""
        return divmod(unit_id, self.hparts)

    def offset(self, shift) -> np.ndarray:
        """The (row, col) cell offset of a shift by (partition rows,
        partition columns), or of an array of them."""
        return np.asarray(shift, dtype=np.int64) * (self.unit_rows, self.unit_cols)

    def locate(self, r, c):
        """(tile, local index) of the cells (r, c), which must be on the grid."""
        tv, lr = np.divmod(r, self.unit_rows)
        th, lc = np.divmod(c, self.unit_cols)
        return self.index[tv, th], lr * self.unit_cols + lc

    def cell(self, tile, local):
        """(row, col) of cell ``local`` of ``tile``: the inverse of ``locate``."""
        r, c = np.divmod(local, self.unit_cols)
        return (self.places[tile, 0] * self.unit_rows + r,
                self.places[tile, 1] * self.unit_cols + c)

    def region_of(self, cell, closed_switches: frozenset[SwitchId]) -> tuple:
        """Merged region of ``cell``: its partition, less one for each closed
        switch at or before it. Ids that are not switches are ignored.

        The row and column may be arrays of equal shape; the result is then
        a pair of arrays.
        """
        r, c = cell
        v = np.minimum(r // self.unit_rows, self.vparts - 1)
        h = np.minimum(c // self.unit_cols, self.hparts - 1)
        for kind, b in closed_switches & self.switches:
            if kind == "row":
                v = v - (r >= b)
            else:
                h = h - (c >= b)
        return v, h


class LabelStats(NamedTuple):
    """One label's charges, as ``ExecutionStats.per_label`` gives them."""

    cycles: int
    gate_executions: int


@functools.lru_cache(maxsize=64)
def _with_label(labels: tuple[str, ...], label: str) -> tuple[str, ...]:
    """``labels`` and then ``label``, as one tuple that every stats record
    charging the same labels in the same order shares."""
    return labels + (label,)


@dataclass(slots=True)
class ExecutionStats:
    """Latency/energy bookkeeping per microcode step label; totals sum the labels.

    The charges are one flat int64 record, each label's cycles then its gate
    executions, in the order the labels were first charged, beside a tuple
    of the labels: a hash result's stats hold a few hundred bytes, not a
    dict of records of Python ints. A charge past the int64 range raises
    ``OverflowError``. ``per_label`` is a read-only view of the record.
    """

    gate_energy_fj: float = 6.4
    _labels: tuple[str, ...] = field(default=(), init=False)
    _counts: array = field(default_factory=lambda: array("q"), init=False)

    def add_cycles(self, label: str, cycles: int, gate_executions: int) -> None:
        try:
            at = 2 * self._labels.index(label)
        except ValueError:
            at = 2 * len(self._labels)
            self._labels = _with_label(self._labels, label)
            self._counts = self._counts + array("q", (0, 0))   # no spare room
        self._counts[at] += cycles
        self._counts[at + 1] += gate_executions

    @property
    def per_label(self) -> Mapping[str, LabelStats]:
        counts = self._counts
        return MappingProxyType({label: LabelStats(counts[2 * i], counts[2 * i + 1])
                                 for i, label in enumerate(self._labels)})

    @property
    def cycles(self) -> int:
        return sum(self._counts[::2])

    @property
    def gate_executions(self) -> int:
        return sum(self._counts[1::2])

    @property
    def energy_fj(self) -> float:
        return self.gate_executions * self.gate_energy_fj

    def as_dict(self) -> dict:
        return {
            "cycles": self.cycles,
            "gate_executions": self.gate_executions,
            "energy_fj": self.energy_fj,
            "per_label": {k: v._asdict() for k, v in sorted(self.per_label.items())},
        }


# ``Crossbar.check_bundle`` reads a line table in slices of whole bundles of
# about this many lines (one bundle more at most), which bounds its memory.
_CHECK_LINES = 4096


def _cell_bits(values, shape: tuple[int, ...]) -> np.ndarray:
    """``values`` as a uint8 array of ``shape``; ``ValueError`` unless each
    is 0 or 1."""
    values = np.asarray(values).reshape(shape)
    if not ((values == 0) | (values == 1)).all():
        raise ValueError("cell values must be 0 or 1")
    return values.astype(np.uint8)


class Crossbar:
    """One crossbar instance: cell grid, partition map, stats, trace.

    ``state`` and ``initialized`` hold the cells bit-sliced, in the layout
    ``engine.replay``'s kernel runs on: each is a C-contiguous uint64 array
    ``[unit_rows * unit_cols, ceil(n_tiles / 64)]``, where row ``local``,
    bit ``t % 64`` of word ``t // 64`` is cell ``local`` of tile ``t`` of
    the ``PartitionMap``. Cells in the padding of the edge tiles stay 0.
    Both arrays and ``partition_map`` are built once, with the crossbar,
    and cannot be replaced, only written in place; the C library holds
    their addresses. ``cells`` and ``load`` read and set them as [rows,
    cols] byte grids.
    """

    def __init__(self, config: CrossbarConfig | None = None):
        self.config = config or CrossbarConfig()
        self._partition_map = tiles = PartitionMap(self.config)
        self._state, self._initialized = np.zeros(
            (2, tiles.unit_rows * tiles.unit_cols, tiles.words), dtype=np.uint64)
        self.stats = ExecutionStats(gate_energy_fj=self.config.gate_energy_fj)
        self.trace: IO[str] | None = None
        self._addresses: tuple = ()

    @property
    def state(self) -> np.ndarray:
        return self._state

    @property
    def initialized(self) -> np.ndarray:
        return self._initialized

    @property
    def partition_map(self) -> PartitionMap:
        return self._partition_map

    # ------------------------------------------------------------------ setup

    def cells(self, initialized: bool = False) -> np.ndarray:
        """A fresh uint8 [rows, cols] grid of the cell values, or of the
        initialized map."""
        words = (self.initialized if initialized else self.state).astype("<u8", copy=False)
        bits = np.unpackbits(words.view(np.uint8), bitorder="little")
        return bits[self.partition_map.bit_of_cell]

    def load(self, state, initialized=None) -> None:
        """Set every cell from a [rows, cols] grid of 0s and 1s, and the
        initialized map too if ``initialized`` is given; neither is charged.
        A value other than 0 or 1 raises ``ValueError`` before any is set."""
        grids = [state] if initialized is None else [state, initialized]
        bits = np.zeros((len(grids), 64 * self.state.size), dtype=np.uint8)
        bits[:, self.partition_map.bit_of_cell] = _cell_bits(
            grids, (len(grids), self.config.rows, self.config.cols))
        for words, packed in zip((self.state, self.initialized),
                                 np.packbits(bits, axis=1, bitorder="little").view("<u8")):
            words[:] = packed.reshape(words.shape)

    def addresses(self) -> tuple:
        """(the C library of ``native.kernel``, then the addresses of
        ``state``, ``initialized`` and the partition map's ``words_map``):
        what its entry points take for this crossbar. They are looked up,
        and the library loaded, on first use."""
        if not self._addresses:
            self._addresses = (native.kernel(), self._state.ctypes.data,
                               self._initialized.ctypes.data,
                               self._partition_map.words_map.ctypes.data)
        return self._addresses

    def __getstate__(self) -> dict:
        # a copy or an unpickled crossbar looks up its own arrays' addresses
        return {**self.__dict__, "_addresses": ()}

    def attach_trace(self, stream: IO[str]) -> None:
        """Have ``engine.replay`` write its trace (schema 3: a header per
        replay, then one JSON line per bundle) to ``stream``."""
        self.trace = stream

    # ---------------------------------------------------------------- legality

    def check_bundle(self, bundles: CycleBundle | list[CycleBundle],
                     lines: LineTable | None = None) -> tuple[bool, list[str]]:
        """Validate one bundle, or a list of bundles (a batch of segments),
        against the single-cycle legality rules. Every rule is of one
        bundle, so none reads across two segments.

        A bundle is legal iff: op shapes are well-formed and in bounds, and
        its closed switches exist; every op sits in one merged region, so
        no line spans an open switch and no run has lines on both sides of
        one; within each (merged) partition all ops share one
        ``line_pattern`` and preset cells form a rows x cols grid; and no
        read/write or write/write cell conflicts exist anywhere in the
        bundle. A bundle with a malformed op, a cell out of bounds or an
        unknown switch reports only that.

        ``lines`` is the bundles' ``line_table``, built here if not given.
        Every rule is checked on every cell of every line, as a group-by
        over keys that lead with the bundle, on slices of the table of
        about ``_CHECK_LINES`` lines. A violation names its run (``op i``);
        with more than one bundle, each is prefixed ``bundle k: ``.
        """
        bundles = [bundles] if isinstance(bundles, CycleBundle) else bundles
        if lines is None:
            lines = line_table(bundles)
        found = [[f"op {i}: {msg}" for i, op in enumerate(bundle.ops)
                  if (msg := op.validate_shape())] for bundle in bundles]
        bad = np.array([not bundle.ops or bool(msgs)
                        for bundle, msgs in zip(bundles, found)], dtype=bool)
        # every slot is checked as it stands; a run reports its first cell
        # off the crossbar, in line order, inputs before the output
        r, c = lines.cells[..., 0], lines.cells[..., 1]          # [line, slot]
        off = (r < 0) | (r >= self.config.rows) | (c < 0) | (c >= self.config.cols)
        off &= ~bad[lines.bundle[lines.run]][:, None]
        hit = np.flatnonzero(off.any(axis=1))
        ran, at = np.unique(lines.run[hit], return_index=True)
        slot = np.array([1, 2, 0])[off[hit[at]][:, [1, 2, 0]].argmax(axis=1)]
        for j, i, s in zip(ran.tolist(), hit[at].tolist(), slot.tolist()):
            k = lines.bundle[j]
            found[k].append(f"op {j - lines.bundle_ptr[k]}: cell "
                            f"({int(r[i, s])},{int(c[i, s])}) out of bounds")
        bad[lines.bundle[ran]] = True
        for k, bundle in enumerate(bundles):
            if not bad[k]:
                found[k] += [f"no switch at boundary {sw}" for sw in bundle.closed_switches
                             if sw not in self.partition_map.switches]
                bad[k] = bool(found[k])
        # the other rules read the good bundles in slices; a bad one ends a slice
        chunk = lines.line_ptr[lines.bundle_ptr[1:]] // _CHECK_LINES
        cuts = np.flatnonzero(np.diff(chunk) | np.diff(bad)) + 1
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, len(bundles)]):
            if lo < hi and not bad[lo]:
                self._check_lines(bundles, lines, int(lo), int(hi), found)
        violations = found[0] if len(bundles) == 1 else \
            [f"bundle {k}: {msg}" for k, msgs in enumerate(found) for msg in msgs]
        return not violations, violations

    def _check_lines(self, bundles: list[CycleBundle], lines: LineTable,
                     lo: int, hi: int, found: list[list[str]]) -> None:
        """``check_bundle``'s rules past op shapes, bounds and switches, on
        the lines of bundles ``lo`` to ``hi``, which passed those: each
        bundle's violations go to its list in ``found``."""
        r0, r1 = lines.bundle_ptr[lo], lines.bundle_ptr[hi]
        span = slice(lines.line_ptr[r0], lines.line_ptr[r1])
        owner, cells = lines.run[span] - r0, lines.cells[span]
        r, c = cells[..., 0], cells[..., 1]                      # [line, slot]
        first = lines.line_ptr[r0:r1] - span.start       # each run's first line
        op_bundle = lines.bundle[r0:r1]
        op_index = np.arange(r0, r1) - lines.bundle_ptr[op_bundle]
        partitions = self.partition_map

        # Rule 2/3: each run must sit inside a single merged region: every
        # cell of every line in the region of its first line's output.
        # Each distinct switch set merges the regions of its own bundles.
        line_bundle = op_bundle[owner]
        switch_sets = [bundles[k].closed_switches for k in range(lo, hi)]
        where = np.empty(r.shape, dtype=np.int32)
        for switches in set(switch_sets):
            on = np.array([s == switches for s in switch_sets])[line_bundle - lo]
            v, h = partitions.region_of((r[on], c[on]), switches)
            where[on] = v * partitions.hparts + h
        home = where[first, 0]
        crossing = np.zeros(first.shape[0], dtype=bool)
        crossing[owner[(where != home[owner][:, None]).any(axis=1)]] = True
        del where
        for j in np.flatnonzero(crossing):
            found[op_bundle[j]].append(f"op {op_index[j]}: crosses an open "
                                       "partition boundary")

        # Rule 1: one line pattern per region; presets form a grid. Groups
        # are (bundle, region) keys over the runs that do not cross; a line
        # pattern is the gate, then, past a preset, the orientation and the
        # along-line coordinates of the first line's slots.
        gate = lines.gate[r0:r1]
        head = cells[first]
        in_row = head[:, 1, 0] == head[:, 0, 0]
        pattern = np.column_stack([gate, in_row, np.where(in_row[:, None], head[..., 1],
                                                          head[..., 0])])
        pattern[:, 1:] *= (gate != GateType.INIT1)[:, None]     # a preset: the gate
        member = np.flatnonzero(~crossing)
        key = op_bundle[member] * partitions.vparts * partitions.hparts + home[member]
        order = np.argsort(key, kind="stable")
        member, key = member[order], key[order]
        new = np.diff(key, prepend=-1) != 0
        group = np.cumsum(new) - 1
        lead = member[new]                  # each group's first run
        mixed = np.zeros(len(lead), dtype=bool)
        mixed[group[1:][(pattern[member[1:]] != pattern[member[:-1]]).any(axis=1)
                        & ~new[1:]]] = True
        presets = (gate[lead] == GateType.INIT1) & ~mixed
        op_group = np.full(first.shape[0], len(lead))   # a crossing run: no group
        op_group[member] = group
        line_group = op_group[owner]
        at = np.flatnonzero(np.r_[presets, False][line_group])
        grid = grids(line_group[at], r[at, 0], c[at, 0], len(lead))
        failed = np.flatnonzero(mixed | (presets & ~grid))
        for g in failed[np.argsort(lead[failed])]:     # in order of first run
            j = member[group == g]
            k = op_bundle[j[0]]
            region = f"partition {divmod(int(home[j[0]]), partitions.hparts)}"
            if mixed[g]:
                patterns = {line_pattern(bundles[k].ops[i]) for i in op_index[j]}
                gates = {p[0] for p in patterns}
                what = (f"mixed gate types {sorted(kind.name for kind in gates)}"
                        if len(gates) > 1 else
                        "mixed orientations" if len({p[1] for p in patterns}) > 1
                        else "unaligned input/output lines")
                found[k].append(f"{region}: {what} (ops {op_index[j].tolist()})")
            else:
                found[k].append(f"{region}: INIT cells do not form a grid pattern")

        # Rule 4: cell conflicts. Each cell, keyed by its bundle, is paired
        # with the last line that writes it; a pair of different runs is a
        # conflict.
        flat = (line_bundle[:, None] * self.config.rows + r) * self.config.cols + c
        order = np.argsort(flat[:, 0], kind="stable")
        written = flat[order, 0]
        last = np.searchsorted(written, flat, side="right") - 1
        writer = owner[order[last]]
        clash = (written[last] == flat) & (writer != owner[:, None])
        if clash.any():
            def cell(i, slot):
                return (int(cells[i, slot, 0]), int(cells[i, slot, 1]))
            again = np.flatnonzero(written[1:] == written[:-1])
            for j, i in sorted(zip(order[again].tolist(),
                                   order[again + 1].tolist()),
                               key=lambda pair: pair[1]):
                found[line_bundle[i]].append(
                    f"ops {op_index[owner[j]]} and {op_index[owner[i]]} both "
                    f"write {cell(i, 0)}")
            arity = lines.arity[r0:r1][owner]
            slots = np.arange(cells.shape[1])
            reads = clash & (slots > 0) & (slots <= arity[:, None])
            for i, slot in zip(*np.nonzero(reads)):
                found[line_bundle[i]].append(
                    f"op {op_index[owner[i]]} reads {cell(i, slot)} written by "
                    f"op {op_index[writer[i, slot]]}")

    # --------------------------------------------------------------- execution

    def execute_bundle(self, bundle: CycleBundle, label: str = "main",
                       check: bool = True) -> None:
        """Apply one cycle: every output of every line of every run becomes
        its gate function, one line at a time.

        Reads happen before any write (legal bundles are conflict-free, so
        this matches any serial order). Adds one cycle and one gate
        execution per line to the stats. Each cell is read and written as
        its bit of ``partition_map.bit_of_cell`` in the words, in numpy,
        apart from the C io and kernel, which it checks.
        """
        if check:
            ok, violations = self.check_bundle(bundle)
            if not ok:
                raise SchedulingError("; ".join(violations))
        state, initialized = self.state.reshape(-1), self.initialized.reshape(-1)
        bit_of_cell = self.partition_map.bit_of_cell
        rows, cols = bit_of_cell.shape

        def bit(words: np.ndarray, at: int) -> int:
            return int(words[at >> 6]) >> (at & 63) & 1

        results: list[tuple[int, int]] = []
        for op in bundle.lines():
            for r, c in op.cells():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise AddressError(f"cell ({r},{c}) out of bounds")
            inputs = [int(bit_of_cell[cell]) for cell in op.inputs]
            if self.config.strict_init:
                for (r, c), at in zip(op.inputs, inputs):
                    if not bit(initialized, at):
                        raise StrictInitError(
                            f"{op.gate.name} reads uninitialized cell ({r},{c})")
            values = tuple(bit(state, at) for at in inputs)
            results.append((int(bit_of_cell[op.output]), gate_function(op.gate, values)))
        for at, value in results:
            word, mask = at >> 6, 1 << (at & 63)
            state[word] = int(state[word]) & ~mask | value * mask
            initialized[word] = int(initialized[word]) | mask
        self.stats.add_cycles(label, 1, len(results))

    # -------------------------------------------------------------- peripheral

    def _check_range(self, row_range: tuple[int, int], col_range: tuple[int, int]) -> None:
        r0, r1 = row_range
        c0, c1 = col_range
        if not (0 <= r0 < r1 <= self.config.rows and 0 <= c0 < c1 <= self.config.cols):
            raise AddressError(f"region rows {row_range} cols {col_range} out of bounds")

    def write_region(self, row_range: tuple[int, int], col_range: tuple[int, int],
                     bits: np.ndarray) -> None:
        """Peripheral write of ``bits``, a block of the region's shape or a
        flat one of its size, in row-major order; costs io cycles per row,
        no gate energy. A block of another shape, or a bit other than 0 or
        1, raises ``ValueError`` before any is written."""
        self._check_range(row_range, col_range)
        (r0, r1), (c0, c1) = row_range, col_range
        block = np.asarray(bits)
        if block.shape not in ((r1 - r0, c1 - c0), ((r1 - r0) * (c1 - c0),)):
            raise ValueError(f"a region of {r1 - r0}x{c1 - c0} cells cannot "
                             f"take a block of shape {block.shape}")
        if block.dtype != np.uint8:     # the C entry point refuses a byte past 1
            block = _cell_bits(block, block.shape)
        library, state, initialized, words_map = self.addresses()
        if library.write_region(state, initialized, words_map, r0, r1, c0, c1,
                                block.tobytes()):
            raise ValueError("cell values must be 0 or 1")
        self.stats.add_cycles("io", (r1 - r0) * self.config.io_cycles_per_row, 0)

    def read_region(self, row_range: tuple[int, int],
                    col_range: tuple[int, int]) -> np.ndarray:
        """Peripheral read; costs io cycles per row, no gate energy."""
        self._check_range(row_range, col_range)
        (r0, r1), (c0, c1) = row_range, col_range
        library, state, initialized, words_map = self.addresses()
        out = ctypes.create_string_buffer((r1 - r0) * (c1 - c0))
        if library.read_region(state, initialized if self.config.strict_init else None,
                               words_map, r0, r1, c0, c1, out):
            raise StrictInitError(f"region rows {row_range} cols {col_range} "
                                  "read before being written")
        self.stats.add_cycles("io", (r1 - r0) * self.config.io_cycles_per_row, 0)
        return np.frombuffer(out, dtype=np.uint8).reshape(r1 - r0, c1 - c0)
