"""Fast replay of frozen gate programs.

Microcode is generated and legality-checked once at the object level, then
frozen into an array of kernel rows. Hashing replays those rows millions of
times, so replay is the hot loop. One numpy kernel runs it, reading each
gate's output off ``crossbar.GATE_TRUTH``.

Freezing exploits the bundle structure: a legal bundle replicates one gate
pattern along a line, so its ops collapse into *vector events* - one gate
applied along a strided run of cells - and the kernel runs over cells
without touching per-cell metadata. Cells are those of a reference
instance; replay moves them by per-origin deltas, so one frozen program
serves any set of hash units. Each bundle belongs to an *origin set* (0 =
per active unit, 1 = per partition row, 2 = per partition column) and each
set supplies its own delta list at run time.

The kernel is partition-major. It holds the grid as ``q[cell, tile]``, one
column per partition-sized tile, so a delta of whole partitions keeps a
cell's index and moves only its tile. ``freeze`` therefore writes each event
as one row of nine tile-local ints: the gate, the run's step and span along
the cell axis, then the first cell and a (set, tile) key of the output and
of two input slots. Ops are grouped by the tile of every cell they touch,
so no run leaves its tile. Only the unit axis of a key - the tiles its
set's deltas move the key's tile to - depends on the deltas, so ``replay``
builds those axes, checks them against the crossbar and executes. Each row
is then one vectorised operation across the tiles of every origin in its
set, which for contiguous units is a slice.
"""

from __future__ import annotations

import functools
import importlib.util
import json
from dataclasses import dataclass

import numpy as np

from .crossbar import (
    GATE_NUM_INPUTS,
    GATE_TRUTH,
    AddressError,
    Crossbar,
    CrossbarConfig,
    CycleBundle,
    GateType,
    StrictInitError,
)

# Benchmark provenance records it; the package never imports it.
HAVE_NUMBA = importlib.util.find_spec("numba") is not None


def active_backend() -> str:
    """The replay kernel's name, as the CLI report's ``backend`` key."""
    return "numpy"


NUM_ORIGIN_SETS = 3
SET_UNIT, SET_PARTITION_ROW, SET_PARTITION_COL = 0, 1, 2

@dataclass
class FrozenProgram:
    """Kernel rows for one replayable microcode segment."""

    rows: np.ndarray          # int16 [n_events, 9]: gate, step, span, then
    #                           the first cell and the key of the output and
    #                           of in1 and in2 (0 and 0 for a slot not read)
    bundle_ptr: np.ndarray    # int64 [n_bundles + 1] first row of each bundle
    bundle_label: np.ndarray  # uint16 [n_bundles] index into label_names
    label_names: list[str]
    geometry: tuple           # _Tiles.geometry of the config frozen for
    reach: np.ndarray         # int16 [n_keys, 2] largest local (row, col)
    #                           any slot touches per key, -1 for unused keys
    cycles_by_label: np.ndarray      # int64 [n_labels]
    gates_by_label_set: np.ndarray   # int64 [n_labels, NUM_ORIGIN_SETS] cells

    @property
    def n_events(self) -> int:
        return int(self.rows.shape[0])

    @property
    def n_bundles(self) -> int:
        return int(self.bundle_label.shape[0])

    @property
    def n_gate_executions(self) -> int:
        step, span = self.rows[:, 1].astype(np.int64), self.rows[:, 2]
        return int(((span - 1) // step + 1).sum())

    def charge(self, stats, origin_counts: list[int]) -> None:
        """Add this program's cycles and gate executions to ``stats``."""
        counts = np.asarray(origin_counts, dtype=np.int64)
        for idx, label in enumerate(self.label_names):
            gates = int(self.gates_by_label_set[idx] @ counts)
            stats.add_cycles(label, int(self.cycles_by_label[idx]), gates)


def _bundle_vector_events(bundle: CycleBundle,
                          tiles: _Tiles) -> list[tuple[int, ...]]:
    """Collapse a bundle into runs (gate, count, dr, dc, then the row and
    column of the output and of two input slots).

    Ops are grouped by gate, input-to-output offsets (constant within an
    aligned pattern) and the tile of every cell, sorted by output cell, and
    split at stride breaks, so every run stays inside its tiles. Input
    slots a gate does not read repeat its output. Order inside a bundle is
    free: legal bundles are conflict-free.
    """
    rows, cols = tiles.rows, tiles.cols
    ur, uc = tiles.unit_rows, tiles.unit_cols
    groups: dict[tuple, list[tuple[int, ...]]] = {}
    for op in bundle.ops:
        deltas = tuple((c[0] - op.output[0], c[1] - op.output[1])
                       for c in op.inputs)
        where = tuple((r // ur, c // uc) for r, c in op.cells())
        groups.setdefault((int(op.gate), deltas, where), []).append(op.output)
    events = []
    for (gate, deltas, _), outs in groups.items():
        outs.sort()
        runs: list[list[tuple[int, int]]] = [[outs[0]]]
        stride: tuple[int, int] | None = None
        for prev, cur in zip(outs, outs[1:]):
            step = (cur[0] - prev[0], cur[1] - prev[1])
            if stride is None and len(runs[-1]) == 1:
                stride = step
                runs[-1].append(cur)
            elif step == stride:
                runs[-1].append(cur)
            else:
                runs.append([cur])
                stride = None
        slots = ((0, 0),) + deltas + ((0, 0),) * (2 - len(deltas))
        for run in runs:
            # a run is a line, so its ends bound every cell it touches
            for r, c in (run[0], run[-1]):
                for dr, dc in slots:
                    if not (0 <= r + dr < rows and 0 <= c + dc < cols):
                        raise AddressError(f"cell ({r + dr},{c + dc}) is off "
                                           f"a grid of {rows}x{cols} cells")
            r, c = run[0]
            dr, dc = (run[1][0] - r, run[1][1] - c) if len(run) > 1 else (0, 0)
            events.append((gate, len(run), dr, dc,
                           *(v for sr, sc in slots for v in (r + sr, c + sc))))
    return events


def freeze(bundles: list[CycleBundle], labels: list[str], set_ids: list[int],
           config: CrossbarConfig) -> FrozenProgram:
    """Pack checked bundles into kernel rows for ``config``'s tile grid.

    ``set_ids`` gives each bundle's origin set. Coordinates must already be
    those of the reference instance (deltas are applied at run time). A
    cell off the crossbar raises ``AddressError``.
    """
    tiles = _Tiles(config)
    ur, uc = tiles.unit_rows, tiles.unit_cols
    per_bundle = [_bundle_vector_events(b, tiles) for b in bundles]
    sizes = np.array([len(events) for events in per_bundle], dtype=np.int64)
    events = np.array([e for events in per_bundle for e in events],
                      dtype=np.int64).reshape(-1, 10)
    label_names = sorted(set(labels))
    label_index = {name: i for i, name in enumerate(label_names)}
    bundle_label = np.array([label_index[name] for name in labels],
                            dtype=np.uint16)
    gate, count, dr, dc = (events[:, k] for k in range(4))
    r, c = events[:, 4::2], events[:, 5::2]     # [event, slot]
    sets = np.repeat(np.asarray(set_ids, dtype=np.int64), sizes)
    cells = np.zeros((len(label_names), NUM_ORIGIN_SETS), dtype=np.int64)
    np.add.at(cells, (np.repeat(bundle_label, sizes), sets), count)

    bundle_ptr = np.concatenate([[0], np.cumsum(sizes)])
    last = count - 1
    step = np.where(count > 1, dr * uc + dc, 1)
    tv, lr = np.divmod(r, ur)
    th, lc = np.divmod(c, uc)
    keys = sets[:, None] * tiles.count + tiles.index[tv, th]
    used = np.arange(3) <= _ARITY[gate][:, None]
    limit = max(ur * uc, NUM_ORIGIN_SETS * tiles.count)
    dtype = np.int16 if limit <= np.iinfo(np.int16).max else np.int32
    rows = np.empty((gate.shape[0], 9), dtype=dtype)
    rows[:, 0], rows[:, 1], rows[:, 2] = gate, step, last * step + 1
    rows[:, 3::2] = np.where(used, lr * uc + lc, 0)
    rows[:, 4::2] = np.where(used, keys, 0)
    # runs stay inside their tile, so their two ends bound every local cell
    reach = np.full((NUM_ORIGIN_SETS * tiles.count, 2), -1, dtype=dtype)
    for axis, (start, extent) in enumerate(((lr, last * dr), (lc, last * dc))):
        end = start + extent[:, None]
        np.maximum.at(reach[:, axis], keys[used], np.maximum(start, end)[used])
    return FrozenProgram(rows, bundle_ptr, bundle_label, label_names,
                         tiles.geometry, reach,
                         np.bincount(bundle_label, minlength=len(label_names)),
                         cells)


def concat(programs: list[FrozenProgram]) -> FrozenProgram:
    """Concatenate segments into one program (bundle order preserved)."""
    label_names = sorted({name for p in programs for name in p.label_names})
    label_index = {name: i for i, name in enumerate(label_names)}
    geometry = programs[0].geometry
    assert all(p.geometry == geometry for p in programs)

    remaps = [np.array([label_index[name] for name in p.label_names], dtype=np.uint16)
              for p in programs]
    row_offsets = np.cumsum([0] + [p.n_events for p in programs])
    bundle_ptr = np.concatenate(
        [p.bundle_ptr[:-1] + off for p, off in zip(programs, row_offsets)]
        + [np.array([row_offsets[-1]], dtype=np.int64)])
    cycles = np.zeros(len(label_names), dtype=np.int64)
    cells = np.zeros((len(label_names), NUM_ORIGIN_SETS), dtype=np.int64)
    for p, remap in zip(programs, remaps):
        for old, new in enumerate(remap):
            cycles[new] += p.cycles_by_label[old]
            cells[new] += p.gates_by_label_set[old]
    return FrozenProgram(
        np.concatenate([p.rows for p in programs]),
        bundle_ptr,
        np.concatenate([remap[p.bundle_label] for p, remap in zip(programs, remaps)]),
        label_names, geometry,
        functools.reduce(np.maximum, [p.reach for p in programs]),
        cycles, cells)


# --------------------------------------------------------------------- kernel

_PLAN_EVENTS = 1024   # rows listed at once; bounds the lists' memory


def _gate_form(gate: GateType) -> tuple[np.ufunc, int]:
    """(reduce, invert) such that GATE_TRUTH gives the gate's output as
    ``reduce`` over its inputs, XOR ``invert``.

    A ufunc per event is several times faster than a table lookup over all
    units, so the kernel evaluates this form, read off the truth table.
    """
    arity = GATE_NUM_INPUTS[gate]
    truth = GATE_TRUTH[gate << 2:(gate + 1) << 2].tolist()
    inputs = [(p >> 1 & 1, p & 1)[:arity] for p in range(4)]
    for reduce, fold in ((np.bitwise_or, any), (np.bitwise_and, all)):
        plain = [int(fold(bits)) for bits in inputs]
        for invert in (0, 1):
            if truth == [bit ^ invert for bit in plain]:
                return reduce, invert
    raise ValueError(f"{gate.name} is not an AND or OR of its inputs, "
                     "inverted or not")


_ARITY = np.array([GATE_NUM_INPUTS[g] for g in GateType], dtype=np.int64)
_GATE_NAMES = [g.name for g in GateType]
_FORMS = [(GATE_NUM_INPUTS[g], *_gate_form(g), int(GATE_TRUTH[g << 2]))
          for g in GateType]


class _Tiles:
    """The crossbar cut into partition-sized tiles, held as ``q[cell, tile]``.

    The tile grid is the partition grid of the config, continued over the
    rest of the array and padded to whole tiles. Partitions come first, in
    unit-id order, then the remaining tiles in row-major order (for Keccak,
    the shared RC column and ROT row). A cell's index is ``r * unit_cols
    + c`` within its tile, so a delta of whole partitions keeps the cell
    index and moves only the tile.
    """

    def __init__(self, config: CrossbarConfig):
        self.rows, self.cols = config.rows, config.cols
        self.unit_rows, self.unit_cols = config.unit_rows, config.unit_cols
        self.geometry = config.geometry
        self.grid = (-(-config.rows // config.unit_rows),
                     -(-config.cols // config.unit_cols))
        partitions = np.zeros(self.grid, dtype=bool)
        partitions[:config.vertical_partitions, :config.horizontal_partitions] = True
        # tile -> row-major place in the tile grid, and back
        self.place = np.concatenate([np.flatnonzero(partitions),
                                     np.flatnonzero(~partitions)])
        self.index = np.empty(partitions.size, dtype=np.int64)
        self.index[self.place] = np.arange(partitions.size)
        self.index = self.index.reshape(self.grid)
        self.count = partitions.size
        self.origins = [(tv * self.unit_rows, th * self.unit_cols)
                        for tv, th in map(divmod, self.place.tolist(),
                                          [self.grid[1]] * self.count)]

    def gather(self, cells: np.ndarray) -> np.ndarray:
        q = np.zeros((self.unit_rows * self.unit_cols, self.count),
                     dtype=cells.dtype)
        by_cell = q.reshape(self.unit_rows, self.unit_cols, self.count)
        for tile, (r, c) in enumerate(self.origins):
            block = cells[r:r + self.unit_rows, c:c + self.unit_cols]
            by_cell[:block.shape[0], :block.shape[1], tile] = block
        return q

    def scatter(self, q: np.ndarray, cells: np.ndarray) -> None:
        by_cell = q.reshape(self.unit_rows, self.unit_cols, self.count)
        for tile, (r, c) in enumerate(self.origins):
            block = cells[r:r + self.unit_rows, c:c + self.unit_cols]
            block[...] = by_cell[:block.shape[0], :block.shape[1], tile]

    def cell(self, tile: int, local: int) -> tuple[int, int]:
        """(row, col) of cell ``local`` of ``tile``."""
        r, c = divmod(local, self.unit_cols)
        return self.origins[tile][0] + r, self.origins[tile][1] + c


def _partition_shifts(config, deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat origin deltas -> (partition rows, partition cols) they move by."""
    rows, cols = np.divmod(deltas, config.cols)
    if (rows % config.unit_rows).any() or (cols % config.unit_cols).any():
        raise ValueError(
            f"replay deltas must move by whole {config.unit_rows}x"
            f"{config.unit_cols} partitions: {deltas.tolist()}")
    return rows // config.unit_rows, cols // config.unit_cols


def _unit_axis(targets: np.ndarray):
    """Tile indices as a slice where they are evenly spaced, else as is."""
    if targets.shape[0] < 2:
        first = int(targets[0]) if targets.shape[0] else 0
        return slice(first, first + targets.shape[0])
    step = int(targets[1] - targets[0])
    if step > 0 and (np.diff(targets) == step).all():
        return slice(int(targets[0]), int(targets[-1]) + 1, step)
    return targets


def _unit_axes(program: FrozenProgram, tiles: _Tiles, shifts: list) -> list:
    """``axes[key]``: the tiles the key's set shifts the key's tile to.

    Raises ``AddressError`` if a shifted tile, or a cell the program
    touches in it, lies off the crossbar. Negative tile indices would wrap,
    so they are checked before indexing.
    """
    axes: list = [None] * program.reach.shape[0]
    for key in np.flatnonzero(program.reach[:, 0] >= 0).tolist():
        s, tile = divmod(key, tiles.count)
        dv, dh = shifts[s]
        tv, th = divmod(int(tiles.place[tile]), tiles.grid[1])
        tv, th = tv + dv, th + dh
        last_row, last_col = program.reach[key].tolist()
        if tv.shape[0] and (
                tv.min() < 0 or th.min() < 0
                or tv.max() * tiles.unit_rows + last_row >= tiles.rows
                or th.max() * tiles.unit_cols + last_col >= tiles.cols):
            raise AddressError("a replayed run leaves the crossbar")
        axes[key] = _unit_axis(tiles.index[tv, th])
    return axes


def _chunks(program: FrozenProgram):
    """Yield the rows of whole bundles, at most _PLAN_EVENTS at a time
    unless one bundle has more, with the index of each bundle's first row.

    Rows come as tuples of ints, which the garbage collector stops tracking
    at once; lists would stay tracked and slow every collection.
    """
    ptr = program.bundle_ptr
    b = 0
    while b < program.n_bundles:
        end = max(b + 1, int(np.searchsorted(ptr, ptr[b] + _PLAN_EVENTS,
                                             side="right")) - 1)
        lo, hi = int(ptr[b]), int(ptr[end])
        yield (list(zip(*program.rows[lo:hi].T.tolist())),
               (ptr[b:end] - lo).tolist())
        b = end


def _check_reads(tiles: _Tiles, init: np.ndarray, rows: list,
                 axes: list) -> None:
    """Raise StrictInitError at the first input cell not yet written."""
    for g, step, span, _, _, *inputs in rows:
        for start, key in zip(inputs[::2], inputs[1::2][:_ARITY[g]]):
            read = init[start:start + span:step, axes[key]]
            if not read.all():
                cell, unit = divmod(int(read.argmin()), read.shape[1])
                tile = np.arange(tiles.count)[axes[key]][unit]
                row, col = tiles.cell(tile, start + cell * step)
                raise StrictInitError(f"{GateType(g).name} reads "
                                      f"uninitialized cell ({row},{col})")


def _execute(q: np.ndarray, rows: list, axes: list,
             init: np.ndarray | None) -> None:
    for g, step, span, o, ok, a, ak, b, bk in rows:
        arity, reduce, invert, preset = _FORMS[g]
        if arity == 0:
            value = preset
        else:
            value = q[a:a + span:step, axes[ak]]
            if arity > 1:
                value = reduce(value, q[b:b + span:step, axes[bk]])
            if invert:
                value = value ^ 1
        q[o:o + span:step, axes[ok]] = value
        if init is not None:
            init[o:o + span:step, axes[ok]] = 1


def _write_trace(program: FrozenProgram, stream, tiles: _Tiles,
                 shifts: list, first_cycle: int) -> None:
    """A header with each set's cell shifts, then one record per bundle
    listing the frozen rows it ran as events of the reference instance."""
    offsets = [[[v * tiles.unit_rows, h * tiles.unit_cols]
                for v, h in zip(rows.tolist(), cols.tolist())]
               for rows, cols in shifts]
    stream.write(json.dumps({"trace_schema": 2, "shifts": offsets}) + "\n")
    ptr = program.bundle_ptr.tolist()
    for b in range(program.n_bundles):
        rows = program.rows[ptr[b]:ptr[b + 1]].tolist()
        events = []
        for g, step, span, *slots in rows:
            out, *ins = [tiles.cell(key % tiles.count, start) for start, key
                         in zip(slots[:2 + 2 * _ARITY[g]:2], slots[1::2])]
            count = (span - 1) // step + 1
            run = [0, 0]
            if count > 1:       # runs never leave their tile
                r, c = tiles.cell(slots[1] % tiles.count, slots[0] + step)
                run = [r - out[0], c - out[1]]
            events.append([_GATE_NAMES[g], count, run, out, ins])
        stream.write(json.dumps({
            "cycle": first_cycle + b,
            "label": program.label_names[program.bundle_label[b]],
            # a bundle never mixes sets
            "set": rows[0][4] // tiles.count if rows else 0,
            "events": events}) + "\n")


def trace_ops(lines):
    """Expand a trace (schema 2) back to per-op form.

    Yields ``(cycle, label, [(gate, inputs, output), ...])`` per record,
    with every event's cells moved by each shift of the record's set.
    """
    shifts: list = []
    for line in lines:
        record = json.loads(line)
        if "trace_schema" in record:
            shifts = record["shifts"]
            continue
        ops = []
        for dr, dc in shifts[record["set"]]:
            for name, count, (sr, sc), output, inputs in record["events"]:
                gate = GateType[name]
                for i in range(count):
                    r, c = dr + i * sr, dc + i * sc
                    ops.append((gate,
                                tuple((a + r, b + c) for a, b in inputs),
                                (output[0] + r, output[1] + c)))
        yield record["cycle"], record["label"], ops


# ----------------------------------------------------------------- entry point

def replay(program: FrozenProgram, crossbar: Crossbar,
           deltas_by_set: list[np.ndarray]) -> None:
    """Run a frozen program on a crossbar, charge its stats and trace it.

    ``deltas_by_set[s]`` holds the flat origin deltas replicated for origin
    set ``s``. Each delta is ``r * cols + c`` with ``r`` a multiple of the
    config's ``unit_rows`` and ``0 <= c`` a multiple of its ``unit_cols``,
    so it moves the program by whole partitions; any other delta raises
    ``ValueError``, and so does a program frozen for another geometry. A
    delta that moves a cell off the crossbar raises ``AddressError`` before
    any bundle runs. The initialized map is only maintained, and reads of
    never-written cells only rejected, when ``crossbar.config.strict_init``
    is set; a rejected read raises ``StrictInitError`` and leaves the grids
    holding every bundle before the one that read. With a stream attached
    by ``Crossbar.attach_trace``, a header and one record per bundle are
    written after the kernel returns: the frozen rows the bundle ran, as
    events of the reference instance (``trace_ops`` expands them). Traced
    and untraced runs execute the same kernel.
    """
    deltas_by_set = [np.asarray(d, dtype=np.int64) for d in deltas_by_set]
    assert len(deltas_by_set) == NUM_ORIGIN_SETS
    tiles = _Tiles(crossbar.config)
    if program.geometry != tiles.geometry:
        raise ValueError(f"a program frozen for geometry {program.geometry} "
                         f"cannot replay on {tiles.geometry}")
    shifts = [_partition_shifts(crossbar.config, d) for d in deltas_by_set]
    axes = _unit_axes(program, tiles, shifts)
    first_cycle = crossbar.stats.cycles + 1

    q = tiles.gather(crossbar.state)
    init = tiles.gather(crossbar.initialized) \
        if crossbar.config.strict_init else None
    try:
        for rows, starts in _chunks(program):
            if init is None:
                _execute(q, rows, axes, None)
                continue
            # a bundle that reads an unwritten cell writes nothing
            for lo, hi in zip(starts, starts[1:] + [len(rows)]):
                _check_reads(tiles, init, rows[lo:hi], axes)
                _execute(q, rows[lo:hi], axes, init)
    finally:
        tiles.scatter(q, crossbar.state)
        if init is not None:
            tiles.scatter(init, crossbar.initialized)

    program.charge(crossbar.stats, [d.shape[0] for d in deltas_by_set])
    if crossbar.trace is not None:
        _write_trace(program, crossbar.trace, tiles, shifts, first_cycle)
