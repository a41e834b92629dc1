"""Fast replay of frozen gate programs.

Microcode is generated and legality-checked once at the object level, then
frozen into flat numpy arrays. Hashing replays those arrays millions of
times, so replay is the hot loop. One numpy kernel runs it, reading each
gate's output off ``crossbar.GATE_TRUTH``.

Freezing exploits the bundle structure: a legal bundle replicates one gate
pattern along a line, so its ops collapse into *vector events* - (gate,
base cells, count, stride) - and the kernel runs over cells without
touching per-cell metadata. Cell addresses are flat indices relative to a
reference instance; replay adds per-origin deltas, so one frozen program
serves any set of hash units. Events carry an *origin set* id (0 = per
active unit, 1 = per partition row, 2 = per partition column) and each set
supplies its own delta list at run time.

The kernel is partition-major. It holds the grid as ``q[cell, tile]``, one
column per partition-sized tile, so a delta of whole partitions moves only
the tile. Each event is then one vectorised operation on a strided run of
cells across the tiles of every origin in its set, which for contiguous
units is a slice.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass

import numpy as np

from .crossbar import (
    GATE_NUM_INPUTS,
    GATE_TRUTH,
    AddressError,
    Crossbar,
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

_NO_INPUT = -(1 << 30)   # placeholder base for unused operand slots


@dataclass
class FrozenProgram:
    """Flat vector-event arrays for one replayable microcode segment."""

    gate: np.ndarray          # uint8 [n_events]
    count: np.ndarray         # int32 cells per event
    stride: np.ndarray        # int32 flat step between cells
    out: np.ndarray           # int32 flat base of the output run
    in1: np.ndarray           # int32 flat base, _NO_INPUT if unused
    in2: np.ndarray
    in3: np.ndarray
    set_id: np.ndarray        # uint8 [n_events]
    bundle_ptr: np.ndarray    # int64 [n_bundles + 1] event index per bundle
    bundle_label: np.ndarray  # uint16 [n_bundles] index into label_names
    label_names: list[str]
    cols: int
    cycles_by_label: np.ndarray      # int64 [n_labels]
    gates_by_label_set: np.ndarray   # int64 [n_labels, NUM_ORIGIN_SETS] cells

    @property
    def n_events(self) -> int:
        return int(self.gate.shape[0])

    @property
    def n_bundles(self) -> int:
        return int(self.bundle_label.shape[0])

    @property
    def n_gate_executions(self) -> int:
        return int(self.count.sum())

    def charge(self, stats, origin_counts: list[int]) -> None:
        """Add this program's cycles and gate executions to ``stats``."""
        counts = np.asarray(origin_counts, dtype=np.int64)
        for idx, label in enumerate(self.label_names):
            gates = int(self.gates_by_label_set[idx] @ counts)
            stats.add_cycles(label, int(self.cycles_by_label[idx]), gates)


def _bundle_vector_events(bundle: CycleBundle, cols: int) -> list[tuple]:
    """Collapse a bundle into (gate, count, stride, out, in1, in2, in3) runs.

    Ops are grouped by gate and input-to-output offsets (constant within an
    aligned pattern), sorted by output cell, and split at stride breaks.
    Order inside a bundle is free: legal bundles are conflict-free.
    """
    groups: dict[tuple, list[tuple[int, ...]]] = {}
    for op in bundle.ops:
        deltas = tuple((c[0] - op.output[0], c[1] - op.output[1])
                       for c in op.inputs)
        groups.setdefault((int(op.gate), deltas), []).append(op.output)
    events = []
    for (gate, deltas), outs in groups.items():
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
        for run in runs:
            # a run is a line, so its ends bound every cell it touches
            for r, c in (run[0], run[-1]):
                for dr, dc in ((0, 0),) + deltas:
                    if r + dr < 0 or not 0 <= c + dc < cols:
                        raise AddressError(f"cell ({r + dr},{c + dc}) is off "
                                           f"a grid of {cols} columns")
            events.append((gate, len(run),
                           (run[1][0] - run[0][0], run[1][1] - run[0][1])
                           if len(run) > 1 else (0, 0),
                           run[0], deltas))
    return events


def freeze(bundles: list[CycleBundle], labels: list[str], set_ids: list[int],
           cols: int) -> FrozenProgram:
    """Pack checked bundles into flat replay arrays.

    ``set_ids`` gives each bundle's origin set. Coordinates must already be
    those of the reference instance (deltas are applied at run time). A
    cell with a negative row or a column outside ``[0, cols)`` raises
    ``AddressError``, because its flat address would be another cell's.
    """
    per_bundle = [_bundle_vector_events(b, cols) for b in bundles]
    n = sum(len(ev) for ev in per_bundle)
    gate = np.zeros(n, dtype=np.uint8)
    count = np.zeros(n, dtype=np.int32)
    stride = np.zeros(n, dtype=np.int32)
    out = np.zeros(n, dtype=np.int32)
    in1 = np.full(n, _NO_INPUT, dtype=np.int32)
    in2 = np.full(n, _NO_INPUT, dtype=np.int32)
    in3 = np.full(n, _NO_INPUT, dtype=np.int32)
    set_id = np.zeros(n, dtype=np.uint8)
    bundle_ptr = np.zeros(len(bundles) + 1, dtype=np.int64)
    label_names = sorted(set(labels))
    label_index = {name: i for i, name in enumerate(label_names)}
    bundle_label = np.zeros(len(bundles), dtype=np.uint16)
    cycles = np.zeros(len(label_names), dtype=np.int64)
    cells = np.zeros((len(label_names), NUM_ORIGIN_SETS), dtype=np.int64)

    e = 0
    ins = (in1, in2, in3)
    for b, (events, label, sid) in enumerate(zip(per_bundle, labels, set_ids)):
        bundle_ptr[b] = e
        idx = label_index[label]
        bundle_label[b] = idx
        cycles[idx] += 1
        for g, cnt, step, base, deltas in events:
            gate[e] = g
            count[e] = cnt
            stride[e] = step[0] * cols + step[1]
            out[e] = base[0] * cols + base[1]
            for slot, (dr, dc) in zip(ins, deltas):
                slot[e] = out[e] + dr * cols + dc
            set_id[e] = sid
            cells[idx, sid] += cnt
            e += 1
    bundle_ptr[len(bundles)] = e
    return FrozenProgram(gate, count, stride, out, in1, in2, in3, set_id,
                         bundle_ptr, bundle_label, label_names, cols,
                         cycles, cells)


def concat(programs: list[FrozenProgram]) -> FrozenProgram:
    """Concatenate segments into one program (bundle order preserved)."""
    label_names = sorted({name for p in programs for name in p.label_names})
    label_index = {name: i for i, name in enumerate(label_names)}
    cols = programs[0].cols
    assert all(p.cols == cols for p in programs)

    remaps = [np.array([label_index[name] for name in p.label_names], dtype=np.uint16)
              for p in programs]
    event_offsets = np.cumsum([0] + [p.n_events for p in programs])
    bundle_ptr = np.concatenate(
        [p.bundle_ptr[:-1] + off for p, off in zip(programs, event_offsets)]
        + [np.array([event_offsets[-1]], dtype=np.int64)])
    cycles = np.zeros(len(label_names), dtype=np.int64)
    cells = np.zeros((len(label_names), NUM_ORIGIN_SETS), dtype=np.int64)
    for p, remap in zip(programs, remaps):
        for old, new in enumerate(remap):
            cycles[new] += p.cycles_by_label[old]
            cells[new] += p.gates_by_label_set[old]
    return FrozenProgram(
        np.concatenate([p.gate for p in programs]),
        np.concatenate([p.count for p in programs]),
        np.concatenate([p.stride for p in programs]),
        np.concatenate([p.out for p in programs]),
        np.concatenate([p.in1 for p in programs]),
        np.concatenate([p.in2 for p in programs]),
        np.concatenate([p.in3 for p in programs]),
        np.concatenate([p.set_id for p in programs]),
        bundle_ptr,
        np.concatenate([remap[p.bundle_label] for p, remap in zip(programs, remaps)]),
        label_names, cols, cycles, cells)


# --------------------------------------------------------------------- kernel

_PLAN_EVENTS = 1024   # events planned at once; bounds the plan's memory


def _gate_form(gate: GateType) -> tuple[np.ufunc, int]:
    """(reduce, invert) such that GATE_TRUTH gives the gate's output as
    ``reduce`` over its inputs, XOR ``invert``.

    A ufunc per event is several times faster than a table lookup over all
    units, so the kernel evaluates this form, read off the truth table.
    """
    arity = GATE_NUM_INPUTS[gate]
    truth = GATE_TRUTH[gate << 3:(gate + 1) << 3].tolist()
    inputs = [(p >> 2 & 1, p >> 1 & 1, p & 1)[:arity] for p in range(8)]
    for reduce, fold in ((np.bitwise_or, any), (np.bitwise_and, all)):
        plain = [int(fold(bits)) for bits in inputs]
        for invert in (0, 1):
            if truth == [bit ^ invert for bit in plain]:
                return reduce, invert
    raise ValueError(f"{gate.name} is not an AND or OR of its inputs, "
                     "inverted or not")


_ARITY = np.array([GATE_NUM_INPUTS[g] for g in GateType], dtype=np.int64)
_FORMS = [(GATE_NUM_INPUTS[g], *_gate_form(g), int(GATE_TRUTH[g << 3]))
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

    def __init__(self, config):
        self.rows, self.cols = config.rows, config.cols
        self.unit_rows, self.unit_cols = config.unit_rows, config.unit_cols
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


def _plans(program: FrozenProgram, tiles: _Tiles, shifts: list):
    """Yield the kernel's rows for whole bundles of at most _PLAN_EVENTS
    events at a time, with the index of each bundle's first row.

    A row is the gate, the step and the span of its runs in ``q``'s cell
    axis, then the first cell and the unit axis key of the output and of
    each input slot (0 and 0 for a slot the gate does not read); the unit
    axis is ``axes[key]``. Rows hold only ints, so the garbage collector
    stops tracking them at once. A run that leaves its tile becomes one row
    per cell.
    """
    cols, ur, uc = tiles.cols, tiles.unit_rows, tiles.unit_cols
    shift_range = np.array([[dv.min(), dv.max(), dh.min(), dh.max()]
                            if dv.shape[0] else [0, 0, 0, 0]
                            for dv, dh in shifts], dtype=np.int64)
    axes: list = [None] * (NUM_ORIGIN_SETS * tiles.count)   # by set and tile
    ptr = program.bundle_ptr
    b = 0
    while b < program.n_bundles:
        end = max(b + 1, int(np.searchsorted(ptr, ptr[b] + _PLAN_EVENTS,
                                             side="right")) - 1)
        lo, hi = int(ptr[b]), int(ptr[end])
        starts = ptr[b:end] - lo
        b = end

        gate = program.gate[lo:hi].astype(np.int64)
        arity = _ARITY[gate]
        count = program.count[lo:hi].astype(np.int64)
        stride = program.stride[lo:hi].astype(np.int64)
        sets = program.set_id[lo:hi].astype(np.int64)
        out = program.out[lo:hi].astype(np.int64)
        # unused input slots repeat the output so that every slot is a cell
        bases = [out] + [np.where(arity > k, base[lo:hi], out)
                         for k, base in enumerate((program.in1, program.in2,
                                                   program.in3))]
        r0, c0 = np.divmod(out, cols)
        r1, c1 = np.divmod(out + stride, cols)
        dr, dc = r1 - r0, c1 - c0          # the run's step in (row, col)

        last = count - 1
        leaves = np.zeros(gate.shape[0], dtype=bool)
        for base in bases:
            r, c = np.divmod(base, cols)
            leaves |= ((r // ur != (r + last * dr) // ur)
                       | (c // uc != (c + last * dc) // uc))
        if leaves.any():
            per_event = np.where(leaves, count, 1)
            first_row = np.concatenate([[0], np.cumsum(per_event)])
            event = np.repeat(np.arange(gate.shape[0]), per_event)
            cell = np.arange(event.shape[0]) - first_row[event]
            gate, arity, sets = gate[event], arity[event], sets[event]
            bases = [base[event] + cell * stride[event] for base in bases]
            count = np.where(leaves[event], 1, count[event])
            dr, dc = dr[event], dc[event]
            starts = first_row[starts]
            last = count - 1

        step = np.where(count > 1, dr * uc + dc, 1)
        lo_r, hi_r, lo_c, hi_c = (shift_range[sets, k] for k in range(4))
        row = [gate.tolist(), step.tolist(), (last * step + 1).tolist()]
        for slot, base in enumerate(bases):
            r, c = np.divmod(base, cols)
            r_end, c_end = r + last * dr, c + last * dc
            if ((np.minimum(r, r_end) + lo_r * ur < 0).any()
                    or (np.maximum(r, r_end) + hi_r * ur >= tiles.rows).any()
                    or (np.minimum(c, c_end) + lo_c * uc < 0).any()
                    or (np.maximum(c, c_end) + hi_c * uc >= tiles.cols).any()):
                raise AddressError("a replayed run leaves the crossbar")
            tv, lr = np.divmod(r, ur)
            th, lc = np.divmod(c, uc)
            keys = sets * tiles.count + tiles.index[tv, th]
            used = arity >= slot
            for key in np.flatnonzero(np.bincount(keys[used])).tolist():
                if axes[key] is None:
                    s, tile = divmod(key, tiles.count)
                    dv, dh = shifts[s]
                    tv0, th0 = divmod(int(tiles.place[tile]), tiles.grid[1])
                    axes[key] = _unit_axis(tiles.index[tv0 + dv, th0 + dh])
            row += [np.where(used, lr * uc + lc, 0).tolist(),
                    np.where(used, keys, 0).tolist()]
        yield list(zip(*row)), starts.tolist(), axes


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
    for g, step, span, o, ok, a, ak, b, bk, c, ck in rows:
        arity, reduce, invert, preset = _FORMS[g]
        if arity == 0:
            value = preset
        else:
            value = q[a:a + span:step, axes[ak]]
            if arity > 1:
                value = reduce(value, q[b:b + span:step, axes[bk]])
                if arity > 2:
                    reduce(value, q[c:c + span:step, axes[ck]], out=value)
            if invert:
                value = value ^ 1
        q[o:o + span:step, axes[ok]] = value
        if init is not None:
            init[o:o + span:step, axes[ok]] = 1


def _bundle_sets(program: FrozenProgram) -> np.ndarray:
    """Origin set of each bundle (bundles never mix sets)."""
    first = program.bundle_ptr[:-1]
    n = program.n_bundles
    sets = np.zeros(n, dtype=np.uint8)
    nonempty = program.bundle_ptr[1:] > first
    sets[nonempty] = program.set_id[first[nonempty]]
    return sets


def _bundle_ops(program: FrozenProgram, lo: int, hi: int, deltas: np.ndarray):
    """(gate, inputs, output) cells of events [lo, hi) x deltas."""
    cols = program.cols
    for d in deltas.tolist():
        for e in range(lo, hi):
            gate = int(program.gate[e])
            bases = [int(arr[e]) for arr in
                     (program.in1, program.in2, program.in3)[:GATE_NUM_INPUTS[gate]]]
            out, stride = int(program.out[e]), int(program.stride[e])
            for i in range(int(program.count[e])):
                offset = d + i * stride
                yield (gate, [divmod(base + offset, cols) for base in bases],
                       divmod(out + offset, cols))


def _write_trace(program: FrozenProgram, crossbar: Crossbar,
                 deltas_by_set: list[np.ndarray], first_cycle: int) -> None:
    """One trace record per bundle, read back from the frozen arrays."""
    sets = _bundle_sets(program)
    for b in range(program.n_bundles):
        ops = _bundle_ops(program, int(program.bundle_ptr[b]),
                          int(program.bundle_ptr[b + 1]), deltas_by_set[sets[b]])
        crossbar.trace_cycle(first_cycle + b,
                             program.label_names[program.bundle_label[b]], ops)


# ----------------------------------------------------------------- entry point

def replay(program: FrozenProgram, crossbar: Crossbar,
           deltas_by_set: list[np.ndarray]) -> None:
    """Run a frozen program on a crossbar, charge its stats and trace it.

    ``deltas_by_set[s]`` holds the flat origin deltas replicated for origin
    set ``s``. Each delta is ``r * cols + c`` with ``r`` a multiple of the
    config's ``unit_rows`` and ``0 <= c`` a multiple of its ``unit_cols``,
    so it moves the program by whole partitions; any other delta raises
    ``ValueError``. The initialized map is only maintained, and reads of
    never-written cells only rejected, when ``crossbar.config.strict_init``
    is set; a rejected read raises ``StrictInitError`` and leaves the grids
    holding every bundle before the one that read. With a stream attached
    by ``Crossbar.attach_trace``, one record per bundle is written after
    the kernel returns, read back from the frozen arrays, so traced and
    untraced runs execute the same kernel.
    """
    deltas_by_set = [np.asarray(d, dtype=np.int64) for d in deltas_by_set]
    assert len(deltas_by_set) == NUM_ORIGIN_SETS
    shifts = [_partition_shifts(crossbar.config, d) for d in deltas_by_set]
    first_cycle = crossbar.stats.cycles + 1

    tiles = _Tiles(crossbar.config)
    q = tiles.gather(crossbar.state)
    init = tiles.gather(crossbar.initialized) \
        if crossbar.config.strict_init else None
    try:
        for rows, starts, axes in _plans(program, tiles, shifts):
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
        _write_trace(program, crossbar, deltas_by_set, first_cycle)
