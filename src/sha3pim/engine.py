"""Fast replay of frozen gate programs.

Microcode is generated and legality-checked once at the object level, then
frozen into an array of kernel rows. Hashing replays those rows millions of
times, so replay is the hot loop. One small C kernel (``_rows.c``) runs it:
the frozen rows are already a straight-line program, so only the host loop
that walks them is compiled. It evaluates each gate in the form
``crossbar.GATE_TABLE`` gives it (an OR or AND of its inputs, inverted or
not), passed to it as the table's rows, on one of three copies of its
loops, one per form in the table, compiled from one body with the form as
constants, so a word costs the one or two operations of its form, and each
copy derives its preset from its form.

Freezing exploits the bundle structure: a legal bundle replicates one gate
pattern along a line, so its runs are *vector events* - one gate applied
along a strided run of cells - and the kernel runs over cells without
touching per-cell metadata. Each run the scheduler carried is one event,
split only where its lines change tile (no Keccak run does). ``freeze``
reads the rows and their live flags off a batch of segments' line table,
the one the scheduler built and checked, and gives back one program per
segment. Cells are
those of a reference instance; replay moves copies of them by whole
partitions, so one frozen program serves any set of hash units.
Each bundle belongs to an *origin set* (0 = per active unit, 1 = per
partition row, 2 = per partition column) and each set supplies its own
shifts at run time, one (partition rows, partition columns) pair per copy.

The kernel is partition-major and bit-sliced, and runs in place on the
crossbar's own words. ``Crossbar`` stores each cell as one bit per
partition-sized tile of its ``PartitionMap``, 64 tiles to a 64-bit word
(``state[cell, word]``; bit ``t % 64`` of word ``t // 64`` is tile ``t``),
so a shift of whole partitions keeps a cell's index and moves only its
bit. ``freeze`` therefore writes each event as one row of nine tile-local
int32s, which the kernel reads in place: the gate, the run's step and span
along the cell axis, then the first cell and a (set, tile) key of the
output and of two input slots. An input slot past the gate's arity
repeats the slot before it, or the output for a preset, as in the line
table. No event leaves its tile, and a run that steps backward along the
cell axis is written from its last line, so each row is a forward walk.
``FrozenProgram`` checks every row once, when it is built (each gate
code, step, span, cell and key in range, and that only presets are marked
dead), reads its charges and each key's reach off them, and holds its
arrays read-only, so no replay checks or copies them again. Only the unit
axis of a key - the tiles its set's shifts move the key's tile to -
depends on the shifts, so ``replay`` builds those axes as (first tile,
stride, count), checks them and the reach against the crossbar and calls
the kernel once on ``crossbar.state`` as it is; a key of a set with no
copies has count 0 and runs nothing. A shift set whose tiles are not
evenly spaced is refused. The map numbers partition tiles in unit-id
order, so contiguous units are contiguous bits, and the kernel applies a
gate to 64 units at a time with word operations. It walks a row word by
word, with the row's cells in the inner loop, under a mask of the output
key's places in that word: at stride 1 an edge mask keeps the bits of
other tiles in a key's first and last word, and a larger stride (the
partition-row set's) or a descending one keeps its places' own bits. An
input key whose tiles start elsewhere than its output key's is shifted
into line. Only a row whose keys' strides differ (an RC fetch) runs one
bit at a time. Strict mode runs on ``crossbar.initialized``, which has
the same layout.

A program stores its rows a bundle at a time, and ``order`` names the
stored bundle each cycle runs. ``freeze`` writes the identity; ``concat``
stores each distinct program it is given once (by identity) and
concatenates their orders. The permutation, one ``concat`` of its 42
distinct segments, stores 3,606 rows where it runs 90,576. Charges,
``n_bundles``, ``n_events`` and the trace count what the cycles run.

Every gate's output is preset (INIT1) first, and the model charges that
cycle. But a gate here computes its output from its inputs alone, so a
preset that the next access to its cell overwrites is never seen.
``freeze`` proves which preset rows are dead and marks each row ``live`` or
not. Outside strict mode replay runs only the live rows; in strict mode it
runs every row, and checks each bundle's reads against the initialized map
before the bundle writes, so an uninitialized read fails at the same
bundle. Cycles and gate executions are charged for every row either way,
and the trace lists the rows a bundle skipped.

The kernel is compiled from the checkout on first use with the C compiler
Python was built with, and cached in the package's ``__pycache__``; see
``native.kernel``.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .crossbar import (
    GATE_TABLE,
    AddressError,
    Crossbar,
    CrossbarConfig,
    GateType,
    LineTable,
    PartitionMap,
    StrictInitError,
)

# Benchmark provenance records it; the package never imports it.
HAVE_NUMBA = importlib.util.find_spec("numba") is not None


def active_backend() -> str:
    """The replay kernel's name, as the CLI report's ``backend`` key."""
    return "c"


NUM_ORIGIN_SETS = 3
SET_UNIT, SET_PARTITION_ROW, SET_PARTITION_COL = 0, 1, 2

@dataclass(frozen=True)
class FrozenProgram:
    """Kernel rows for one replayable microcode segment.

    The rows are stored a bundle at a time, and ``order`` names the stored
    bundle each cycle runs, so a program that runs a bundle many times
    stores it once (the permutation stores 3,606 rows and runs 90,576).
    ``n_bundles``, ``n_events`` and the charges count what the cycles run,
    each stored bundle as often as ``order`` names it, and ``charge`` adds
    only the labels they run. A step program is ``permute`` with a shorter
    ``order``: it stores bundles it never runs, and shares ``trace_tails``.

    The kernel reads ``rows``, ``live``, ``bundle_ptr`` and ``order`` in
    place through raw pointers, so they are checked once, here: brought to
    the dtypes below, as arrays that own their data (``np.require`` copies
    the slices ``freeze`` cuts from a batch, and nothing ``concat``
    builds), checked to agree with each other and with ``geometry``, and
    made read-only with every other array, so no writable base is left
    behind them. A program
    that fails raises ``ValueError``, so no program that exists can make
    ``replay`` touch memory outside the crossbar's words. Its charges (a
    cycle per bundle run, a gate execution per line) and each key's
    ``reach``, which ``replay`` checks against the crossbar's edge, are
    read off its rows here.
    """

    rows: np.ndarray          # int32 [stored rows, 9]: gate, step, span, then
    #                           the first cell and the key of the output and
    #                           of in1 and in2; a slot past the gate's arity
    #                           repeats the one before it, or the output
    live: np.ndarray          # bool [stored rows]: False for a row of INIT1
    #                           presets that are all dead (overwritten before
    #                           any read); counted and charged, never replayed
    #                           outside strict mode
    bundle_ptr: np.ndarray    # int64 [stored bundles + 1] first row of each
    bundle_label: np.ndarray  # uint16 [stored bundles] index into label_names
    order: np.ndarray         # int32 [n_bundles] the stored bundle each cycle
    #                           runs; the identity for a program freeze built
    label_names: list[str]
    geometry: tuple           # PartitionMap.geometry of the config frozen for
    reach: np.ndarray = field(init=False)               # int32 [n_keys, 2]
    # the largest local (row, col) any slot of a row the cycles run touches
    # per key, -1 if unused
    n_events: int = field(init=False)                   # rows the cycles run
    cycles_by_label: np.ndarray = field(init=False)     # int64 [n_labels]
    gates_by_label_set: np.ndarray = field(init=False)  # int64 [n_labels, 3]
    # each stored bundle's trace record after its cycle number, keyed by
    # whether dead rows were skipped; built by the first traced replay of
    # each kind
    trace_tails: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    def __post_init__(self):
        # each array owns its data, so locking it below leaves no writable base
        for name, dtype in (("rows", np.int32), ("live", np.bool_),
                            ("bundle_ptr", np.int64), ("bundle_label", None),
                            ("order", np.int32)):
            object.__setattr__(self, name, np.require(getattr(self, name), dtype, "CO"))
        rows, ptr, order = self.rows, self.bundle_ptr, self.order
        sizes = np.diff(ptr)
        if (rows.ndim != 2 or rows.shape[1] != 9 or self.live.shape != rows.shape[:1]
                or ptr.shape != (self.bundle_label.shape[0] + 1,) or ptr[0] != 0
                or ptr[-1] != rows.shape[0] or (sizes < 0).any() or order.ndim != 1
                or ((order < 0) | (order >= sizes.shape[0])).any()):
            raise ValueError("a frozen program's rows, live flags, bundle "
                             "pointers and order do not match")
        if ((self.bundle_label < 0) | (self.bundle_label >= len(self.label_names))).any():
            raise ValueError("a frozen program's bundle labels run past its label names")
        grid_rows, grid_cols, _, _, unit_rows, unit_cols = self.geometry
        n_keys = NUM_ORIGIN_SETS * -(-grid_rows // unit_rows) * -(-grid_cols // unit_cols)
        # the kernel indexes memory with every field of a row: each is checked
        # a column at a time, and each row charges its lines (exact int64s)
        # to its label and set, once per cycle that runs its bundle
        n = len(self.label_names)
        runs = np.bincount(order, minlength=sizes.shape[0])
        label = np.repeat(self.bundle_label.astype(np.int32), sizes) * NUM_ORIGIN_SETS
        weight = np.repeat(runs, sizes)
        ran = weight > 0
        gates = np.zeros((n, NUM_ORIGIN_SETS), dtype=np.int64)
        reach = np.full((n_keys, 2), -1, dtype=np.int32)
        step, span = rows[:, 1], rows[:, 2]
        if ((rows[:, 0] < 0) | (rows[:, 0] >= len(GateType)) | (step < 1)
                | (span < 1)).any():
            raise ValueError("a frozen row's gate is not a GateType, or its step "
                             "or span is below 1")
        # the kernel skips a row marked dead, which only an unread preset may be
        if (~self.live & (rows[:, 0] != GateType.INIT1)).any():
            raise ValueError("a frozen program marks a row dead that is not an INIT1 preset")
        steps = (span - 1) // step      # lines after the first
        for first, key in zip(rows[:, 3::2].T, rows[:, 4::2].T):
            if ((first < 0) | (first > unit_rows * unit_cols - span)
                    | (key < 0) | (key >= n_keys)).any():
                raise ValueError("a frozen row's cells leave its tile, or its "
                                 f"key is outside 0..{n_keys - 1}")
            # cell[(row, col), (first, second, last)]: a run whose steps
            # all equal its first lies on a line, so its ends bound it
            cell = np.stack(np.divmod(first + np.stack(
                [0 * step, np.minimum(step, steps * step), steps * step]), unit_cols))
            if (cell[:, 2] - cell[:, 0] != steps * (cell[:, 1] - cell[:, 0])).any():
                raise ValueError("a frozen row's run wraps from a row of its tile")
            # replay maps and checks the keys of the rows the cycles run; a
            # stored row that no cycle runs reaches nothing
            cell, at = cell[:, :, ran], 2 * key[ran]
            np.maximum.at(reach.reshape(-1), at, cell[0, 2])
            np.maximum.at(reach.reshape(-1), at + 1, cell[1, ::2].max(axis=0))
        np.add.at(gates.reshape(-1), label + rows[:, 4] // (n_keys // NUM_ORIGIN_SETS),
                  (steps + 1).astype(np.int64) * weight)
        object.__setattr__(self, "reach", reach)
        object.__setattr__(self, "n_events", int(sizes @ runs))
        object.__setattr__(self, "cycles_by_label",
                           np.bincount(self.bundle_label[order], minlength=n))
        object.__setattr__(self, "gates_by_label_set", gates)
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @property
    def n_bundles(self) -> int:
        return int(self.order.shape[0])

    @property
    def n_gate_executions(self) -> int:
        return int(self.gates_by_label_set.sum())

    def charge(self, stats, origin_counts: list[int]) -> None:
        """Add this program's cycles and gate executions to ``stats``, under
        each label that its cycles run."""
        counts = np.asarray(origin_counts, dtype=np.int64)
        for idx in np.flatnonzero(self.cycles_by_label).tolist():
            gates = int(self.gates_by_label_set[idx] @ counts)
            stats.add_cycles(self.label_names[idx], int(self.cycles_by_label[idx]), gates)


def _live_rows(gate: np.ndarray, bundle: np.ndarray, local: np.ndarray,
               key: np.ndarray, row: np.ndarray, used: np.ndarray,
               segment: np.ndarray) -> np.ndarray:
    """Which rows replay must run: False for a row whose presets are dead.

    ``gate`` and ``bundle`` are each row's, and ``segment`` each bundle's;
    ``local`` and ``key`` give each table line's tile-local cell and key
    per slot, ``row`` its row and ``used`` the slots it touches, slot 0
    written and the others read. A
    preset is dead when the next bundle that touches its cell overwrites it
    and reads nothing there, so its value is never seen. Replay moves cells
    by whole partitions, so two reference cells can only meet on the
    crossbar if they share a tile-local index. Accesses are therefore
    grouped by local index, and a preset is dead only if the next bundle
    touching that index reads none of its cells and writes the preset's
    own (local, key) - the same cell, moved by the same set's shifts. A
    preset never touched again in its own segment stays live, since
    segments are replayed apart.
    """
    live = gate != GateType.INIT1
    line, slot = np.nonzero(used)
    if not line.shape[0]:
        return live
    cell, key, row, write = local[line, slot], key[line, slot], row[line], slot == 0
    del line, slot
    at = bundle[row]
    order = np.lexsort((key, at, cell))
    cell, key, write, row, at = (a[order] for a in (cell, key, write, row, at))
    del order
    # a group is the accesses of one bundle to one local index
    starts = np.r_[True, (cell[1:] != cell[:-1]) | (at[1:] != at[:-1])]
    group = np.cumsum(starts) - 1
    first = np.flatnonzero(starts)
    reads = np.logical_or.reduceat(~write, first)
    n_keys = int(key.max()) + 1
    writes = (group * n_keys + key)[write]      # sorted, as the accesses are

    preset = np.flatnonzero(~live[row])
    nxt = group[preset] + 1
    dead = nxt < first.shape[0]
    nxt[~dead] = 0
    dead &= cell[first[nxt]] == cell[preset]
    dead &= segment[at[first[nxt]]] == segment[at[preset]]
    dead &= ~reads[nxt]
    wanted = nxt * n_keys + key[preset]
    found = np.minimum(np.searchsorted(writes, wanted), writes.shape[0] - 1)
    dead &= writes[found] == wanted
    live[row[preset[~dead]]] = True
    return live


def freeze(lines: LineTable, labels: list[str], set_ids: list[int],
           config: CrossbarConfig) -> list[FrozenProgram]:
    """Pack a checked line table into kernel rows for ``config``'s tile
    grid, one program per segment of the table, in order: one row per
    run, split where its lines change tile. ``labels`` and ``set_ids``
    give each bundle's label and origin set. Cells are the reference
    instance's; one off the crossbar raises ``AddressError``.

    The lines are located on the tiles once, and the rows and their
    ``live`` flags are read off that (a program reads its ``reach`` off
    its rows); a segment's program is that of its table alone, as no
    preset is found dead across two segments. Replay slices forward along
    a tile's cells, so a run that steps backward there is written from its
    last line. Input slots a gate does not read are copied as the line
    table pads them.
    """
    tiles = PartitionMap(config)
    owner, r, c = lines.run, lines.cells[..., 0], lines.cells[..., 1]
    off = (r < 0) | (r >= tiles.rows) | (c < 0) | (c >= tiles.cols)
    if off.any():
        line, slot = np.argwhere(off)[0]
        raise AddressError(f"cell ({r[line, slot]},{c[line, slot]}) is off a "
                           f"grid of {tiles.rows}x{tiles.cols} cells")
    # each cell's tile, made its (set, tile) key below, and local index;
    # int32 holds both in half the memory
    key, local = (a.astype(np.int32) for a in tiles.locate(r, c))
    set_base = np.asarray(set_ids, dtype=np.int32) * tiles.n_tiles
    key += set_base[lines.bundle[owner], None]
    used = np.arange(3) <= lines.arity[owner, None]

    # a row per run, split where its lines change tile (and so key)
    starts = np.ones(owner.shape[0], dtype=bool)
    starts[1:] = (owner[1:] != owner[:-1]) | (key[1:] != key[:-1]).any(axis=1)
    head = np.flatnonzero(starts)
    count = np.diff(np.r_[head, owner.shape[0]])
    tail = head + count - 1
    gate, bundle = lines.gate[owner[head]], lines.bundle[owner[head]]
    # within a tile, successive lines are one local step apart
    step = local[np.minimum(head + 1, tail), 0] - local[head, 0]
    first = np.where(step < 0, tail, head)
    step = np.where(count > 1, np.abs(step), 1)

    segment_ptr = lines.segment_ptr.tolist()
    segment = np.repeat(np.arange(len(segment_ptr) - 1), np.diff(segment_ptr))
    ptr = np.r_[0, np.cumsum(np.bincount(bundle, minlength=len(labels)))]

    rows = np.empty((head.shape[0], 9), dtype=np.int32)
    rows[:, 0], rows[:, 1], rows[:, 2] = gate, step, (count - 1) * step + 1
    rows[:, 3::2], rows[:, 4::2] = local[first], key[head]
    live = _live_rows(gate, bundle, local, key,
                      (np.cumsum(starts) - 1).astype(np.int32), used, segment)
    programs = []
    for lo, hi in itertools.pairwise(segment_ptr):
        names = sorted(set(labels[lo:hi]))
        index = {name: i for i, name in enumerate(names)}
        programs.append(FrozenProgram(
            rows[ptr[lo]:ptr[hi]], live[ptr[lo]:ptr[hi]], ptr[lo:hi + 1] - ptr[lo],
            np.array([index[name] for name in labels[lo:hi]], dtype=np.uint16),
            np.arange(hi - lo, dtype=np.int32), names, tiles.geometry))
    return programs


def concat(programs: list[FrozenProgram]) -> FrozenProgram:
    """One program that runs the given programs' cycles in turn. Each
    distinct program (by identity) is stored once, and the order runs its
    bundles wherever it appears; ``ValueError`` if they were frozen for
    different geometries."""
    geometry = programs[0].geometry
    if any(p.geometry != geometry for p in programs):
        raise ValueError("cannot concatenate programs of different geometries")
    stored = list({id(p): p for p in programs}.values())
    label_names = sorted({name for p in stored for name in p.label_names})
    row_offsets = np.cumsum([0] + [p.rows.shape[0] for p in stored])
    bundle_offsets = np.cumsum([0] + [p.bundle_label.shape[0] for p in stored])
    first_bundle = {id(p): off for p, off in zip(stored, bundle_offsets.tolist())}
    return FrozenProgram(
        np.concatenate([p.rows for p in stored]),
        np.concatenate([p.live for p in stored]),
        np.concatenate([p.bundle_ptr[:-1] + off for p, off in zip(stored, row_offsets)]
                       + [row_offsets[-1:]]),
        np.concatenate([np.array([label_names.index(name) for name in p.label_names],
                                 dtype=np.uint16)[p.bundle_label] for p in stored]),
        np.concatenate([p.order + np.int32(first_bundle[id(p)]) for p in programs]),
        label_names, geometry)


# --------------------------------------------------------------------- kernel

_GATE_NAMES = [g.name for g in GateType]


def _forms(table: dict) -> np.ndarray:
    """Per gate code, its row of ``table``; ``ValueError`` for a form that
    the kernel compiles no copy of its loops for."""
    for gate, (_, either, invert) in table.items():
        if invert and not either:
            raise ValueError(f"the replay kernel has no copy for {gate.name}'s "
                             "form, an inverted AND")
    return np.array([table[g] for g in GateType], dtype=np.int64)


_FORMS = _forms(GATE_TABLE)


def _unit_axes(program: FrozenProgram, tiles: PartitionMap,
               shifts: list) -> np.ndarray:
    """The unit axis of each key, ``axes[key]`` = (first tile, stride,
    count): the tiles its set's shifts move its tile to, as ids of
    ``PartitionMap``, which are bit places in the crossbar's words.

    Raises ``AddressError`` if a shifted tile, or a cell the program
    touches in it, lies off the crossbar; negative tile indices would
    wrap, so they are checked before indexing. Raises ``ValueError`` if a
    key's tiles are not evenly spaced. ``PartitionMap`` numbers the
    partitions' tiles in unit-id order, so units ``0..n-1`` always give
    evenly spaced tiles.
    """
    keys = np.flatnonzero(program.reach[:, 0] >= 0)
    axes = np.zeros((program.reach.shape[0], 3), dtype=np.int64)
    for s, shift in enumerate(shifts):
        own = keys[keys // tiles.n_tiles == s]
        if not (own.shape[0] and shift.shape[0]):
            continue
        # [key, copy, (tile row, tile column)], and the last cell reached
        at = tiles.places[own % tiles.n_tiles][:, None] + shift
        last = tiles.offset(at) + program.reach[own, None]
        if (at < 0).any() or (last >= (tiles.rows, tiles.cols)).any():
            raise AddressError("a replayed run leaves the crossbar")
        tile, n = tiles.index[at[..., 0], at[..., 1]], shift.shape[0]
        stride = tile[:, 1:2] - tile[:, :1] if n > 1 else np.ones_like(tile)
        if (tile != tile[:, :1] + stride * np.arange(n)).any():
            raise ValueError(f"the shifts of origin set {s} move a key to tiles "
                             "that are not evenly spaced")
        axes[own] = np.column_stack([tile[:, 0], stride[:, 0], np.full(own.shape[0], n)])
    return axes


def _trace_tails(program: FrozenProgram, tiles: PartitionMap,
                 skipping: bool) -> list[str]:
    """Each stored bundle's trace record after its cycle number, with a
    ``skipped`` list of its dead rows when ``skipping``; built once per
    program and kind, then reused by every traced replay."""
    tails = program.trace_tails.get(skipping)
    if tails is not None:
        return tails
    rows = program.rows.astype(np.int64)
    gate, step, span = rows[:, 0], rows[:, 1], rows[:, 2]
    # cells on the reference instance, [row, slot]
    r, c = tiles.cell(rows[:, 4::2] % tiles.n_tiles, rows[:, 3::2])
    count = (span - 1) // step + 1
    # runs never leave their tile, so the next cell's offset is the step
    r2, c2 = tiles.cell(rows[:, 4] % tiles.n_tiles, rows[:, 3] + step)
    sr = np.where(count > 1, r2 - r[:, 0], 0)
    sc = np.where(count > 1, c2 - c[:, 0], 0)
    names = [json.dumps(name) for name in _GATE_NAMES]
    arity = _FORMS[:, 0].tolist()
    events = [
        f"[{names[g]}, {n}, [{dr}, {dc}], [{ro}, {co}], "
        + ("[]", f"[[{ra}, {ca}]]", f"[[{ra}, {ca}], [{rb}, {cb}]]")[arity[g]]
        + "]"
        for g, n, dr, dc, (ro, ra, rb), (co, ca, cb) in zip(
            gate.tolist(), count.tolist(), sr.tolist(), sc.tolist(),
            r.tolist(), c.tolist())]

    ptr = program.bundle_ptr.tolist()
    labels = [json.dumps(name) for name in program.label_names]
    # a bundle never mixes sets
    sets = (rows[:, 4] // tiles.n_tiles).tolist()
    skipped: dict[int, list[int]] = {}
    if skipping:
        dead = np.flatnonzero(~program.live)
        owner = np.searchsorted(program.bundle_ptr, dead, side="right") - 1
        for b, row in zip(owner.tolist(), dead.tolist()):
            skipped.setdefault(b, []).append(row - ptr[b])
    tails = []
    for b, label in enumerate(program.bundle_label.tolist()):
        lo, hi = ptr[b], ptr[b + 1]
        tail = (f', "label": {labels[label]}, "set": '
                f'{sets[lo] if hi > lo else 0}, "events": '
                f'[{", ".join(events[lo:hi])}]')
        if b in skipped:
            tail += f', "skipped": {skipped[b]}'
        tails.append(tail + "}\n")
    program.trace_tails[skipping] = tails
    return tails


def _write_trace(program: FrozenProgram, stream, tiles: PartitionMap,
                 shifts: list, first_cycle: int, skipping: bool) -> None:
    """A header with each set's shifts in cells, then one record per bundle
    listing the frozen rows it ran as events of the reference instance,
    and which of them it skipped as dead presets."""
    offsets = [tiles.offset(shift).tolist() for shift in shifts]
    stream.write(json.dumps({"trace_schema": 3, "shifts": offsets}) + "\n")
    tails = _trace_tails(program, tiles, skipping)
    stream.writelines(f'{{"cycle": {cycle}{tails[bundle]}' for cycle, bundle in
                      enumerate(program.order.tolist(), first_cycle))


def trace_ops(lines):
    """Expand a trace (schema 3) back to per-op form.

    Yields ``(cycle, label, [(gate, inputs, output), ...])`` per record,
    with every event's cells moved by each shift of the record's set.
    Events a record lists as ``skipped`` are expanded too: they are the
    bundle's own ops, and the model charges them.
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
           per_set: list[np.ndarray]) -> None:
    """Run a frozen program on a crossbar, charge its stats and trace it.

    ``per_set[s]`` is an integer array of shape [n, 2]: the n copies of
    origin set ``s``, each as the (partition rows, partition columns) it
    moves the reference instance by, no shift listed twice. Anything else,
    and a program frozen for another geometry, raises ``ValueError``. A
    shift that moves a cell off the crossbar raises ``AddressError``, and a
    set that moves a key to tiles of ``PartitionMap`` that are not evenly
    spaced (units 0, 2 and 3, say) raises ``ValueError``, both before any
    bundle runs; ``deltas_for(range(n))`` never does. The kernel reads the
    program's arrays as they are, checked when the program was built, and
    runs in place on the crossbar's ``state`` and ``initialized`` words. The
    initialized map is only maintained, and reads of never-written cells
    only rejected, when ``crossbar.config.strict_init`` is set; then every
    row runs, and a rejected read raises ``StrictInitError`` and leaves the
    grids holding every bundle before the one that read. Otherwise only the
    live rows run, which leaves the same grid. With a stream attached by
    ``Crossbar.attach_trace``, a header and one record per bundle are
    written after the kernel returns: the frozen rows of the bundle, as
    events of the reference instance (``trace_ops`` expands them), and the
    ones it skipped as dead presets. Traced and untraced runs execute the
    same kernel.
    """
    shifts = [np.asarray(s) for s in per_set]
    if len(shifts) != NUM_ORIGIN_SETS or any(
            s.shape[1:] != (2,) or s.dtype.kind not in "iu"
            or len(set(map(tuple, s.tolist()))) < s.shape[0] for s in shifts):
        raise ValueError(f"replay takes {NUM_ORIGIN_SETS} integer arrays of "
                         "shape [n, 2], one distinct (partition rows, "
                         "partition columns) shift per copy")
    shifts = [s.astype(np.int64) for s in shifts]
    tiles = crossbar.partition_map
    if program.geometry != tiles.geometry:
        raise ValueError(f"a program frozen for geometry {program.geometry} "
                         f"cannot replay on {tiles.geometry}")
    library, state, init, _ = crossbar.addresses()
    axes = _unit_axes(program, tiles, shifts)
    if not crossbar.config.strict_init:     # the init words: strict mode only
        init = None
    fail = np.zeros(4, dtype=np.int64)
    failed = library.run_rows(state, init, tiles.words, program.rows.ctypes.data,
                              program.live.ctypes.data, program.bundle_ptr.ctypes.data,
                              program.order.ctypes.data, program.n_bundles,
                              _FORMS.ctypes.data, axes.ctypes.data, fail.ctypes.data)
    if failed:
        row, _, local, tile = fail.tolist()
        r, c = tiles.cell(tile, local)
        raise StrictInitError(f"{GateType(int(program.rows[row, 0])).name} reads "
                              f"uninitialized cell ({r},{c})")

    program.charge(crossbar.stats, [s.shape[0] for s in shifts])
    if crossbar.trace is not None:
        # the charge added a cycle per bundle
        _write_trace(program, crossbar.trace, tiles, shifts,
                     crossbar.stats.cycles - program.n_bundles + 1,
                     skipping=init is None)
