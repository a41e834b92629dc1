"""Fast replay of frozen gate programs.

Microcode is generated and legality-checked once at the object level, then
frozen into flat numpy arrays. Hashing replays those arrays millions of
times, so replay is the hot loop: the default backend runs it through numba
``@njit`` kernels, with a pure-numpy per-bundle path as fallback. The numpy
path looks every output up in ``crossbar.GATE_TRUTH``; the numba kernels
spell out the same gates.

Select the backend with the ``SHA3PIM_BACKEND`` environment variable
(``numba`` or ``numpy``); numba is used when importable unless overridden.

Freezing exploits the bundle structure: a legal bundle replicates one gate
pattern along a line, so its ops collapse into *vector events* - (gate,
base cells, count, stride) - and the kernels loop over cells without
touching per-cell metadata. Cell addresses are flat indices relative to a
reference instance; replay adds per-origin deltas, so one frozen program
serves any set of hash units. Events carry an *origin set* id (0 = per
active unit, 1 = per partition row, 2 = per partition column) and each set
supplies its own delta list at run time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .crossbar import (
    GATE_NUM_INPUTS,
    GATE_TRUTH,
    Crossbar,
    CycleBundle,
    GateType,
    StrictInitError,
)

ENV_BACKEND = "SHA3PIM_BACKEND"

try:
    from numba import njit
    HAVE_NUMBA = True
except ImportError:      # pragma: no cover - numba is an optional extra
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn
        return wrap if not (args and callable(args[0])) else args[0]


_backend: str | None = None


def default_backend() -> str:
    choice = os.environ.get(ENV_BACKEND, "").strip().lower()
    if choice in ("numba", "numpy"):
        if choice == "numba" and not HAVE_NUMBA:
            raise RuntimeError("SHA3PIM_BACKEND=numba but numba is not importable")
        return choice
    return "numba" if HAVE_NUMBA else "numpy"


def active_backend() -> str:
    global _backend
    if _backend is None:
        _backend = default_backend()
    return _backend


def set_backend(name: str) -> None:
    """Override the backend in-process (used by tests and the benchmark)."""
    global _backend
    if name not in ("numba", "numpy"):
        raise ValueError(f"unknown backend {name!r}")
    if name == "numba" and not HAVE_NUMBA:
        raise RuntimeError("numba backend requested but numba is not importable")
    _backend = name


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


def _bundle_vector_events(bundle: CycleBundle) -> list[tuple]:
    """Collapse a bundle into (gate, count, stride, out, in1, in2, in3) runs.

    Ops are grouped by gate and input-to-output offsets (constant within an
    aligned pattern), sorted by output cell, and split at stride breaks.
    Order inside a bundle is free: legal bundles are conflict-free.
    """
    groups: dict[tuple, list[tuple[int, ...]]] = {}
    for op in bundle.ops:
        cells = [op.output] + list(op.inputs)
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
            events.append((gate, len(run),
                           (run[1][0] - run[0][0], run[1][1] - run[0][1])
                           if len(run) > 1 else (0, 0),
                           run[0], deltas))
    return events


def freeze(bundles: list[CycleBundle], labels: list[str], set_ids: list[int],
           cols: int) -> FrozenProgram:
    """Pack checked bundles into flat replay arrays.

    ``set_ids`` gives each bundle's origin set. Coordinates must already be
    those of the reference instance (deltas are applied at run time).
    """
    per_bundle = [_bundle_vector_events(b) for b in bundles]
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


# -------------------------------------------------------------- numba kernels

@njit(cache=True)
def _replay_numba(gate, count, stride, out, in1, in2, in3, set_id,
                  set_ptr, deltas, grid):
    for e in range(gate.shape[0]):
        g = gate[e]
        cnt = count[e]
        st = stride[e]
        for k in range(set_ptr[set_id[e]], set_ptr[set_id[e] + 1]):
            d = deltas[k]
            o = out[e] + d
            if g == 1:                                   # INIT1
                for i in range(cnt):
                    grid[o + i * st] = 1
            elif g == 6:                                 # AND2
                a = in1[e] + d
                b = in2[e] + d
                for i in range(cnt):
                    grid[o + i * st] = grid[a + i * st] & grid[b + i * st]
            elif g == 5:                                 # OR2
                a = in1[e] + d
                b = in2[e] + d
                for i in range(cnt):
                    grid[o + i * st] = grid[a + i * st] | grid[b + i * st]
            elif g == 3:                                 # NOR2
                a = in1[e] + d
                b = in2[e] + d
                for i in range(cnt):
                    grid[o + i * st] = (grid[a + i * st] | grid[b + i * st]) ^ 1
            elif g == 2:                                 # NOT
                a = in1[e] + d
                for i in range(cnt):
                    grid[o + i * st] = grid[a + i * st] ^ 1
            elif g == 0:                                 # INIT0
                for i in range(cnt):
                    grid[o + i * st] = 0
            elif g == 4:                                 # NOR3
                a = in1[e] + d
                b = in2[e] + d
                c = in3[e] + d
                for i in range(cnt):
                    grid[o + i * st] = (grid[a + i * st] | grid[b + i * st]
                                        | grid[c + i * st]) ^ 1
            else:                                        # COPY
                a = in1[e] + d
                for i in range(cnt):
                    grid[o + i * st] = grid[a + i * st]


@njit(cache=True)
def _replay_numba_strict(gate, count, stride, out, in1, in2, in3, set_id,
                         set_ptr, deltas, grid, init):
    for e in range(gate.shape[0]):
        g = gate[e]
        cnt = count[e]
        st = stride[e]
        for k in range(set_ptr[set_id[e]], set_ptr[set_id[e] + 1]):
            d = deltas[k]
            o = out[e] + d
            if g > 1:
                a = in1[e] + d
                for i in range(cnt):
                    if not init[a + i * st]:
                        return e
                if 3 <= g <= 6:
                    b = in2[e] + d
                    for i in range(cnt):
                        if not init[b + i * st]:
                            return e
                if g == 4:
                    c = in3[e] + d
                    for i in range(cnt):
                        if not init[c + i * st]:
                            return e
            if g == 1:
                for i in range(cnt):
                    grid[o + i * st] = 1
            elif g == 0:
                for i in range(cnt):
                    grid[o + i * st] = 0
            elif g == 2:
                a = in1[e] + d
                for i in range(cnt):
                    grid[o + i * st] = grid[a + i * st] ^ 1
            elif g == 6:
                a = in1[e] + d
                b = in2[e] + d
                for i in range(cnt):
                    grid[o + i * st] = grid[a + i * st] & grid[b + i * st]
            elif g == 5:
                a = in1[e] + d
                b = in2[e] + d
                for i in range(cnt):
                    grid[o + i * st] = grid[a + i * st] | grid[b + i * st]
            elif g == 3:
                a = in1[e] + d
                b = in2[e] + d
                for i in range(cnt):
                    grid[o + i * st] = (grid[a + i * st] | grid[b + i * st]) ^ 1
            elif g == 4:
                a = in1[e] + d
                b = in2[e] + d
                c = in3[e] + d
                for i in range(cnt):
                    grid[o + i * st] = (grid[a + i * st] | grid[b + i * st]
                                        | grid[c + i * st]) ^ 1
            else:
                a = in1[e] + d
                for i in range(cnt):
                    grid[o + i * st] = grid[a + i * st]
            for i in range(cnt):
                init[o + i * st] = 1
    return -1


# --------------------------------------------------------------- numpy driver

def _bundle_sets(program: FrozenProgram) -> np.ndarray:
    """Origin set of each bundle (bundles never mix sets)."""
    first = program.bundle_ptr[:-1]
    n = program.n_bundles
    sets = np.zeros(n, dtype=np.uint8)
    nonempty = program.bundle_ptr[1:] > first
    sets[nonempty] = program.set_id[first[nonempty]]
    return sets


def _cell_indices(program: FrozenProgram, lo: int, hi: int, base: np.ndarray,
                  deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell flat indices and gate codes for events [lo, hi) x deltas."""
    idx_parts = []
    gate_parts = []
    for e in range(lo, hi):
        cells = base[e] + program.stride[e] * np.arange(program.count[e],
                                                        dtype=np.int64)
        idx_parts.append((cells[None, :] + deltas[:, None]).ravel())
        gate_parts.append(np.full(cells.shape[0] * deltas.shape[0],
                                  program.gate[e], dtype=np.uint8))
    return np.concatenate(idx_parts), np.concatenate(gate_parts)


def _replay_numpy(program: FrozenProgram, deltas_by_set: list[np.ndarray],
                  grid: np.ndarray, init: np.ndarray | None) -> None:
    """Per-bundle vectorized replay; optional init tracking."""
    sets = _bundle_sets(program)
    for b in range(program.n_bundles):
        lo = int(program.bundle_ptr[b])
        hi = int(program.bundle_ptr[b + 1])
        if hi == lo:
            continue
        deltas = deltas_by_set[sets[b]]
        out_idx, gates = _cell_indices(program, lo, hi, program.out, deltas)

        def gather(base_arr):
            idx, _ = _cell_indices(program, lo, hi, base_arr, deltas)
            used = idx >= 0
            safe = np.where(used, idx, 0)
            if init is not None:
                bad = used & (init[safe] == 0)
                if bad.any():
                    flat = int(safe[np.argmax(bad)])
                    raise StrictInitError(
                        f"gate read uninitialized cell "
                        f"({flat // program.cols},{flat % program.cols})")
            return grid[safe]

        # unused operand slots read cell 0, which the truth table ignores
        pattern = (gates << 3 | gather(program.in1) << 2
                   | gather(program.in2) << 1 | gather(program.in3))
        grid[out_idx] = np.take(GATE_TRUTH, pattern)
        if init is not None:
            init[out_idx] = 1


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
    set ``s``. The initialized map is only maintained, and reads of
    never-written cells only rejected, when ``crossbar.config.strict_init``
    is set. With a stream attached by ``Crossbar.attach_trace``, one record
    per bundle is written after the kernel returns, read back from the
    frozen arrays, so traced and untraced runs execute the same kernel.
    """
    strict = crossbar.config.strict_init
    grid = crossbar.state.reshape(-1)
    init = crossbar.initialized.reshape(-1)
    deltas_by_set = [np.asarray(d, dtype=np.int64) for d in deltas_by_set]
    assert len(deltas_by_set) == NUM_ORIGIN_SETS
    first_cycle = crossbar.stats.cycles + 1

    if active_backend() == "numpy":
        _replay_numpy(program, deltas_by_set, grid, init if strict else None)
    else:
        set_ptr = np.zeros(NUM_ORIGIN_SETS + 1, dtype=np.int64)
        for s in range(NUM_ORIGIN_SETS):
            set_ptr[s + 1] = set_ptr[s] + deltas_by_set[s].shape[0]
        deltas = np.concatenate(deltas_by_set) if set_ptr[-1] else \
            np.zeros(0, dtype=np.int64)
        if strict:
            bad = _replay_numba_strict(program.gate, program.count, program.stride,
                                       program.out, program.in1, program.in2,
                                       program.in3, program.set_id,
                                       set_ptr, deltas, grid, init)
            if bad >= 0:
                raise StrictInitError(
                    f"{GateType(int(program.gate[bad])).name} event {bad} read an "
                    "uninitialized cell")
        else:
            _replay_numba(program.gate, program.count, program.stride,
                          program.out, program.in1, program.in2, program.in3,
                          program.set_id, set_ptr, deltas, grid)

    program.charge(crossbar.stats, [d.shape[0] for d in deltas_by_set])
    if crossbar.trace is not None:
        _write_trace(program, crossbar, deltas_by_set, first_cycle)
