"""Randomized macro-stream generator and bundled-vs-serial equivalence check.

Used by the scheduler unit tests and, at full volume, by the acceptance
suite: scheduled execution must leave the grid exactly as executing every
expanded micro-op of every line one per cycle, every emitted bundle must
pass the legality check and hold one merged region and one line pattern,
every gate must write a freshly preset cell (the preset rule), and a
stream of runs must schedule to the bundles its one-line macros schedule
to.
"""

import random

import numpy as np

from sha3pim.crossbar import (GATE_NUM_INPUTS, Crossbar, CrossbarConfig,
                              CycleBundle, GateType, IN_COL, IN_ROW,
                              line_pattern, shift)
from sha3pim.scheduler import (SCRATCH_NEEDS, MacroKind, MacroOp, OpStream,
                               check_presets, expand, schedule)

GRID = 16
KINDS = [MacroKind.XOR2, GateType.NOT, GateType.NOR2, GateType.OR2,
         GateType.AND2, GateType.INIT1]
NUM_INPUTS = {MacroKind.XOR2: 2, **GATE_NUM_INPUTS}


def small_crossbar() -> Crossbar:
    config = CrossbarConfig(rows=GRID, cols=GRID, horizontal_partitions=2,
                            vertical_partitions=2, unit_rows=8, unit_cols=8)
    return Crossbar(config)


def random_stream(rng: random.Random) -> OpStream:
    """Groups of independent macros on disjoint cells, barrier-separated."""
    stream = OpStream()
    for _ in range(rng.randint(1, 4)):
        used: set = set()
        for _ in range(rng.randint(1, 6)):
            macro = _place_macro(rng, used)
            if macro is not None:
                stream.append(macro)
        stream.barrier()
    return stream


def _place_macro(rng: random.Random, used: set) -> MacroOp | None:
    """A run of 1-4 lines inside one partition, its stride perpendicular
    to the line."""
    kind = rng.choice(KINDS)
    need = NUM_INPUTS[kind] + 1 + SCRATCH_NEEDS.get(kind, 0)
    orientation = rng.choice((IN_ROW, IN_COL))
    count, step = rng.randint(1, 4), rng.choice((1, 2, -1))
    stride = (step, 0) if orientation == IN_ROW else (0, step)
    for _ in range(20):
        part_r, part_c = rng.randint(0, 1) * 8, rng.randint(0, 1) * 8
        if orientation == IN_ROW:
            line = part_r + rng.randint(0, 7)
            candidates = [(line, part_c + i) for i in range(8)]
        else:
            line = part_c + rng.randint(0, 7)
            candidates = [(part_r + i, line) for i in range(8)]
        if (line + (count - 1) * step) // 8 != line // 8:
            continue
        runs = {cell: [(cell[0] + k * stride[0], cell[1] + k * stride[1])
                       for k in range(count)] for cell in candidates}
        free = [c for c in candidates if not used.intersection(runs[c])]
        if len(free) < need:
            continue
        cells = rng.sample(free, need)
        used.update(cell for c in cells for cell in runs[c])
        n_in = NUM_INPUTS[kind]
        scratch = tuple(cells[n_in + 1:]) or None
        return MacroOp(kind, tuple(cells[:n_in]), cells[n_in],
                       scratch=scratch, count=count, stride=stride)
    return None


def one_line_macros(stream: OpStream) -> OpStream:
    """``stream`` with every run split into its one-line macros."""
    split = OpStream(stream.label)
    for group in stream.groups():
        for macro in group:
            n = len(macro.inputs)
            for k in range(macro.count):
                cells = shift(macro.inputs + (macro.output,)
                              + (macro.scratch or ()), k, macro.stride)
                split.append(MacroOp(macro.kind, cells[:n], cells[n],
                                     cells[n + 1:] or None, macro.switches))
        split.barrier()
    return split


def bundle_cells(bundles) -> list[set]:
    """Each bundle as the set of (gate, inputs, output) of its lines."""
    return [{(op.gate, op.inputs, op.output) for op in bundle.lines()}
            for bundle in bundles]


def check_equivalence(rng: random.Random) -> int:
    """One trial; returns the number of scheduled bundles."""
    stream = random_stream(rng)
    initial = np.array([[rng.randint(0, 1) for _ in range(GRID)]
                        for _ in range(GRID)], dtype=np.uint8)

    serial = small_crossbar()
    serial.load(initial, np.ones_like(initial))
    for group in one_line_macros(stream).groups():
        for macro in group:
            for stage in expand(macro):
                for op in stage:
                    serial.execute_bundle(CycleBundle([op]), check=False)

    bundled = small_crossbar()
    bundled.load(initial, np.ones_like(initial))
    program = schedule(stream, bundled)
    # one check of the emitted bundles, on a line table built from them
    ok, violations = bundled.check_bundle(program.bundles)
    assert ok, f"illegal bundle emitted: {violations}"
    partitions = bundled.partition_map
    for bundle, label in zip(program.bundles, program.labels):
        keys = {(partitions.region_of(op.output, bundle.closed_switches),
                 line_pattern(op)) for op in bundle.ops}
        assert len(keys) == 1, f"bundle spans regions or patterns: {keys}"
        bundled.execute_bundle(bundle, label=label, check=False)
    check_presets(program.lines)

    assert np.array_equal(serial.cells(), bundled.cells()), \
        "scheduled execution diverged from serial execution"
    one_line = schedule(one_line_macros(stream), small_crossbar())
    assert bundle_cells(one_line.bundles) == bundle_cells(program.bundles), \
        "runs scheduled to other bundles than their one-line macros"
    return len(program.bundles)
