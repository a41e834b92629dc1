"""Frozen-program replay: freezing, strict mode, stats, trace, oracle."""

import dataclasses
import io
import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sha3pim import engine
from sha3pim.crossbar import (
    GATE_NUM_INPUTS,
    GATE_TABLE,
    AddressError,
    IN_COL,
    IN_ROW,
    Crossbar,
    CrossbarConfig,
    CycleBundle,
    GateType,
    MicroOp,
    PartitionMap,
    StrictInitError,
    line_table,
)
from sha3pim.scheduler import MacroOp, OpStream, schedule
from stream_props import random_stream, small_crossbar


def freeze_stream(stream, xbar):
    program = schedule(stream, xbar)
    [frozen] = engine.freeze(program.lines, program.labels,
                             [engine.SET_UNIT] * len(program.bundles), xbar.config)
    return frozen, program


NO_COPIES = np.zeros((0, 2), dtype=np.int64)


def unit_shifts(*partitions):
    """Replay's shifts for copies of the unit set at each (partition row,
    partition column) shift, and no copies of the other sets."""
    return [np.array(partitions, dtype=np.int64), NO_COPIES, NO_COPIES]


def partition_shifts(cell_shifts, config):
    """Each set's cell offsets, all whole partitions, as replay's shifts."""
    unit = (config.unit_rows, config.unit_cols)
    return [np.array(s, dtype=np.int64).reshape(-1, 2) // unit
            for s in cell_shifts]


def test_replay_matches_object_execution():
    rng = random.Random(77)
    for trial in range(40):
        stream = random_stream(rng)
        initial = np.array([[rng.randint(0, 1) for _ in range(16)]
                            for _ in range(16)], dtype=np.uint8)

        object_xbar = small_crossbar()
        object_xbar.load(initial, np.ones_like(initial))
        frozen, program = freeze_stream(stream, object_xbar)
        for bundle, label in zip(program.bundles, program.labels):
            object_xbar.execute_bundle(bundle, label=label, check=False)

        replay_xbar = small_crossbar()
        replay_xbar.load(initial, np.ones_like(initial))
        engine.replay(frozen, replay_xbar, unit_shifts((0, 0)))

        assert np.array_equal(object_xbar.cells(), replay_xbar.cells()), trial
        assert replay_xbar.stats.cycles == object_xbar.stats.cycles
        assert replay_xbar.stats.gate_executions == object_xbar.stats.gate_executions


def test_origin_replication():
    # one NOT replayed at two unit origins in different partitions
    xbar = small_crossbar()
    state = np.zeros((16, 16), dtype=np.uint8)
    state[0, 1] = 1
    xbar.load(state, np.ones_like(state))
    stream = OpStream()
    stream.append(MacroOp(GateType.NOT, ((0, 1),), (0, 0)))
    frozen, _ = freeze_stream(stream, xbar)
    engine.replay(frozen, xbar, unit_shifts((0, 0), (1, 1)))
    assert xbar.cells()[0, 0] == 0
    assert xbar.cells()[8, 8] == 1
    # 2 bundles x 2 units: 2 cycles, 4 gate executions
    assert xbar.stats.cycles == 2
    assert xbar.stats.gate_executions == 4


def test_vector_event_compression():
    # a run of row-parallel ops is a single event: one row whose run steps
    # down the 8-column tile one row at a time
    xbar = small_crossbar()
    run = MicroOp(GateType.NOR2, ((0, 1), (0, 2)), (0, 0), count=8, stride=(1, 0))
    [frozen] = engine.freeze(line_table([CycleBundle([run])]), ["main"],
                             [engine.SET_UNIT], xbar.config)
    assert frozen.n_events == 1
    gate, step, span = frozen.rows[0, :3].tolist()
    assert (gate, step) == (GateType.NOR2, 8)
    assert len(range(0, span, step)) == 8
    assert frozen.n_gate_executions == 8
    # rows 0-15 span two tiles of 8 rows: one row per tile
    run = MicroOp(GateType.NOR2, ((0, 1), (0, 2)), (0, 0), count=16, stride=(1, 0))
    [frozen] = engine.freeze(line_table([CycleBundle([run])]), ["main"],
                             [engine.SET_UNIT], xbar.config)
    assert frozen.n_events == 2
    for gate, step, span in frozen.rows[:, :3].tolist():
        assert (gate, step, len(range(0, span, step))) == (GateType.NOR2, 8, 8)
    assert frozen.rows[0, 4] != frozen.rows[1, 4]      # the two output tiles
    assert frozen.n_gate_executions == 16
    # freeze keeps the scheduler's runs: eight one-line ops stay eight rows
    [frozen] = engine.freeze(line_table([CycleBundle(run.lines()[:8])]), ["main"],
                             [engine.SET_UNIT], xbar.config)
    assert frozen.n_events == 8
    assert frozen.n_gate_executions == 8


def test_unused_input_slots_repeat_the_slot_before():
    # a slot past the gate's arity repeats the slot before it, or the
    # output for a preset, in the line table and in the frozen rows alike
    config = small_crossbar().config
    bundles = [
        CycleBundle([MicroOp(GateType.NOT, ((1, 2),), (1, 3), count=4, stride=(1, 0))]),
        CycleBundle([MicroOp(GateType.INIT1, (), (9, 11), count=4, stride=(1, 0))])]
    lines = line_table(bundles)
    negate, preset = lines.cells[lines.run == 0], lines.cells[lines.run == 1]
    assert (negate[:, 2] == negate[:, 1]).all()
    assert (negate[:, 1] != negate[:, 0]).any()
    assert (preset[:, 1:] == preset[:, :1]).all()
    [frozen] = engine.freeze(lines, ["main"] * 2, [engine.SET_UNIT] * 2, config)
    negate, preset = frozen.rows.tolist()
    assert (negate[0], preset[0]) == (GateType.NOT, GateType.INIT1)
    assert negate[7:9] == negate[5:7] != negate[3:5]
    assert preset[7:9] == preset[5:7] == preset[3:5] != [0, 0]
    state = np.random.default_rng(5).integers(0, 2, (16, 16), dtype=np.uint8)
    oracle, xbar = Crossbar(config), Crossbar(config)
    for crossbar in (oracle, xbar):
        crossbar.load(state, np.ones_like(state))
    for bundle in bundles:
        oracle.execute_bundle(bundle)
    engine.replay(frozen, xbar, unit_shifts((0, 0)))
    assert np.array_equal(xbar.cells(), oracle.cells())


@pytest.mark.parametrize("run", [
    MicroOp(GateType.NOR2, ((7, 1), (7, 2)), (7, 0), count=8, stride=(-1, 0)),
    MicroOp(GateType.NOR2, ((1, 7), (2, 7)), (0, 7), count=8, stride=(0, -1)),
], ids=["rows-up", "cols-left"])
def test_backward_run_is_one_forward_row(run):
    # replay slices forward, so a run that steps back along the tile's
    # cells is written from its last line
    config = small_crossbar().config
    bundles = [CycleBundle([run])]
    [frozen] = engine.freeze(line_table(bundles), ["main"], [engine.SET_UNIT], config)
    assert frozen.n_events == 1
    assert frozen.rows[0, 1] > 0
    assert frozen.n_gate_executions == 8
    state = np.random.default_rng(3).integers(0, 2, (16, 16), dtype=np.uint8)
    oracle, xbar = Crossbar(config), Crossbar(config)
    for crossbar in (oracle, xbar):
        crossbar.load(state, np.ones_like(state))
    oracle.execute_bundle(bundles[0])
    engine.replay(frozen, xbar, unit_shifts((0, 0)))
    assert np.array_equal(xbar.cells(), oracle.cells())
    assert xbar.stats.as_dict() == oracle.stats.as_dict()


def test_strict_mode_catches_uninitialized_read():
    xbar = small_crossbar(); xbar.config.strict_init = True
    state = np.zeros((16, 16), dtype=np.uint8)
    state[0, 1] = 1
    xbar.load(state)
    stream = OpStream()
    stream.append(MacroOp(GateType.NOT, ((0, 1),), (0, 0)))
    frozen, _ = freeze_stream(stream, xbar)     # INIT1 (0,0), then NOT
    assert frozen.n_bundles == 2
    with pytest.raises(StrictInitError, match=r"\(0,1\)"):
        engine.replay(frozen, xbar, unit_shifts((0, 0)))
    # the preset bundle ran and the bundle that read (0,1) did not
    expected = np.zeros((16, 16), dtype=np.uint8)
    expected[0, 0] = 1
    assert np.array_equal(xbar.cells(initialized=True), expected)
    expected[0, 1] = 1                  # the unwritten input's value
    assert np.array_equal(xbar.cells(), expected)
    xbar.load(xbar.cells(), expected)
    engine.replay(frozen, xbar, unit_shifts((0, 0)))
    assert xbar.cells()[0, 0] == 0


def test_preset_that_is_read_runs():
    # (0,0) is only preset, then read: a constant 1 whose preset must run;
    # NOT's own preset of (0,1) is overwritten unread, and the preset of
    # (0,12) is never touched again, so it must run too
    stream = OpStream()
    stream.append(MacroOp(GateType.INIT1, (), (0, 0)))
    stream.append(MacroOp(GateType.INIT1, (), (0, 12)))
    stream.barrier()
    stream.append(MacroOp(GateType.NOT, ((0, 0),), (0, 1)))
    oracle, xbar = small_crossbar(), small_crossbar()
    frozen, program = freeze_stream(stream, xbar)
    assert [[op.output for op in b.ops] for b in program.bundles] == [
        [(0, 0)], [(0, 12)], [(0, 1)], [(0, 1)]]
    assert frozen.live.tolist() == [True, True, False, True]
    for bundle in program.bundles:
        oracle.execute_bundle(bundle)
    engine.replay(frozen, xbar, unit_shifts((0, 0), (1, 0)))
    cells, oracle_cells = xbar.cells(), oracle.cells()
    assert np.array_equal(cells[:8], oracle_cells[:8])
    assert np.array_equal(cells[8:], oracle_cells[:8])
    assert cells[0, [0, 1, 12]].tolist() == [1, 0, 1]


def test_preset_another_set_reads_runs():
    # the unit set presets (0,0) on both units; the partition-row set reads
    # the second unit's copy, (8,0), before the gate overwrites (0,0), so
    # the preset is seen although its own reference cell is not read
    config = small_crossbar().config
    bundles = [CycleBundle([MicroOp(GateType.INIT1, (), (0, 0))]),
               CycleBundle([MicroOp(GateType.NOT, ((8, 0),), (8, 1))]),
               CycleBundle([MicroOp(GateType.NOT, ((0, 2),), (0, 0))])]
    set_ids = [engine.SET_UNIT, engine.SET_PARTITION_ROW, engine.SET_UNIT]
    [frozen] = engine.freeze(line_table(bundles), ["a"] * 3, set_ids, config)
    assert frozen.live.tolist() == [True, True, True]
    xbar = Crossbar(config)
    engine.replay(frozen, xbar, [np.array([[0, 0], [1, 0]]), np.array([[0, 0]]),
                                 NO_COPIES])
    assert xbar.cells()[8, 1] == 0          # NOT of the preset 1


def test_trace_lists_the_skipped_presets():
    stream = OpStream()
    stream.append(MacroOp(GateType.NOT, ((0, 1),), (0, 0)))
    for strict, skipped in ((False, [0]), (True, None)):
        xbar = small_crossbar()
        xbar.config.strict_init = strict
        xbar.load(xbar.cells(), np.ones((16, 16)))
        trace = io.StringIO()
        xbar.attach_trace(trace)
        frozen, _ = freeze_stream(stream, xbar)
        engine.replay(frozen, xbar, unit_shifts((0, 0)))
        header, preset, gate = map(json.loads, trace.getvalue().splitlines())
        assert header["trace_schema"] == 3
        assert preset.get("skipped") == skipped
        assert "skipped" not in gate


@pytest.mark.parametrize("output, input_", [((1, -1), (1, 2)), ((1, 14), (1, 2)),
                                            ((-1, 3), (-1, 5)), ((1, 2), (1, 14)),
                                            ((11, 3), (11, 5))],
                         ids=["output-left", "output-right", "output-above",
                              "input-right", "output-below"])
def test_freeze_rejects_cells_off_the_grid(output, input_):
    # each op has a cell off the 11 x 14 grid; row 11 lies in the padding
    # of the remainder tiles
    op = MicroOp(GateType.NOT, (input_,), output)
    with pytest.raises(AddressError, match="off a grid"):
        engine.freeze(line_table([CycleBundle([op])]), ["a"], [engine.SET_UNIT],
                      CrossbarConfig(**ORACLE_GEOMETRY))


def test_concat_preserves_counts():
    xbar = small_crossbar()
    stream = OpStream("a")
    stream.append(MacroOp(GateType.NOT, ((0, 1),), (0, 0)))
    f1, _ = freeze_stream(stream, xbar)
    stream2 = OpStream("b")
    stream2.append(MacroOp(GateType.NOT, ((1, 1),), (1, 0)))
    f2, _ = freeze_stream(stream2, xbar)
    whole = engine.concat([f1, f2, f1])
    assert whole.n_bundles == 6
    assert whole.n_gate_executions == 6
    assert whole.label_names == ["a", "b"]
    assert whole.cycles_by_label.tolist() == [4, 2]


def test_concat_refuses_programs_of_different_geometries():
    # a key names a tile of its own grid, so rows of two grids cannot mix
    op = MicroOp(GateType.NOT, ((0, 1),), (0, 0))
    frozen = [program for config in (CrossbarConfig(), CrossbarConfig(
                  rows=300, cols=200, vertical_partitions=3, horizontal_partitions=2))
              for program in engine.freeze(line_table([CycleBundle([op])]), ["a"],
                                           [engine.SET_UNIT], config)]
    with pytest.raises(ValueError, match="different geometries"):
        engine.concat(frozen)


def test_charges_follow_the_rows():
    # a program's charges are read off its rows, so a row cut from a 4-line
    # run to 2 lines charges 2 gate executions fewer, per copy
    config = small_crossbar().config
    runs = [MicroOp(GateType.NOT, ((0, 2),), (0, 3), count=4, stride=(1, 0)),
            MicroOp(GateType.NOR2, ((1, 1), (1, 2)), (1, 4), count=4, stride=(1, 0))]
    [frozen] = engine.freeze(line_table([CycleBundle([run]) for run in runs]),
                             ["a", "b"], [engine.SET_UNIT] * 2, config)
    rows = frozen.rows.copy()
    assert rows[0, 1:3].tolist() == [8, 25]             # 4 lines, 8 cells apart
    rows[0, 2] = 9
    cut = dataclasses.replace(frozen, rows=rows)
    assert cut.gates_by_label_set.tolist() == [[2, 0, 0], [4, 0, 0]]
    assert frozen.gates_by_label_set.tolist() == [[4, 0, 0], [4, 0, 0]]
    assert cut.n_gate_executions == frozen.n_gate_executions - 2 == 6
    assert cut.cycles_by_label.tolist() == frozen.cycles_by_label.tolist() == [1, 1]
    charged = []
    for program in (frozen, cut):
        xbar = small_crossbar()
        engine.replay(program, xbar, unit_shifts((0, 0)))
        charged.append((xbar.stats.cycles, xbar.stats.gate_executions,
                        xbar.stats.per_label["a"].gate_executions))
    assert charged == [(2, 8, 4), (2, 6, 2)]


def traced_ops(text):
    """(cycle, label, sorted ops) per record: a cycle's ops are a multiset."""
    return [(cycle, label, sorted(ops))
            for cycle, label, ops in engine.trace_ops(text.splitlines())]


def bundle_ops(bundles, labels):
    """What a trace of ``bundles`` from cycle 1 on must expand to."""
    return [(cycle, label, sorted((op.gate, op.inputs, op.output)
                                  for op in bundle.lines()))
            for cycle, (bundle, label) in enumerate(zip(bundles, labels), 1)]


def test_replay_trace_matches_object_trace():
    for seed in range(40):
        stream = random_stream(random.Random(seed))
        xbar = small_crossbar()
        trace = io.StringIO()
        xbar.attach_trace(trace)
        frozen, program = freeze_stream(stream, xbar)
        engine.replay(frozen, xbar, unit_shifts((0, 0)))
        assert traced_ops(trace.getvalue()) == \
            bundle_ops(program.bundles, program.labels), seed


# ------------------------------------------------ differential replay oracle

# 2 x 3 partitions of 4 x 4 cells, plus 3 spare rows and 2 spare columns
# that form tiles of their own, as the shared ROT and RC blocks do
ORACLE_GEOMETRY = dict(rows=11, cols=14, vertical_partitions=2,
                       horizontal_partitions=3, unit_rows=4, unit_cols=4)
RUN_STEPS = [(0, 1), (1, 0), (1, 1), (1, -1), (2, 0), (0, 3), (-1, 0),
             (0, -1), (-2, 1)]


def shifted(op, shift):
    dr, dc = shift
    return MicroOp(op.gate, tuple((r + dr, c + dc) for r, c in op.inputs),
                   (op.output[0] + dr, op.output[1] + dc), op.count, op.stride)


@st.composite
def replay_cases(draw, geometry=ORACLE_GEOMETRY, units=None):
    """A frozen program, the origin shifts of each set and a start state.

    Ops sit anywhere their set's copies fit on the grid, read anywhere
    along their line that the copies fit (so reads hop partitions, as the
    ROT and RC fetches do) and are runs of up to six lines, stepping
    forward or backward, that may cross partitions (freeze splits them
    there). A run keeps its lines up to the first that does not fit: a
    line fits when every shifted copy lies on the grid, as the line itself
    must, each of its cells' copies lies on evenly spaced tiles, which
    replay requires, and no copy reads or writes a cell that another copy
    in its bundle writes, which legal bundles guarantee. The unit set is
    ``units``, in the order given, or else evenly spaced units (0, 2 and 4,
    say), so replay also meets unit axes that are strided. Without
    ``units``, any set may have no copies, whose rows replay must skip.
    """
    config = CrossbarConfig(**geometry, strict_init=draw(st.booleans()))
    rows, cols = config.rows, config.cols
    vparts, hparts = config.vertical_partitions, config.horizontal_partitions
    unit_rows, unit_cols = config.unit_rows, config.unit_cols

    tiles = PartitionMap(config)

    def evenly_spaced(n):
        first = draw(st.integers(0, n - 1))
        stride = draw(st.integers(1, max(n - 1 - first, 1)))
        count = draw(st.integers(1, (n - 1 - first) // stride + 1))
        if draw(st.integers(0, 9)) == 4:       # now and then, no copies
            return []
        return list(range(first, first + count * stride, stride))

    cover = units is not None
    units = units if cover else evenly_spaced(vparts * hparts)
    shifts = [[(u // hparts * unit_rows, u % hparts * unit_cols) for u in units],
              [(v * unit_rows, 0) for v in evenly_spaced(vparts)],
              [(0, h * unit_cols) for h in (range(hparts) if cover
                                            else evenly_spaced(hparts))]]

    def add(op, set_id, written, read):
        """Whether ``op`` fits a bundle of ``set_id`` that writes and reads
        ``written`` and ``read`` so far; if it does, add its copies' cells."""
        if op.output in op.inputs or not all(
                0 <= r + dr < rows and 0 <= c + dc < cols for r, c in op.cells()
                for dr, dc in [(0, 0)] + shifts[set_id]):
            return False
        offsets = np.array(shifts[set_id], dtype=np.int64).reshape(-1, 2)
        if any(np.diff(tiles.locate(r + offsets[:, 0], c + offsets[:, 1])[0], 2).any()
               for r, c in op.cells()):
            return False
        copies = [shifted(op, shift) for shift in shifts[set_id]]
        outs = {copy.output for copy in copies}
        ins = {cell for copy in copies for cell in copy.inputs}
        if outs & (written | read) or ins & (written | outs):
            return False
        written |= outs
        read |= ins
        return True

    bundles, labels, set_ids = [], [], []
    for _ in range(draw(st.integers(1, 6))):
        set_id = draw(st.integers(0, 2))
        ops, written, read = [], set(), set()
        for _ in range(draw(st.integers(1, 5))):
            gate = draw(st.sampled_from(GateType))
            arity = GATE_NUM_INPUTS[gate]
            orientation = draw(st.sampled_from((IN_ROW, IN_COL)))
            # the largest shifts are whole partitions, so the copies fit
            # exactly when the reference cell is at most this far in
            room = (rows - max((dr for dr, _ in shifts[set_id]), default=0),
                    cols - max((dc for _, dc in shifts[set_id]), default=0))
            r, c = draw(st.integers(0, room[0] - 1)), draw(st.integers(0, room[1] - 1))
            length = room[1] if orientation == IN_ROW else room[0]
            line = draw(st.lists(st.integers(0, length - 1), min_size=arity,
                                 max_size=arity, unique=True))
            inputs = [(r, k) if orientation == IN_ROW else (k, c) for k in line]
            run = MicroOp(gate, tuple(inputs), (r, c),
                          count=draw(st.integers(1, 6)),
                          stride=draw(st.sampled_from(RUN_STEPS)))
            count = 0
            while count < run.count and add(run.lines()[count], set_id,
                                            written, read):
                count += 1
            if count:
                ops.append(dataclasses.replace(run, count=count))
        bundles.append(CycleBundle(ops))
        labels.append(draw(st.sampled_from(("a", "b"))))
        set_ids.append(set_id)

    # When a preset's copies allow it, a reader in another origin set reads
    # a shifted copy of the preset before the preset's own gate overwrites
    # it, so the preset is seen only where two sets' copies meet.
    presets = [(i, op.output) for i, bundle in enumerate(bundles)
               for op in bundle.ops if op.gate is GateType.INIT1
               if shifts[set_ids[i]] and sum(map(bool, shifts)) > 1]
    if presets:
        i, (r, c) = draw(st.sampled_from(presets))
        own = set_ids[i]
        other = draw(st.sampled_from([k for k in range(3) if k != own and shifts[k]]))
        ar, ac = draw(st.sampled_from(shifts[own]))
        br, bc = draw(st.sampled_from(shifts[other]))
        qr, qc = r + ar - br, c + ac - bc
        # each op's cells are one column apart, so its copies never overlap
        reader = MicroOp(GateType.NOT, ((qr, qc),),
                         (qr, qc + draw(st.sampled_from((-1, 1)))))
        gate = MicroOp(GateType.NOT, ((r, c + draw(st.sampled_from((-1, 1)))),),
                       (r, c))
        if add(reader, other, set(), set()) and add(gate, own, set(), set()):
            bundles[i + 1:i + 1] = [CycleBundle([reader]), CycleBundle([gate])]
            labels[i + 1:i + 1] = [labels[i]] * 2
            set_ids[i + 1:i + 1] = [other, own]

    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    state = rng.integers(0, 2, (rows, cols), dtype=np.uint8)
    initialized = (rng.random((rows, cols)) < 0.9).astype(np.uint8)
    return config, *engine.freeze(line_table(bundles), labels, set_ids, config), \
        list(zip(bundles, labels, set_ids)), shifts, state, initialized


def check_against_shifted_bundles(case):
    """Replay ``case`` and run its bundles' shifted copies one line at a
    time on an oracle crossbar: the same grids, stats and strict failure."""
    config, frozen, bundles, shifts, state, initialized = case
    oracle, xbar = Crossbar(config), Crossbar(config)
    for crossbar in (oracle, xbar):
        crossbar.load(state, initialized)
    rejected = None
    for bundle, label, set_id in bundles:
        copies = CycleBundle([shifted(op, shift) for shift in shifts[set_id]
                              for op in bundle.ops])
        try:
            oracle.execute_bundle(copies, label=label, check=False)
        except StrictInitError:
            rejected = copies
            break

    per_set = partition_shifts(shifts, config)
    if rejected is None:
        engine.replay(frozen, xbar, per_set)
        assert xbar.stats.as_dict() == oracle.stats.as_dict()
    else:
        with pytest.raises(StrictInitError) as error:
            engine.replay(frozen, xbar, per_set)
        r, c = map(int, re.search(r"\((\d+),(\d+)\)",
                                  str(error.value)).groups())
        assert (r, c) in {cell for op in rejected.lines() for cell in op.inputs}
        assert not oracle.cells(initialized=True)[r, c]
    assert np.array_equal(xbar.cells(), oracle.cells())
    if config.strict_init:
        assert np.array_equal(xbar.cells(initialized=True),
                              oracle.cells(initialized=True))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(replay_cases())
def test_replay_matches_serial_execution_of_shifted_bundles(case):
    check_against_shifted_bundles(case)


@pytest.mark.parametrize("set_id, shifts", [
    (engine.SET_UNIT, [(0, 0), (0, 8), (4, 4)]),        # units 0, 2 and 4
    (engine.SET_PARTITION_COL, [(0, 0), (0, 8)]),
], ids=["strided-units", "partition-cols"])
def test_strict_read_in_mid_bundle_leaves_the_bundle_before(set_id, shifts):
    # the middle line of the second run of the second bundle reads (1,3),
    # which is unwritten on the copy shifted by (0,8) alone
    config = CrossbarConfig(**ORACLE_GEOMETRY, strict_init=True)
    bundles = [
        CycleBundle([MicroOp(GateType.NOT, ((0, 1),), (0, 0), 3, (1, 0))]),
        CycleBundle([MicroOp(GateType.NOT, ((3, 1),), (3, 0)),
                     MicroOp(GateType.NOR2, ((0, 2), (0, 3)), (0, 1), 3, (1, 0)),
                     MicroOp(GateType.NOT, ((3, 2),), (3, 3))]),
        CycleBundle([MicroOp(GateType.NOT, ((0, 0),), (0, 2))]),
    ]
    [frozen] = engine.freeze(line_table(bundles), ["a"] * 3, [set_id] * 3, config)
    oracle, xbar = Crossbar(config), Crossbar(config)
    initialized = np.ones((11, 14), dtype=np.uint8)
    initialized[1, 11] = 0
    for crossbar in (oracle, xbar):
        crossbar.load(np.random.default_rng(9).integers(0, 2, (11, 14)), initialized)
    with pytest.raises(StrictInitError) as expected:
        for bundle in bundles:
            oracle.execute_bundle(CycleBundle(
                [shifted(op, shift) for shift in shifts for op in bundle.ops]),
                check=False)
    assert str(expected.value) == "NOR2 reads uninitialized cell (1,11)"
    per_set = [[]] * engine.NUM_ORIGIN_SETS
    per_set[set_id] = shifts
    with pytest.raises(StrictInitError, match=re.escape(str(expected.value))):
        engine.replay(frozen, xbar, partition_shifts(per_set, config))
    assert np.array_equal(xbar.cells(), oracle.cells())
    assert np.array_equal(xbar.cells(initialized=True), oracle.cells(initialized=True))


# ------------------------------------------------ replay across 64-bit words

# 9 x 10 partitions of 4 x 4 cells and 2 spare rows and columns: 90 units on
# 110 tiles, so the tiles of a cell take two words of the kernel's grid
WORD_GEOMETRY = dict(rows=38, cols=42, vertical_partitions=9,
                     horizontal_partitions=10, unit_rows=4, unit_cols=4)


def word_shifts(units, columns=()):
    """Shifts of the unit set ``units`` and of the partition-column set
    ``columns``, as cell offsets on ``WORD_GEOMETRY``."""
    return [[(u // 10 * 4, u % 10 * 4) for u in units], [],
            [(0, 4 * h) for h in columns]]


@pytest.mark.parametrize("units", [
    list(range(60, 71)), list(range(90)), list(range(3, 90, 7)),
    list(range(70, 59, -1)),
], ids=["units-60-70", "all-90", "strided", "descending"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_replay_across_words_matches_serial_execution(units, data):
    check_against_shifted_bundles(data.draw(replay_cases(WORD_GEOMETRY, units)))


@pytest.mark.parametrize("output, input_, columns", [
    ((0, 0), (8, 0), 10),
    ((8, 0), (0, 0), 10),
    ((0, 0), (6, 4), 6),
    ((6, 4), (0, 0), 6),
    ((6, 0), (2, 3), 7),
    ((0, 1), (0, 0), 9),
], ids=["80-past", "80-before", "a-word-past", "a-word-before",
        "output-crosses-words", "1-before"])
def test_input_key_offset_from_its_output_key(output, input_, columns):
    # a partition's tile is its unit id; the partition-column set copies a
    # NOR2 run that reads partition `input_` and writes partition `output`,
    # so its input key's tiles start (unit id of `input_`) - (unit id of
    # `output`) places past its output key's, a shift that crosses words in
    # all but the whole-word cases
    config = CrossbarConfig(**WORD_GEOMETRY)
    (vo, ho), (vi, hi) = output, input_
    run = MicroOp(GateType.NOR2, ((4 * vi, 4 * hi + 1), (4 * vi, 4 * hi + 2)),
                  (4 * vo, 4 * ho + 3), count=4, stride=(1, 0))
    bundles, set_ids = [CycleBundle([run])], [engine.SET_PARTITION_COL]
    rng = np.random.default_rng(11)
    check_against_shifted_bundles((
        config, *engine.freeze(line_table(bundles), ["a"], set_ids, config),
        list(zip(bundles, ["a"], set_ids)), word_shifts((), range(columns)),
        rng.integers(0, 2, (38, 42), dtype=np.uint8),
        np.ones((38, 42), dtype=np.uint8)))


@pytest.mark.parametrize("output, input_, rows", [
    ((0, 1), (0, 1), 9),
    ((0, 1), (0, 2), 9),
    ((0, 1), (0, 0), 9),
    ((0, 0), (6, 4), 2),
    ((6, 4), (0, 0), 2),
    ((0, 0), (7, 0), 2),
    ((7, 0), (0, 0), 2),
], ids=["same-tile", "1-past", "1-before", "a-word-past", "a-word-before",
        "70-past", "70-before"])
@pytest.mark.parametrize("order", [1, -1], ids=["ascending", "descending"])
@pytest.mark.parametrize("strict", [False, True], ids=["loose", "strict"])
def test_strided_keys_match_serial_execution(output, input_, rows, order, strict):
    # the partition-row set copies an INIT1, a NOT and a NOR2 run that
    # write partition `output` and read partition `input_`, so every key's
    # tiles are 10 apart (descending when the shifts are listed so): over
    # all 9 partition rows they spread over both words, and over 2 rows an
    # input lies a whole word, or more, from its output
    config = CrossbarConfig(**WORD_GEOMETRY, strict_init=strict)
    (vo, ho), (vi, hi) = output, input_
    target = (4 * vo, 4 * ho + 3)
    bundles = [CycleBundle([MicroOp(gate, inputs, target, count=4, stride=(1, 0))])
               for gate, inputs in [
                   (GateType.INIT1, ()),
                   (GateType.NOT, ((4 * vi, 4 * hi + 1),)),
                   (GateType.NOR2, ((4 * vi, 4 * hi + 1), (4 * vi, 4 * hi + 2)))]]
    set_ids = [engine.SET_PARTITION_ROW] * 3
    shifts = [[], [(4 * v, 0) for v in range(rows)[::order]], []]
    [frozen] = engine.freeze(line_table(bundles), ["a"] * 3, set_ids, config)
    axes = engine._unit_axes(frozen, PartitionMap(config),
                             partition_shifts(shifts, config))
    assert set(axes[np.flatnonzero(frozen.reach[:, 0] >= 0), 1]) == {10 * order}
    rng = np.random.default_rng(13)
    # the outputs' column starts unwritten, so strict mode marks it
    initialized = np.ones((38, 42), dtype=np.uint8)
    initialized[:, 3::4] = 0
    check_against_shifted_bundles((
        config, frozen, list(zip(bundles, ["a"] * 3, set_ids)), shifts,
        rng.integers(0, 2, (38, 42), dtype=np.uint8), initialized))


# 70 x 2 partitions of 4 x 4 cells and a spare row and column of tiles: 140
# units on 213 tiles, four words of the kernel's grid, and 70 copies of the
# partition-row set, whose partition tiles lie 2 places apart
FORM_GEOMETRY = dict(rows=284, cols=12, vertical_partitions=70,
                     horizontal_partitions=2, unit_rows=4, unit_cols=4)
# per path of the kernel: the origin set, the reference output and input
# cells, each set's copies as cell offsets, and the (output stride, input
# stride, input offset in places) that the copies give the NOR2 row's keys
FORM_PATHS = {
    "plain": (engine.SET_UNIT, (0, 0), (0, 0), "units", (1, 1, 0)),
    "word-off": (engine.SET_UNIT, (0, 0), (128, 0), "units", (1, 1, 64)),
    "funnel": (engine.SET_UNIT, (0, 0), (4, 0), "units", (1, 1, 2)),
    "descending": (engine.SET_UNIT, (0, 0), (4, 0), "descending", (-1, -1, 2)),
    "strided": (engine.SET_PARTITION_ROW, (0, 4), (0, 4), "rows", (2, 2, 0)),
    "strided-funnel": (engine.SET_PARTITION_ROW, (0, 4), (0, 0), "rows", (2, 2, -1)),
    "mixed-stride": (engine.SET_PARTITION_ROW, (0, 0), (0, 8), "rows", (2, 1, 140)),
}
FORM_COPIES = {
    "units": [(u // 2 * 4, u % 2 * 4) for u in range(70)],
    "descending": [(u // 2 * 4, u % 2 * 4) for u in range(69, -1, -1)],
    "rows": [(4 * v, 0) for v in range(70)],
}


@pytest.mark.parametrize("path", FORM_PATHS)
@pytest.mark.parametrize("copies", [1, 70], ids=["1-copy", "70-copies"])
@pytest.mark.parametrize("strict", [False, True], ids=["loose", "strict"])
def test_every_gate_form_on_every_path(path, copies, strict):
    # each gate, a 2-line run along a tile row, writes its own cells from
    # inputs a and b, so a kernel that ran one form's loop for another's
    # gate leaves a different grid; one copy (the last listed) runs every
    # path with stride 1
    set_id, (ro, co), (ri, ci), copies_of, expected = FORM_PATHS[path]
    config = CrossbarConfig(**FORM_GEOMETRY, strict_init=strict)
    a, b = (ri, ci), (ri, ci + 2)
    bundles = [CycleBundle([MicroOp(gate, inputs, (ro + dr, co + dc), 2, (0, 1))])
               for gate, inputs, (dr, dc) in [
                   (GateType.AND2, (a, b), (1, 0)), (GateType.OR2, (a, b), (1, 2)),
                   (GateType.NOR2, (a, b), (2, 0)), (GateType.NOT, (a,), (2, 2)),
                   (GateType.INIT1, (), (3, 0))]]
    set_ids = [set_id] * len(bundles)
    shifts = [[], [], []]
    shifts[set_id] = FORM_COPIES[copies_of][-copies:]
    [frozen] = engine.freeze(line_table(bundles), ["a"] * 5, set_ids, config)
    if copies > 1:
        axes = engine._unit_axes(frozen, PartitionMap(config),
                                 partition_shifts(shifts, config))
        [nor] = frozen.rows[frozen.rows[:, 0] == GateType.NOR2]
        out, in1, in2 = axes[nor[4]], axes[nor[6]], axes[nor[8]]
        assert (in1 == in2).all()
        assert (out[1], in1[1], in1[0] - out[0]) == expected
    # in every tile, a and b differ on the first line and agree on the
    # second, so each form writes a pair of bits no other form writes;
    # rows 1-3, which the gates write, start unwritten, so strict mode
    # marks them
    state = np.random.default_rng(copies).integers(0, 2, (284, 12), dtype=np.uint8)
    state[::4, 2::4] = 1 - state[::4, ::4]
    state[::4, 3::4] = state[::4, 1::4]
    initialized = np.ones((284, 12), dtype=np.uint8)
    for r in (1, 2, 3):
        initialized[r::4] = 0
    check_against_shifted_bundles((
        config, frozen, list(zip(bundles, ["a"] * 5, set_ids)), shifts,
        state, initialized))


def test_the_kernel_runs_the_gate_table_rows_as_they_are():
    # the kernel compiles one copy of its loops per form the table has
    # (AND, OR and NOR) and derives each preset from its form, so it is
    # passed the table's rows; a table holding a form it has no copy for,
    # an inverted AND, is refused rather than run as the AND copy
    assert np.array_equal(engine._FORMS, np.array([GATE_TABLE[g] for g in GateType]))
    assert not hasattr(engine, "gate_function")
    with pytest.raises(ValueError, match="no copy for AND2"):
        engine._forms({**GATE_TABLE, GateType.AND2: (2, False, True)})


def test_strict_failure_in_the_second_word():
    # every unit's NOR2 run reads (1,2) first on its first line; units 70
    # and 80, at places 70 and 80 in the second word, never wrote theirs,
    # and the first of them in unit order is named, as by the oracle
    config = CrossbarConfig(**WORD_GEOMETRY, strict_init=True)
    bundles = [
        CycleBundle([MicroOp(GateType.NOT, ((0, 1),), (0, 0))]),
        CycleBundle([MicroOp(GateType.NOR2, ((1, 1), (1, 2)), (1, 0), 2, (1, 0))]),
        CycleBundle([MicroOp(GateType.NOT, ((0, 0),), (0, 3))]),
    ]
    shifts = word_shifts(range(90))[0]
    [frozen] = engine.freeze(line_table(bundles), ["a"] * 3, [engine.SET_UNIT] * 3,
                             config)
    oracle, xbar = Crossbar(config), Crossbar(config)
    initialized = np.ones((38, 42), dtype=np.uint8)
    initialized[29, 2] = initialized[33, 2] = 0
    for crossbar in (oracle, xbar):
        crossbar.load(np.random.default_rng(12).integers(0, 2, (38, 42)), initialized)
    with pytest.raises(StrictInitError) as expected:
        for bundle in bundles:
            oracle.execute_bundle(CycleBundle(
                [shifted(op, shift) for shift in shifts for op in bundle.ops]),
                check=False)
    assert str(expected.value) == "NOR2 reads uninitialized cell (29,2)"
    with pytest.raises(StrictInitError, match=re.escape(str(expected.value))):
        engine.replay(frozen, xbar, partition_shifts(word_shifts(range(90)),
                                                     config))
    assert np.array_equal(xbar.cells(), oracle.cells())
    assert np.array_equal(xbar.cells(initialized=True), oracle.cells(initialized=True))


# ------------------------------------------------- stored bundles run in order

# p's second copy reads what q wrote, so only a replay that follows the
# order matches the oracle: from a 0 in each unit's columns 1 and 2, the
# first copy leaves 1 and 0 in columns 0 and 3, the second 0 and 0; r
# reads a cell that neither writes
ORDERED_PARTS = {
    "p": [CycleBundle([MicroOp(GateType.NOT, ((0, 1),), (0, 0), 3, (1, 0))]),
          CycleBundle([MicroOp(GateType.AND2, ((0, 0), (0, 2)), (0, 3), 3, (1, 0))])],
    "q": [CycleBundle([MicroOp(GateType.INIT1, (), (0, 2), 3, (1, 0))]),
          CycleBundle([MicroOp(GateType.NOT, ((0, 3),), (0, 1), 3, (1, 0))])],
    "r": [CycleBundle([MicroOp(GateType.NOR2, ((3, 0), (3, 1)), (3, 2))])],
}


def ordered_case(parts, units, strict):
    """``concat`` of the frozen ``ORDERED_PARTS`` named by ``parts``, each
    frozen once, as a case of ``check_against_shifted_bundles`` on
    ``WORD_GEOMETRY``: every cell written, and 0 in columns 1 and 2 of
    every partition."""
    config = CrossbarConfig(**WORD_GEOMETRY, strict_init=strict)
    frozen = {name: engine.freeze(line_table(bundles), [name] * len(bundles),
                                  [engine.SET_UNIT] * len(bundles), config)[0]
              for name, bundles in ORDERED_PARTS.items() if name in parts}
    bundles = [(bundle, name, engine.SET_UNIT) for name in parts
               for bundle in ORDERED_PARTS[name]]
    state = np.random.default_rng(len(units)).integers(0, 2, (38, 42), dtype=np.uint8)
    state[:, 1::4] = state[:, 2::4] = 0
    return (config, engine.concat([frozen[name] for name in parts]), bundles,
            word_shifts(units), state, np.ones((38, 42), dtype=np.uint8))


@pytest.mark.parametrize("units", [[0], [62, 63, 64]], ids=["1-unit", "3-units"])
@pytest.mark.parametrize("strict", [False, True], ids=["loose", "strict"])
def test_a_repeated_program_replays_like_the_oracle(units, strict):
    # concat stores p once and runs it again after q; three units span
    # both words of the grid
    case = ordered_case("pqp", units, strict)
    config, whole, bundles, shifts, state, _ = case
    assert whole.rows.shape[0] == 4 and whole.order.tolist() == [0, 1, 2, 3, 0, 1]
    assert whole.n_bundles == 6 and whole.n_events == 6
    check_against_shifted_bundles(case)
    # the trace lists every cycle, p's bundles twice
    xbar = Crossbar(config)
    xbar.load(state, np.ones_like(state))
    trace = io.StringIO()
    xbar.attach_trace(trace)
    engine.replay(whole, xbar, partition_shifts(shifts, config))
    copies = [CycleBundle([shifted(op, shift) for shift in shifts[set_id]
                           for op in bundle.ops]) for bundle, _, set_id in bundles]
    assert traced_ops(trace.getvalue()) == \
        bundle_ops(copies, [label for _, label, _ in bundles])


def test_strict_failure_after_a_repeated_program():
    # strict mode only ever marks cells written, so a repeated bundle
    # passes its check again, and the first failure can only come after
    # p's second copy: r's read of unit 63's (3,1), never written. It names
    # the oracle's cell and r's gate, stored after p's and q's rows, and
    # leaves the grids holding p, q and p
    config, whole, bundles, shifts, state, initialized = ordered_case(
        "pqpr", [62, 63, 64], strict=True)
    initialized[27, 13] = 0
    oracle, xbar = Crossbar(config), Crossbar(config)
    for crossbar in (oracle, xbar):
        crossbar.load(state, initialized)
    with pytest.raises(StrictInitError) as expected:
        for bundle, label, set_id in bundles:
            oracle.execute_bundle(CycleBundle(
                [shifted(op, shift) for shift in shifts[set_id] for op in bundle.ops]),
                label=label, check=False)
    assert str(expected.value) == "NOR2 reads uninitialized cell (27,13)"
    with pytest.raises(StrictInitError, match=re.escape(str(expected.value))):
        engine.replay(whole, xbar, partition_shifts(shifts, config))
    assert np.array_equal(xbar.cells(), oracle.cells())
    assert np.array_equal(xbar.cells(initialized=True), oracle.cells(initialized=True))


@pytest.mark.parametrize("geometry, units", [
    (ORACLE_GEOMETRY, [0, 2, 3]),
    (WORD_GEOMETRY, [0, 63, 64, 89]),
], ids=["units-0-2-3", "units-0-63-64-89"])
@pytest.mark.parametrize("strict", [False, True], ids=["loose", "strict"])
def test_replay_refuses_unevenly_spaced_tiles(geometry, units, strict):
    # the kernel walks a key's tiles as (first, stride, count) bit places of
    # the crossbar's words, so replay refuses these sets before any bundle
    # runs, leaving the grids and the stats as they were
    config = CrossbarConfig(**geometry, strict_init=strict)
    xbar = Crossbar(config)
    rng = np.random.default_rng(6)
    xbar.load(*rng.integers(0, 2, (2, config.rows, config.cols)))
    op = MicroOp(GateType.NOT, ((0, 1),), (0, 0))
    [frozen] = engine.freeze(line_table([CycleBundle([op])]), ["main"],
                             [engine.SET_UNIT], config)
    state, initialized = xbar.cells(), xbar.cells(initialized=True)
    stats = xbar.stats.as_dict()
    with pytest.raises(ValueError, match="not evenly spaced"):
        engine.replay(frozen, xbar, unit_shifts(
            *(divmod(u, config.horizontal_partitions) for u in units)))
    assert np.array_equal(xbar.cells(), state)
    assert np.array_equal(xbar.cells(initialized=True), initialized)
    assert xbar.stats.as_dict() == stats


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(replay_cases())
def test_replay_trace_matches_serial_trace_of_shifted_bundles(case):
    config, frozen, bundles, shifts, state, _ = case
    xbar = Crossbar(config)
    xbar.load(state, np.ones_like(state))
    trace = io.StringIO()
    xbar.attach_trace(trace)
    engine.replay(frozen, xbar, partition_shifts(shifts, config))
    copies = [CycleBundle([shifted(op, shift) for shift in shifts[set_id]
                           for op in bundle.ops]) for bundle, _, set_id in bundles]
    assert traced_ops(trace.getvalue()) == \
        bundle_ops(copies, [label for _, label, _ in bundles])


def test_replay_shifts_a_program_left_and_up():
    # frozen in partition (0, 1), copied to partitions (0, 0) and (1, 0);
    # no flat cell offset could say "one partition column to the left"
    config = small_crossbar().config
    bundles = [CycleBundle([MicroOp(GateType.INIT1, (), (2, 9), 3, (1, 0))]),
               CycleBundle([MicroOp(GateType.NOR2, ((2, 10), (2, 12)), (2, 9),
                                    3, (1, 0))])]
    [frozen] = engine.freeze(line_table(bundles), ["a"] * 2, [engine.SET_UNIT] * 2,
                             config)
    shifts = [(0, -8), (8, -8)]
    oracle, xbar = Crossbar(config), Crossbar(config)
    for crossbar in (oracle, xbar):
        crossbar.load(crossbar.cells(), np.ones((16, 16)))
    for bundle in bundles:
        oracle.execute_bundle(CycleBundle(
            [shifted(op, shift) for shift in shifts for op in bundle.ops]),
            label="a")
    engine.replay(frozen, xbar, unit_shifts((0, -1), (1, -1)))
    assert np.array_equal(xbar.cells(), oracle.cells())
    # NOR2 of two zeros, in column 1 of the copies and nowhere else
    assert np.flatnonzero(xbar.cells()).tolist() == [
        r * 16 + 1 for r in (2, 3, 4, 10, 11, 12)]
    assert xbar.stats.as_dict() == oracle.stats.as_dict()


@pytest.mark.parametrize("copies", [
    np.array([0, 8 * 16 + 8]),                  # the old flat cell offsets
    np.zeros((1, 3), dtype=np.int64),
    np.zeros((1, 2)),
    np.zeros((2, 2), dtype=np.int64),           # one copy listed twice
], ids=["flat-deltas", "three-columns", "float", "repeated"])
def test_replay_rejects_a_malformed_shift_set(copies):
    xbar = small_crossbar()
    stream = OpStream()
    stream.append(MacroOp(GateType.NOT, ((0, 1),), (0, 0)))
    frozen, _ = freeze_stream(stream, xbar)
    with pytest.raises(ValueError, match=r"integer arrays of shape \[n, 2\]"):
        engine.replay(frozen, xbar, [copies, NO_COPIES, NO_COPIES])
    assert xbar.stats.cycles == 0


@pytest.mark.parametrize("set_id, output, count, shift", [
    (engine.SET_UNIT, (0, 0), 1, (-1, 0)),
    (engine.SET_PARTITION_ROW, (4, 0), 1, (2, 0)),
    (engine.SET_PARTITION_COL, (0, 8), 1, (0, 2)),
    (engine.SET_UNIT, (3, 0), 1, (2, 0)),
    (engine.SET_UNIT, (2, 0), 2, (2, 0)),
], ids=["negative-unit", "row-past-grid", "col-past-grid", "padding",
        "padding-run-end"])
def test_replay_rejects_runs_that_leave_the_crossbar(set_id, output, count, shift):
    # the tile grid of the 11 x 14 oracle crossbar is 3 x 4 tiles of 4 x 4;
    # the padding cases move row 3 to row 11, inside the padding of the
    # remainder tile of rows 8-11 but off the crossbar (in the last case
    # only the second cell of a run lands there)
    config = CrossbarConfig(**ORACLE_GEOMETRY)
    xbar = Crossbar(config)
    xbar.load(np.random.default_rng(5).integers(0, 2, (11, 14)), np.ones((11, 14)))
    r, c = output
    op = MicroOp(GateType.NOT, ((r, c + 1),), (r, c), count=count, stride=(1, 0))
    [frozen] = engine.freeze(line_table([CycleBundle([op])]), ["main"], [set_id], config)
    assert frozen.n_events == 1
    per_set = [NO_COPIES] * engine.NUM_ORIGIN_SETS
    per_set[set_id] = np.array([(0, 0), shift])
    state, initialized = xbar.cells(), xbar.cells(initialized=True)
    stats = xbar.stats.as_dict()
    with pytest.raises(AddressError, match="leaves the crossbar"):
        engine.replay(frozen, xbar, per_set)
    assert np.array_equal(xbar.cells(), state)
    assert np.array_equal(xbar.cells(initialized=True), initialized)
    assert xbar.stats.as_dict() == stats


def test_replay_rejects_a_program_frozen_for_another_geometry():
    xbar = small_crossbar()
    stream = OpStream()
    stream.append(MacroOp(GateType.NOT, ((0, 1),), (0, 0)))
    frozen, _ = freeze_stream(stream, xbar)
    with pytest.raises(ValueError, match="geometry"):
        engine.replay(frozen, Crossbar(CrossbarConfig(**ORACLE_GEOMETRY)),
                      unit_shifts((0, 0)))


def test_replay_rejects_a_program_whose_arrays_disagree():
    # the kernel reads the arrays through raw pointers, so a program checks
    # their shapes when it is built
    xbar = small_crossbar()
    stream = OpStream()
    stream.append(MacroOp(GateType.NOT, ((0, 1),), (0, 0)))
    frozen, _ = freeze_stream(stream, xbar)
    with pytest.raises(ValueError, match="do not match"):
        dataclasses.replace(frozen, live=frozen.live[:1])


def test_a_frozen_program_refuses_rows_the_kernel_cannot_run():
    # the kernel indexes memory with every field of a row, so a program
    # checks each when it is built, and its arrays cannot be changed after;
    # nothing here replays
    xbar = small_crossbar()
    stream = OpStream()
    stream.append(MacroOp(GateType.NOT, ((0, 1),), (0, 0)))
    frozen, _ = freeze_stream(stream, xbar)
    assert frozen.rows[1, :3].tolist() == [GateType.NOT, 1, 1]
    cells = xbar.config.unit_rows * xbar.config.unit_cols
    n_keys = engine.NUM_ORIGIN_SETS * PartitionMap(xbar.config).n_tiles

    def row(**fields):
        """The program's rows with the NOT row's columns changed."""
        rows = frozen.rows.copy()
        for name, value in fields.items():
            rows[1, int(name[1:])] = value
        return {"rows": rows}

    bad = [row(c0=len(GateType)), row(c0=-1),                   # gate code
           row(c1=0), row(c2=0), row(c2=10 ** 8),               # step, span
           row(c3=10 ** 8), row(c3=-1), row(c3=cells),          # output cell
           row(c2=2, c5=cells - 1), row(c7=cells),              # input cells
           row(c4=2 * 10 ** 9), row(c6=-1), row(c8=n_keys),     # keys
           row(c1=1, c2=3, c3=xbar.config.unit_cols - 2),       # wraps a tile row
           {"bundle_ptr": np.array([0, 2, 1, 2]),
            "bundle_label": np.zeros(3, dtype=np.uint16)},
           {"bundle_label": np.array([0, 1], dtype=np.uint16)},
           {"order": np.array([0, 2])}, {"order": np.array([-1, 1])},  # stored bundle
           {"order": np.zeros((1, 2))},
           {"live": np.zeros_like(frozen.live)}]                # a dead NOT
    for change in bad:
        with pytest.raises(ValueError):
            dataclasses.replace(frozen, **change)
    dataclasses.replace(frozen, **row(c2=2, c5=cells - 2))
    dataclasses.replace(frozen, live=frozen.rows[:, 0] != GateType.INIT1)
    for name in ("rows", "live", "bundle_ptr", "order"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(frozen, name)[-1] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        frozen.live = frozen.live[:1]


def test_reach_follows_the_rows():
    # replay's bounds check reads each key's reach, which a program reads
    # off its own rows: a NOT moved to local columns 30 and 31 reaches
    # column 31, so the unit shift (0, 27), into the default grid's last,
    # partial column of tiles, would write column 27 * 37 + 30 = 1029, past
    # the grid's last; replay refuses it before any bundle runs
    config = CrossbarConfig()
    op = MicroOp(GateType.NOT, ((0, 1),), (0, 0))
    [frozen] = engine.freeze(line_table([CycleBundle([op])]), ["a"],
                             [engine.SET_UNIT], config)
    key = int(frozen.rows[0, 4])
    assert frozen.reach[key].tolist() == [0, 1]
    rows = frozen.rows.copy()
    rows[:, 3::2] += 30
    moved = dataclasses.replace(frozen, rows=rows)
    assert moved.reach[key].tolist() == [0, 31]
    assert (np.delete(moved.reach, key, axis=0) == -1).all()
    xbar = Crossbar(config)
    with pytest.raises(AddressError, match="leaves the crossbar"):
        engine.replay(moved, xbar, unit_shifts((0, 27)))
    assert not xbar.state.any()
    assert xbar.stats.cycles == 0


@pytest.mark.parametrize("set_id", range(engine.NUM_ORIGIN_SETS))
@pytest.mark.parametrize("strict", [False, True], ids=["loose", "strict"])
def test_a_set_with_no_copies_runs_nothing(set_id, strict):
    # a key of a set with no copies has count 0; taking its zero stride for
    # the stride-1 word path would write unit 0's tile
    config = CrossbarConfig(**ORACLE_GEOMETRY, strict_init=strict)
    xbar = Crossbar(config)
    runs = [MicroOp(GateType.NOT, ((0, 2),), (0, 3), count=4, stride=(1, 0)),
            MicroOp(GateType.INIT1, (), (0, 1), count=4, stride=(1, 0))]
    [frozen] = engine.freeze(line_table([CycleBundle([run]) for run in runs]),
                             ["main"] * 2, [set_id] * 2, config)
    assert frozen.live.all()
    engine.replay(frozen, xbar, [NO_COPIES] * engine.NUM_ORIGIN_SETS)
    assert not xbar.cells().any()
    assert not xbar.cells(initialized=True).any()
    assert xbar.stats.gate_executions == 0


def test_replay_keys_past_the_int16_range():
    # 138 x 138 tiles: a partition-column key is 2 * 19,044 + tile, past 32,767
    config = CrossbarConfig(rows=1100, cols=1100, vertical_partitions=2,
                            horizontal_partitions=2, unit_rows=8, unit_cols=8)
    xbar = Crossbar(config)
    state = xbar.cells()
    state[1099, 1098:] = 1
    xbar.load(state)
    op = MicroOp(GateType.NOT, ((1099, 1099),), (1099, 1098))
    [frozen] = engine.freeze(line_table([CycleBundle([op])]), ["main"],
                             [engine.SET_PARTITION_COL], config)
    assert frozen.rows.dtype == np.int32
    assert int(frozen.rows[0, 4]) > np.iinfo(np.int16).max
    engine.replay(frozen, xbar, [NO_COPIES] * 2
                  + [np.zeros((1, 2), dtype=np.int64)])
    assert xbar.cells()[1099, 1098] == 0
    state = xbar.cells()
    state[1099, 1099] = 0
    xbar.load(state)
    engine.replay(frozen, xbar, [NO_COPIES] * 2
                  + [np.zeros((1, 2), dtype=np.int64)])
    assert xbar.cells()[1099, 1098] == 1
