"""Object-level crossbar model: gate semantics, legality rules, io, stats."""

import copy
import io
import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sha3pim import engine
from sha3pim.crossbar import (
    GATE_NUM_INPUTS,
    IN_COL,
    AddressError,
    Crossbar,
    CrossbarConfig,
    CycleBundle,
    GateType,
    MicroOp,
    PartitionMap,
    SchedulingError,
    StrictInitError,
    line_pattern,
    line_table,
    shift,
)


def small_xbar(**kwargs) -> Crossbar:
    config = CrossbarConfig(rows=16, cols=16, horizontal_partitions=2,
                            vertical_partitions=2, unit_rows=8, unit_cols=8,
                            **kwargs)
    return Crossbar(config)


def seed_cells(xbar, assignments):
    state, initialized = xbar.cells(), xbar.cells(initialized=True)
    for (r, c), v in assignments.items():
        state[r, c] = v
        initialized[r, c] = 1
    xbar.load(state, initialized)


def initialize_all(xbar):
    xbar.load(xbar.cells(), np.ones((xbar.config.rows, xbar.config.cols)))


# ----------------------------------------------------------- gate truth tables

TRUTH = {
    GateType.INIT1: lambda: 1,
    GateType.NOT: lambda a: a ^ 1,
    GateType.NOR2: lambda a, b: (a | b) ^ 1,
    GateType.OR2: lambda a, b: a | b,
    GateType.AND2: lambda a, b: a & b,
}

# Test ids are the gate codes of the eight-gate enum that also held INIT0
# (0), NOR3 (4) and COPY (7), so that the ids of the kept cases are stable.
TEST_ID = {GateType.INIT1: 1, GateType.NOT: 2, GateType.NOR2: 3,
           GateType.OR2: 5, GateType.AND2: 6}


def execute_object(xbar, op):
    xbar.execute_bundle(CycleBundle([op]))


def execute_frozen(xbar, op):
    [frozen] = engine.freeze(line_table([CycleBundle([op])]), ["main"],
                             [engine.SET_UNIT], xbar.config)
    engine.replay(frozen, xbar, [np.zeros((1, 2), dtype=np.int64),
                                 np.zeros((0, 2), dtype=np.int64),
                                 np.zeros((0, 2), dtype=np.int64)])


@pytest.mark.parametrize("gate,execute", [
    pytest.param(gate, execute, id=f"{TEST_ID[gate]}{suffix}")
    for execute, suffix in ((execute_object, ""), (execute_frozen, "-replay"))
    for gate in TRUTH])
def test_gate_truth_tables_exhaustive(gate, execute):
    n = TRUTH[gate].__code__.co_argcount
    for values in itertools.product((0, 1), repeat=n):
        xbar = small_xbar()
        inputs = tuple((0, i + 1) for i in range(n))
        expected = TRUTH[gate](*values)
        seed_cells(xbar, {cell: v for cell, v in zip(inputs, values)})
        seed_cells(xbar, {(0, 0): expected ^ 1})     # the gate must overwrite it
        execute(xbar, MicroOp(gate, inputs, (0, 0)))
        assert xbar.cells()[0, 0] == expected, (gate, values)
        assert (xbar.stats.cycles, xbar.stats.gate_executions) == (1, 1)


def test_init_gates():
    xbar = small_xbar()
    xbar.execute_bundle(CycleBundle([MicroOp(GateType.INIT1, (), (3, 3))]))
    assert xbar.cells()[3, 3] == 1
    assert xbar.cells(initialized=True)[3, 3] == 1
    assert xbar.stats.cycles == 1
    assert xbar.stats.gate_executions == 1


def test_nor2_spec_examples():
    # NOR(0,0) = 1 and NOR(1,0) = 0
    for values, expected in [((0, 0), 1), ((1, 0), 0)]:
        xbar = small_xbar()
        seed_cells(xbar, {(0, 1): values[0], (0, 2): values[1]})
        op = MicroOp(GateType.NOR2, ((0, 1), (0, 2)), (0, 0))
        xbar.execute_bundle(CycleBundle([op]))
        assert xbar.cells()[0, 0] == expected


# ------------------------------------------------------------------- legality

def row_parallel_nor_bundle(rows, in_cols=(1, 2), out_col=0):
    ops = [MicroOp(GateType.NOR2, tuple((r, c) for c in in_cols), (r, out_col))
           for r in rows]
    return CycleBundle(ops)


def test_row_parallel_bundle_one_cycle():
    # 64 aligned in-row NOR2 ops: 1 cycle, 64 gate executions, 409.6 fJ
    config = CrossbarConfig()
    xbar = Crossbar(config)
    initialized = xbar.cells(initialized=True)
    initialized[:, 1:3] = 1
    xbar.load(xbar.cells(), initialized)
    bundle = row_parallel_nor_bundle(range(64))
    ok, violations = xbar.check_bundle(bundle)
    assert ok, violations
    xbar.execute_bundle(bundle)
    assert xbar.stats.cycles == 1
    assert xbar.stats.gate_executions == 64
    assert xbar.stats.energy_fj == pytest.approx(64 * 6.4)


def test_different_partitions_unconstrained():
    # ops with different column patterns are legal across partitions
    xbar = small_xbar()
    ops = [MicroOp(GateType.NOR2, ((0, 1), (0, 2)), (0, 0)),
           MicroOp(GateType.NOR2, ((1, 9), (1, 11)), (1, 13))]
    ok, violations = xbar.check_bundle(CycleBundle(ops))
    assert ok, violations


def test_same_partition_misaligned_columns_illegal():
    xbar = small_xbar()
    ops = [MicroOp(GateType.NOR2, ((0, 1), (0, 2)), (0, 0)),
           MicroOp(GateType.NOR2, ((1, 2), (1, 3)), (1, 0))]
    ok, violations = xbar.check_bundle(CycleBundle(ops))
    assert not ok
    assert any("unaligned" in v for v in violations)


def test_same_partition_mixed_gates_illegal():
    xbar = small_xbar()
    ops = [MicroOp(GateType.NOR2, ((0, 1), (0, 2)), (0, 0)),
           MicroOp(GateType.AND2, ((1, 1), (1, 2)), (1, 0))]
    ok, _ = xbar.check_bundle(CycleBundle(ops))
    assert not ok


@st.composite
def partition_runs(draw):
    """A well-formed run of 1-3 lines near partition (0, 0) of ``small_xbar``:
    any gate on cells of one row or column, inputs possibly repeated."""
    gate = draw(st.sampled_from(list(GateType)))
    line, out_at = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    ins_at = draw(st.lists(st.integers(0, 7).filter(lambda at: at != out_at),
                           min_size=GATE_NUM_INPUTS[gate], max_size=GATE_NUM_INPUTS[gate]))
    in_row, step = draw(st.booleans()), draw(st.sampled_from((1, 2, -1)))

    def cell(at):
        return (line, at) if in_row else (at, line)

    return MicroOp(gate, tuple(map(cell, ins_at)), cell(out_at),
                   count=draw(st.integers(1, 3)),
                   stride=(step, 0) if in_row else (0, step))


@st.composite
def run_pairs(draw):
    """Two runs: independent, or the second the first moved a few lines
    across, so that half the pairs share a line pattern."""
    a = draw(partition_runs())
    if draw(st.booleans()):
        return a, draw(partition_runs())
    d = draw(st.integers(1, 7))
    *ins, out = shift(a.cells(), 1, (0, d) if a.orientation == IN_COL else (d, 0))
    return a, MicroOp(a.gate, tuple(ins), out, count=draw(st.integers(1, 3)),
                      stride=a.stride)


@given(run_pairs())
@settings(max_examples=200, deadline=None)
def test_mixed_pattern_rule_is_line_pattern(pair):
    # check_bundle computes the line-pattern rule again, in numpy, off the
    # line table; on two runs of disjoint cells in one partition it reports
    # a mixed pattern exactly when their line_patterns differ
    a, b = pair
    cells_a, cells_b = ({cell for line in run.lines() for cell in line.cells()}
                        for run in (a, b))
    assume(all(0 <= r < 8 and 0 <= c < 8 for r, c in cells_a | cells_b))
    assume(not cells_a & cells_b)
    _, violations = small_xbar().check_bundle(CycleBundle([a, b]))
    mixed = any("mixed" in v or "unaligned" in v for v in violations)
    assert mixed == (line_pattern(a) != line_pattern(b)), violations


def test_op_crossing_open_switch_illegal():
    # in-column NOT spanning the row boundary at 8 with the switch open, and
    # an in-row run whose last line (row 8) lies across that boundary
    xbar = small_xbar()
    for op in (MicroOp(GateType.NOT, ((6, 3),), (10, 3)),
               MicroOp(GateType.NOT, ((6, 1),), (6, 0), count=3, stride=(1, 0))):
        ok, violations = xbar.check_bundle(CycleBundle([op]))
        assert not ok
        assert any("open partition boundary" in v for v in violations)


def test_op_crossing_closed_switch_legal_and_merges():
    xbar = small_xbar()
    crossing = MicroOp(GateType.NOT, ((6, 3),), (10, 3))
    ok, violations = xbar.check_bundle(
        CycleBundle([crossing], closed_switches=frozenset({("row", 8)})))
    assert ok, violations
    # merged region now enforces alignment against ops in the other half
    other = MicroOp(GateType.NOT, ((5, 4),), (9, 4))
    ok, _ = xbar.check_bundle(
        CycleBundle([crossing, other], closed_switches=frozenset({("row", 8)})))
    assert not ok  # row patterns (6->10) vs (5->9) differ inside one region


def test_write_write_conflict():
    # two presets of one cell, and a run whose last line writes (2, 0),
    # which another run writes too
    xbar = small_xbar()
    for ops in ([MicroOp(GateType.INIT1, (), (0, 0)),
                 MicroOp(GateType.INIT1, (), (0, 0))],
                [MicroOp(GateType.INIT1, (), (0, 0), count=3, stride=(1, 0)),
                 MicroOp(GateType.INIT1, (), (2, 0))]):
        ok, violations = xbar.check_bundle(CycleBundle(ops))
        assert not ok
        assert any("both write" in v for v in violations)


def test_read_write_conflict_detected():
    # one op reads what another writes, and one reads (2, 0), which the
    # last line of a run writes
    xbar = small_xbar()
    for bundle in (CycleBundle([MicroOp(GateType.NOT, ((0, 1),), (0, 0)),
                                MicroOp(GateType.NOT, ((0, 0),), (0, 2))]),
                   CycleBundle([MicroOp(GateType.NOT, ((0, 1),), (0, 0),
                                        count=3, stride=(1, 0)),
                                MicroOp(GateType.NOT, ((2, 0),), (2, 2))])):
        ok, violations = xbar.check_bundle(bundle)
        assert not ok
        assert any("reads" in v and "written by" in v for v in violations)


def test_init_grid_pattern_rule():
    xbar = small_xbar()
    grid_cells = [(r, c) for r in (1, 3) for c in (2, 4, 6)]
    ops = [MicroOp(GateType.INIT1, (), cell) for cell in grid_cells]
    ok, violations = xbar.check_bundle(CycleBundle(ops))
    assert ok, violations
    ops.append(MicroOp(GateType.INIT1, (), (5, 2)))  # breaks the grid
    ok, violations = xbar.check_bundle(CycleBundle(ops))
    assert not ok
    assert any("grid pattern" in v for v in violations)


def test_crossing_run_kept_out_of_grid_rule():
    # a preset run whose last line (row 8) lies across the open switch is
    # reported once, as crossing; the grid test covers the other presets
    xbar = small_xbar()
    ops = [MicroOp(GateType.INIT1, (), (r, c)) for r in (1, 3) for c in (2, 4, 6)]
    ops.append(MicroOp(GateType.INIT1, (), (6, 2), count=3, stride=(1, 0)))
    ok, violations = xbar.check_bundle(CycleBundle(ops))
    assert not ok
    assert violations == ["op 6: crosses an open partition boundary"]


def test_multi_row_init_counts_per_cell():
    xbar = small_xbar()
    ops = [MicroOp(GateType.INIT1, (), (r, 2)) for r in range(8)]
    xbar.execute_bundle(CycleBundle(ops))
    assert xbar.stats.cycles == 1
    assert xbar.stats.gate_executions == 8


def test_execute_rejects_illegal_bundle():
    xbar = small_xbar()
    ops = [MicroOp(GateType.NOR2, ((0, 1), (0, 2)), (0, 0)),
           MicroOp(GateType.NOR2, ((1, 2), (1, 3)), (1, 0))]
    with pytest.raises(SchedulingError):
        xbar.execute_bundle(CycleBundle(ops))


def test_out_of_bounds_address_error():
    xbar = small_xbar()
    op = MicroOp(GateType.INIT1, (), (99, 0))
    ok, violations = xbar.check_bundle(CycleBundle([op]))
    assert not ok
    with pytest.raises(AddressError):
        xbar.execute_bundle(CycleBundle([op]), check=False)


def test_malformed_shapes_rejected():
    xbar = small_xbar()
    diagonal = MicroOp(GateType.NOT, ((0, 1),), (1, 2))
    ok, violations = xbar.check_bundle(CycleBundle([diagonal]))
    assert not ok
    overlapping = MicroOp(GateType.NOT, ((0, 1),), (0, 1))
    ok, violations = xbar.check_bundle(CycleBundle([overlapping]))
    assert not ok


# ---------------------------------------------------------------- parallelism

def test_legal_bundle_equals_any_serial_order():
    rng = random.Random(31)
    for _ in range(50):
        xbar = small_xbar()
        bits = rng.getrandbits(16 * 16)
        xbar.load(np.array([(bits >> i) & 1 for i in range(256)],
                           dtype=np.uint8).reshape(16, 16), np.ones((16, 16)))
        bundle = row_parallel_nor_bundle(range(5), in_cols=(1, 2), out_col=3)
        reference = Crossbar(xbar.config)
        reference.load(xbar.cells(), np.ones((16, 16)))

        xbar.execute_bundle(bundle)
        order = list(bundle.ops)
        rng.shuffle(order)
        for op in order:
            reference.execute_bundle(CycleBundle([op]))
        assert np.array_equal(xbar.cells(), reference.cells())


def test_determinism():
    def run():
        xbar = small_xbar()
        initialize_all(xbar)
        for _ in range(10):
            xbar.execute_bundle(row_parallel_nor_bundle(range(8)))
        return xbar.cells(), xbar.stats.cycles, xbar.stats.gate_executions

    s1, c1, g1 = run()
    s2, c2, g2 = run()
    assert np.array_equal(s1, s2) and c1 == c2 and g1 == g2


# ------------------------------------------------------------------ peripheral

def test_region_roundtrip_and_io_stats():
    xbar = small_xbar()
    block = np.zeros((8, 8), dtype=np.uint8)
    xbar.write_region((0, 8), (0, 8), block)
    assert (xbar.read_region((0, 8), (0, 8)) == 0).all()
    block[5, 7] = 1
    xbar.write_region((0, 8), (0, 8), block)
    assert xbar.read_region((5, 6), (7, 8))[0, 0] == 1
    io = xbar.stats.per_label["io"]
    assert io.cycles == 8 + 8 + 8 + 1
    assert io.gate_executions == 0
    assert xbar.stats.energy_fj == 0.0


@pytest.mark.parametrize("bits", [[2, 1, -1], [0.6, 1, 0], [0, 1, 0.5]],
                         ids=["two-and-minus-one", "fraction", "half"])
def test_write_region_refuses_bits_other_than_0_and_1(bits):
    # a 2 stored as a bit would set a neighbouring tile's bit
    xbar = small_xbar()
    state, initialized = xbar.state.copy(), xbar.initialized.copy()
    with pytest.raises(ValueError, match="0 or 1"):
        xbar.write_region((0, 1), (0, 3), bits)
    assert np.array_equal(xbar.state, state)
    assert np.array_equal(xbar.initialized, initialized)
    assert xbar.stats.cycles == 0
    xbar.write_region((0, 1), (0, 3), [True, 1, 0.0])
    assert xbar.read_region((0, 1), (0, 3)).tolist() == [[1, 1, 0]]


def test_write_region_refuses_a_block_of_another_shape():
    # a transposed block has the region's size, but its bits would land in
    # other cells: bit (0, 1) below would be set at cell (2, 14)
    xbar = Crossbar(CrossbarConfig())
    bits = np.zeros((64, 25), dtype=np.uint8)
    bits[0, 1] = 1
    state, initialized = xbar.state.copy(), xbar.initialized.copy()
    for block in (bits.T, bits.reshape(32, 50), bits.reshape(1, -1)):
        with pytest.raises(ValueError, match="cannot take a block of shape"):
            xbar.write_region((0, 64), (0, 25), block)
    assert np.array_equal(xbar.state, state)
    assert np.array_equal(xbar.initialized, initialized)
    assert xbar.stats.cycles == 0
    xbar.write_region((0, 64), (0, 25), bits.ravel())
    assert xbar.cells()[:64, :25].tolist() == bits.tolist()


def test_regions_across_tiles_match_the_cell_grid():
    # the default grid's edge tiles are partial (16 rows, 25 columns), and
    # each region below crosses tiles, so each tile's part is set and read
    # on its own bit
    xbar = Crossbar(CrossbarConfig())
    rng = np.random.default_rng(8)
    expected, written = np.zeros((2, 1024, 1024), dtype=np.uint8)
    for rows, cols in [((0, 1024), (990, 1024)), ((60, 150), (30, 80)),
                       ((1000, 1024), (0, 1024)), ((71, 73), (36, 38))]:
        block = rng.integers(0, 2, (rows[1] - rows[0], cols[1] - cols[0]))
        xbar.write_region(rows, cols, block)
        expected[slice(*rows), slice(*cols)] = block
        written[slice(*rows), slice(*cols)] = 1
        assert np.array_equal(xbar.read_region(rows, cols), block)
        assert np.array_equal(xbar.cells(), expected)
        assert np.array_equal(xbar.cells(initialized=True), written)


REGION_GEOMETRIES = pytest.mark.parametrize("geometry", [
    {},
    dict(rows=300, cols=200, vertical_partitions=3, horizontal_partitions=2),
    dict(rows=78, cols=61, vertical_partitions=1, horizontal_partitions=1),
], ids=["27x14", "3x2", "1x1"])


def random_regions(config, rng, n):
    """``n`` regions of up to two tiles and a cell each way, so that most
    cross a tile boundary; every other one ends at the last row and column,
    in the edge tiles past the partitions."""
    for k in range(n):
        h = int(rng.integers(1, min(2 * config.unit_rows + 1, config.rows) + 1))
        w = int(rng.integers(1, min(2 * config.unit_cols + 1, config.cols) + 1))
        r0 = config.rows - h if k % 2 else int(rng.integers(0, config.rows - h + 1))
        c0 = config.cols - w if k % 2 else int(rng.integers(0, config.cols - w + 1))
        yield (r0, r0 + h), (c0, c0 + w)


def crosses_tiles(config, rows, cols):
    return ((rows[0] // config.unit_rows != (rows[1] - 1) // config.unit_rows)
            or (cols[0] // config.unit_cols != (cols[1] - 1) // config.unit_cols))


@REGION_GEOMETRIES
def test_region_io_agrees_with_load_and_cells(geometry):
    # the C io sets and reads the same cells as the numpy load and cells
    config = CrossbarConfig(**geometry)
    xbar = Crossbar(config)
    rng = np.random.default_rng(27)
    state, written = rng.integers(0, 2, (2, config.rows, config.cols), dtype=np.uint8)
    xbar.load(state, written)
    regions = list(random_regions(config, rng, 24))
    assert sum(crosses_tiles(config, *region) for region in regions) >= 12
    for rows, cols in regions:
        at = (slice(*rows), slice(*cols))
        assert np.array_equal(xbar.read_region(rows, cols), state[at])
        block = rng.integers(0, 2, state[at].shape, dtype=np.uint8)
        xbar.write_region(rows, cols, block)
        state[at], written[at] = block, 1
        assert np.array_equal(xbar.cells(), state)
        assert np.array_equal(xbar.cells(initialized=True), written)
    assert xbar.stats.cycles == 2 * sum(r1 - r0 for (r0, r1), _ in regions)


@REGION_GEOMETRIES
@pytest.mark.parametrize("bad", [np.uint8(2), 2, -1, 0.6],
                         ids=["two-uint8", "two", "minus-one", "fraction"])
def test_region_write_of_a_bad_bit_sets_nothing(geometry, bad):
    # the bad bit is the block's last, so a writer that checked as it went
    # would have set every other cell first
    config = CrossbarConfig(**geometry)
    xbar = Crossbar(config)
    rng = np.random.default_rng(6)
    xbar.load(*rng.integers(0, 2, (2, config.rows, config.cols)))
    words = xbar.state.tobytes(), xbar.initialized.tobytes()
    for rows, cols in random_regions(config, rng, 6):
        block = rng.integers(0, 2, (rows[1] - rows[0], cols[1] - cols[0]))
        block = block.astype(np.asarray(bad).dtype)
        block[-1, -1] = bad
        with pytest.raises(ValueError, match="cell values must be 0 or 1"):
            xbar.write_region(rows, cols, block)
        assert (xbar.state.tobytes(), xbar.initialized.tobytes()) == words
    assert xbar.stats.cycles == 0


@REGION_GEOMETRIES
def test_strict_read_of_a_partly_written_region(geometry):
    config = CrossbarConfig(**geometry, strict_init=True)
    rng = np.random.default_rng(9)
    for rows, cols in random_regions(config, rng, 8):
        (r0, r1), (c0, c1) = rows, cols
        if (r1 - r0) * (c1 - c0) < 2:
            continue
        # every cell but the last, in row-major order
        xbar = Crossbar(config)
        if r1 - r0 > 1:
            xbar.write_region((r0, r1 - 1), cols, np.ones((r1 - r0 - 1, c1 - c0)))
        if c1 - c0 > 1:
            xbar.write_region((r1 - 1, r1), (c0, c1 - 1), np.ones((1, c1 - c0 - 1)))
        cycles = xbar.stats.cycles
        with pytest.raises(StrictInitError, match="read before being written"):
            xbar.read_region(rows, cols)
        assert xbar.stats.cycles == cycles
        xbar.write_region((r1 - 1, r1), (c1 - 1, c1), np.zeros((1, 1)))
        expected = np.ones((r1 - r0, c1 - c0))
        expected[-1, -1] = 0
        assert np.array_equal(xbar.read_region(rows, cols), expected)


@REGION_GEOMETRIES
def test_region_io_out_of_range(geometry):
    config = CrossbarConfig(**geometry)
    xbar = Crossbar(config)
    rows, cols = config.rows, config.cols
    for region in [((0, rows + 1), (0, 1)), ((0, 1), (cols - 1, cols + 1)),
                   ((-1, 1), (0, 1)), ((0, 1), (-1, 1)), ((3, 3), (0, 1)),
                   ((rows, rows + 1), (0, 1))]:
        shape = (max(region[0][1] - region[0][0], 0), max(region[1][1] - region[1][0], 0))
        with pytest.raises(AddressError):
            xbar.write_region(*region, np.ones(shape, dtype=np.uint8))
        with pytest.raises(AddressError):
            xbar.read_region(*region)
    assert not xbar.state.any() and not xbar.initialized.any()
    assert xbar.stats.cycles == 0


def test_region_io_follows_replaced_words():
    # the io writes the words through addresses looked up once, so the
    # words cannot be replaced, and a copy looks up its own
    xbar = small_xbar()
    xbar.write_region((0, 1), (0, 2), [[1, 1]])
    twin = copy.deepcopy(xbar)
    twin.write_region((0, 1), (2, 3), [[1]])
    assert xbar.read_region((0, 1), (0, 3)).tolist() == [[1, 1, 0]]
    assert twin.read_region((0, 1), (0, 3)).tolist() == [[1, 1, 1]]
    for name in ("state", "initialized", "partition_map"):
        with pytest.raises(AttributeError):
            setattr(xbar, name, getattr(twin, name))
    assert xbar.read_region((0, 1), (0, 3)).tolist() == [[1, 1, 0]]


@pytest.mark.parametrize("geometry", [
    {},
    dict(rows=38, cols=42, vertical_partitions=9, horizontal_partitions=10,
         unit_rows=4, unit_cols=4),
], ids=["default", "two-words"])
def test_load_of_cells_leaves_the_words_as_they_were(geometry):
    # the default grid's edge tiles are partial (16 rows, 25 columns); the
    # second grid's 110 tiles take two words per cell
    xbar = Crossbar(CrossbarConfig(**geometry))
    rows, cols = xbar.config.rows, xbar.config.cols
    rng = np.random.default_rng(4)
    state, initialized = (rng.integers(0, 2, (rows, cols)) for _ in range(2))
    xbar.load(state, initialized)
    assert np.array_equal(xbar.cells(), state)
    assert np.array_equal(xbar.cells(initialized=True), initialized)
    words, init_words = xbar.state.copy(), xbar.initialized.copy()
    xbar.load(xbar.cells())
    xbar.load(xbar.cells(), xbar.cells(initialized=True))
    assert np.array_equal(xbar.state, words)
    assert np.array_equal(xbar.initialized, init_words)
    # cells() is a copy: changing it changes no cell
    grid = xbar.cells()
    grid[:] = 1 - grid
    assert np.array_equal(xbar.state, words)
    # a value other than 0 or 1 is refused before any cell is set
    state[0, 0] = 2
    with pytest.raises(ValueError, match="0 or 1"):
        xbar.load(1 - initialized, state)
    assert np.array_equal(xbar.state, words)


def test_region_out_of_bounds():
    xbar = small_xbar()
    with pytest.raises(AddressError):
        xbar.write_region((0, 20), (0, 8), np.zeros((20, 8), dtype=np.uint8))
    with pytest.raises(AddressError):
        xbar.read_region((0, 8), (10, 20))


def test_strict_read_of_unwritten_region():
    xbar = small_xbar(strict_init=True)
    with pytest.raises(StrictInitError):
        xbar.read_region((0, 4), (0, 4))
    xbar.write_region((0, 4), (0, 4), np.ones((4, 4), dtype=np.uint8))
    assert (xbar.read_region((0, 4), (0, 4)) == 1).all()


def test_strict_gate_input():
    xbar = small_xbar(strict_init=True)
    op = MicroOp(GateType.NOT, ((0, 1),), (0, 0))
    with pytest.raises(StrictInitError):
        xbar.execute_bundle(CycleBundle([op]))
    xbar.config.strict_init = False
    xbar.execute_bundle(CycleBundle([op]))  # suppressible by config


# ----------------------------------------------------------------------- stats

def test_energy_invariant():
    xbar = small_xbar()
    initialize_all(xbar)
    for rows in (range(3), range(8), range(2)):
        xbar.execute_bundle(row_parallel_nor_bundle(rows))
    assert xbar.stats.energy_fj == xbar.stats.gate_executions * 6.4
    assert sum(e.cycles for e in xbar.stats.per_label.values()) == xbar.stats.cycles


def test_config_validation():
    with pytest.raises(ValueError):
        CrossbarConfig(rows=0)
    with pytest.raises(ValueError):
        CrossbarConfig(rows=100, vertical_partitions=2, unit_rows=72)
    with pytest.raises(ValueError):
        CrossbarConfig(gate_delay_ns=-1)
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            CrossbarConfig(gate_delay_ns=value)
        with pytest.raises(ValueError):
            CrossbarConfig(gate_energy_fj=value)
    # counts are integers: a float, even a whole one, or a bool is refused
    for name in ("rows", "cols", "horizontal_partitions", "vertical_partitions",
                 "unit_rows", "unit_cols", "io_cycles_per_row"):
        whole = getattr(CrossbarConfig(), name)
        for value in (whole + 0.5, float(whole), True):
            with pytest.raises(ValueError, match=name):
                CrossbarConfig(**{name: value})
    # numpy integers are accepted, as ints
    config = CrossbarConfig(rows=np.int64(1024), horizontal_partitions=np.int32(27),
                            io_cycles_per_row=np.uint8(1))
    assert config == CrossbarConfig()
    assert all(type(v) is int for v in config.geometry + (config.io_cycles_per_row,))
    assert Crossbar(config).cells().shape == (1024, 1024)
    # cost parameters are numbers, not bools or strings
    for name in ("gate_delay_ns", "gate_energy_fj", "cell_area_f2"):
        for value in (True, "3.0"):
            with pytest.raises(ValueError, match=name):
                CrossbarConfig(**{name: value})
    # strict_init is a bool: a truthy string or an int would be misread
    for value in ("no", 1, None):
        with pytest.raises(ValueError, match="strict_init"):
            CrossbarConfig(strict_init=value)
    for value in (np.bool_(True), np.bool_(False)):
        config = CrossbarConfig(strict_init=value)
        assert config.strict_init is bool(value)


def brute_region(config, cell, closed):
    """Open partition boundaries at or before ``cell``, counted one by one."""
    row_bounds = [config.unit_rows * i for i in range(1, config.vertical_partitions)]
    col_bounds = [config.unit_cols * i for i in range(1, config.horizontal_partitions)]
    return (sum(b <= cell[0] and ("row", b) not in closed for b in row_bounds),
            sum(b <= cell[1] and ("col", b) not in closed for b in col_bounds))


def edge_lines(unit, parts, size):
    """Both sides of every partition edge, the margin past the grid included."""
    return sorted({0, size - 1} | {unit * k + d for k in range(1, parts + 1)
                                   for d in (-1, 0)})


@pytest.mark.parametrize("config, cells", [
    (small_xbar().config, list(itertools.product(range(16), repeat=2))),
    (CrossbarConfig(), None),
], ids=["oracle_16x16", "default"])
def test_region_of_counts_open_boundaries(config, cells):
    partitions = PartitionMap(config)
    if cells is None:   # a sample: cells on partition edges, then anywhere
        rng = random.Random(11)
        rows = edge_lines(config.unit_rows, config.vertical_partitions, config.rows)
        cols = edge_lines(config.unit_cols, config.horizontal_partitions, config.cols)
        cells = [(rng.choice(rows), rng.choice(cols)) for _ in range(40)] \
            + [(rng.randrange(config.rows), rng.randrange(config.cols))
               for _ in range(40)]
    # every set of at most two closed ids: the switches, and one id that is not
    ids = sorted(partitions.switches) + [("row", config.unit_rows // 2)]
    closed_sets = [frozenset(c) for n in range(3)
                   for c in itertools.combinations(ids, n)]
    for closed in closed_sets:
        for cell in cells:
            assert partitions.region_of(cell, closed) == \
                brute_region(config, cell, closed), (cell, sorted(closed))


# 2 x 3 partitions of 4 x 4 cells, with a margin of 3 rows and 2 columns
MARGIN_GEOMETRY = CrossbarConfig(rows=11, cols=14, vertical_partitions=2,
                                 horizontal_partitions=3, unit_rows=4, unit_cols=4)


@pytest.mark.parametrize("config", [small_xbar().config, MARGIN_GEOMETRY,
                                    CrossbarConfig()],
                         ids=["oracle_16x16", "margin_11x14", "default"])
def test_partition_map_tiles_units_and_switches(config):
    partitions = PartitionMap(config)
    # every cell round-trips through its tile and local index, and every tile
    # holds cells
    r, c = (a.ravel() for a in np.indices((config.rows, config.cols)))
    tile, local = partitions.locate(r, c)
    back = partitions.cell(tile, local)
    assert np.array_equal(back[0], r) and np.array_equal(back[1], c)
    assert (0 <= local).all() and (local < config.unit_rows * config.unit_cols).all()
    assert len(np.unique(tile)) == partitions.n_tiles
    # unit u's partition is tile u, and its origin is that tile's cell 0
    units = np.arange(config.num_units)
    v, h = partitions.partition(units)
    assert np.array_equal(v * config.horizontal_partitions + h, units)
    origin = partitions.offset(np.column_stack([v, h]))
    assert np.array_equal(origin, np.column_stack([v * config.unit_rows,
                                                   h * config.unit_cols]))
    tile, local = partitions.locate(origin[:, 0], origin[:, 1])
    assert np.array_equal(tile, units) and not local.any()
    # the switch between partitions k - 1 and k, spelled for each boundary,
    # is exactly the set of switches, and closing it merges the two
    spelled = {partitions.switch("row", k) for k in range(1, partitions.vparts)} \
        | {partitions.switch("col", k) for k in range(1, partitions.hparts)}
    assert spelled == partitions.switches
    for kind, k in spelled:
        before, after = ((k - 1, 0), (k, 0)) if kind == "row" else ((0, k - 1), (0, k))
        for closed, step in ((frozenset(), 1), (frozenset({(kind, k)}), 0)):
            assert np.subtract(partitions.region_of(after, closed),
                               partitions.region_of(before, closed)).sum() == step


# ----------------------------------------------------------------------- trace

def test_trace_export_format():
    # a row-parallel NOR2 run on two units, then a preset on one row
    xbar = small_xbar()
    stream = io.StringIO()
    xbar.attach_trace(stream)
    run = MicroOp(GateType.NOR2, ((0, 1), (0, 2)), (0, 0), count=2, stride=(1, 0))
    bundles = [CycleBundle([run]),
               CycleBundle([MicroOp(GateType.INIT1, (), (1, 3))])]
    [frozen] = engine.freeze(line_table(bundles), ["theta", "main"],
                             [engine.SET_UNIT, engine.SET_PARTITION_ROW],
                             xbar.config)
    engine.replay(frozen, xbar, [np.array([[0, 0], [1, 1]]), np.array([[1, 0]]),
                                 np.zeros((0, 2), dtype=int)])
    header, *records = map(json.loads, stream.getvalue().splitlines())
    assert header == {"trace_schema": 3, "shifts": [[[0, 0], [8, 8]], [[8, 0]], []]}
    assert len(records) == 2
    record = records[0]
    assert set(record) == {"cycle", "label", "set", "events"}
    assert (record["cycle"], record["label"], record["set"]) == (1, "theta", 0)
    # gate, cell count, step between cells, first output, its inputs
    assert record["events"] == [["NOR2", 2, [1, 0], [0, 0], [[0, 1], [0, 2]]]]
    # a preset reads nothing
    assert records[1] == {"cycle": 2, "label": "main", "set": 1,
                          "events": [["INIT1", 1, [0, 0], [1, 3], []]]}
