"""Crossbar SHA-3: layout, padding, per-step equivalence, rotation, hashing."""

import dataclasses
import gc
import hashlib
import io
import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest

from sha3pim import engine, keccak_xbar
from sha3pim import keccak_ref as ref
from sha3pim.crossbar import (
    GATE_NUM_INPUTS,
    CapacityError,
    Crossbar,
    CrossbarConfig,
    ExecutionStats,
    GateType,
)
from sha3pim.keccak_xbar import (
    KECCAK,
    LANE_BITS,
    CrossbarLayout,
    KeccakParams,
    UnitLayout,
    bits_to_lanes,
    blocks_state_bits,
    blocks_to_bits,
    compiled_keccak,
    hash_message,
    hash_messages,
    lanes_to_bits,
    measure_round_stats,
    pad_message,
    rc_fetch_microcode,
    read_unit_state,
    rot_fetch_microcode,
    write_unit_state,
)
from conftest import random_lanes


# ------------------------------------------------------------------ structure

def test_unit_packing_default_crossbar():
    layout = CrossbarLayout(CrossbarConfig())
    assert layout.num_units == 378
    assert UnitLayout.ROWS == 72 and UnitLayout.COLS == 37
    origins = {layout.unit_origin(u) for u in range(layout.num_units)}
    assert len(origins) == 378
    assert max(r for r, _ in origins) + 72 <= 1024
    assert max(c for _, c in origins) + 37 <= 1024


def test_state_mapping():
    unit = UnitLayout((72, 37))
    assert unit.lane_col(0, 0) == 37
    assert unit.lane_col(2, 3) == 37 + 13
    assert unit.row(5) == 77
    assert unit.t_row == 72 + 64
    # scratch fits in the unit
    assert unit.m_col == 37 + 36


def test_params_validation():
    assert KECCAK.state_bits == KECCAK.rate_bits + KECCAK.capacity_bits
    with pytest.raises(ValueError):
        KeccakParams(rate_bits=1100, capacity_bits=512)


def test_lanes_to_bits_layout():
    # spelled independently of the module's table: bit z of lane x + 5y
    # sits at row z, column 5x + y
    lanes = random_lanes(random.Random(4))
    bits = lanes_to_bits(lanes)
    assert all(bits[z, 5 * x + y] == (lanes[x + 5 * y] >> z) & 1
               for x in range(5) for y in range(5) for z in range(64))


def test_shared_blocks_hold_reference_tables(prepared_xbar):
    # read back through an independent spelling of the layout: offset
    # r[x][y] bit-sliced down the ROT rows of column 5x + y of every unit
    # column, round constant i down rows 0-63 of RC column i of every unit row
    layout = CrossbarLayout(CrossbarConfig())
    state = prepared_xbar.cells()
    rot_rows = range(layout.rot_base_row, layout.rot_base_row + 6)
    for h in range(layout.hparts):
        assert [[sum(int(state[row, 37 * h + 5 * x + y]) << j
                     for j, row in enumerate(rot_rows)) for y in range(5)]
                for x in range(5)] == ref.ROTATION
    for v in range(layout.vparts):
        assert [sum(int(state[72 * v + z, layout.rc_base_col + i]) << z
                    for z in range(64)) for i in range(24)] == ref.ROUND_CONSTANTS


def test_lane_bit_roundtrip():
    rng = random.Random(8)
    lanes = random_lanes(rng)
    assert bits_to_lanes(lanes_to_bits(lanes)) == lanes


def test_constant_tables_match_reference():
    # deliberately duplicated tables (the oracle shares no code): keep equal
    from sha3pim.keccak_xbar import ROTATION_OFFSETS, ROUND_CONSTANTS
    assert ROTATION_OFFSETS == ref.ROTATION
    assert ROUND_CONSTANTS == ref.ROUND_CONSTANTS
    assert ROTATION_OFFSETS[0][0] == 0
    assert all(0 <= ROTATION_OFFSETS[x][y] < 64
               for x in range(5) for y in range(5))
    assert ROUND_CONSTANTS[0] == 0x0000000000000001
    assert len(ROUND_CONSTANTS) == 24


@pytest.mark.parametrize("fetch", ["rc", "rot"])
def test_fetch_chain_reads_no_shared_block(fetch):
    # why each fetch chain is compiled once: the first hops differ only in
    # the shared-block line they read, and the chain reads no block line
    layout = CrossbarLayout(CrossbarConfig())
    if fetch == "rc":
        *hops, chain = rc_fetch_microcode(layout)
        lines, axis = [layout.rc_col(r) for r in range(KECCAK.rounds)], 1
    else:
        *hops, chain = rot_fetch_microcode(layout)
        lines = [layout.rot_base_row + j for j in range(layout.ROT_PLANES)]
        axis = 0

    def block_lines_read(stream):
        return {cell[axis] for group in stream.groups() for op in group
                for cell in op.inputs} & set(lines)

    def with_line_blanked(stream, line):
        def blank(cell):
            return tuple(-1 if k == axis and v == line else v
                         for k, v in enumerate(cell))
        return [[dataclasses.replace(op, inputs=tuple(map(blank, op.inputs)))
                 for op in group] for group in stream.groups()]

    assert len(hops) == len(lines)
    assert [block_lines_read(hop) for hop in hops] == [{line} for line in lines]
    blanked = [with_line_blanked(hop, line) for hop, line in zip(hops, lines)]
    assert all(b == blanked[0] for b in blanked)
    assert len(chain) > 0 and block_lines_read(chain) == set()


def test_compiled_program_shape(compiled):
    # how the compile is organised must not change what it emits
    permute = compiled.permute
    assert permute.n_bundles == 78_000
    assert permute.n_events == 90_576
    assert permute.n_gate_executions == 3_009_744
    assert dict(zip(permute.label_names, permute.cycles_by_label.tolist())) == {
        "rho": 57_456, "theta": 9_312, "chi": 6_120, "iota": 2_712, "pi": 2_400}
    assert [(p.n_bundles, p.n_events) for p in compiled.absorb] == [
        (50, 60), (35, 42)]
    # the largest local (row, col) each key reaches, which replay's bounds
    # check reads; the digest is of its values as int16, which hold them
    reach = hashlib.sha256()
    for program in (permute, *compiled.absorb):
        assert program.rows.dtype == program.reach.dtype == np.int32
        reach.update(program.reach.astype(np.int16).tobytes())
    assert reach.hexdigest() == (
        "ea511899edf2ec43e166fc939f7b8275b88634b48528d5fb6056ecaae04c669f")


def test_compile_carries_runs(monkeypatch):
    # The compile's own structure on the default geometry: the generators
    # emit runs of lines, and the scheduler packs runs, then expands each
    # batch of streams to its lines once, checks its bundles at once and
    # freezes it once. A fall back to one macro or micro-op per line
    # multiplies the run counts, and a second expansion of a batch adds to
    # the expansions, while every figure the programs carry stays the same.
    from sha3pim import crossbar, keccak_xbar, scheduler
    scheduled, checks, frozen, expanded, joined = [], [], [], [], []
    schedule, check_bundle = keccak_xbar.schedule, Crossbar.check_bundle
    freeze, concat, line_table = engine.freeze, engine.concat, crossbar.line_table

    def recorded_schedule(streams, crossbar):
        scheduled.append((streams, schedule(streams, crossbar)))
        return scheduled[-1][1]

    def counted_check(self, bundles, *lines):
        checks.append([len(bundle.ops) for bundle in bundles])
        return check_bundle(self, bundles, *lines)

    def recorded_freeze(*args):
        frozen.append(freeze(*args))
        return frozen[-1]

    def recorded_concat(programs):
        joined.append(programs)
        return concat(programs)

    def counted_expansion(bundles, *segments):
        expanded.append(line_table(bundles, *segments))
        return expanded[-1]

    monkeypatch.setattr(keccak_xbar, "schedule", recorded_schedule)
    monkeypatch.setattr(Crossbar, "check_bundle", counted_check)
    monkeypatch.setattr(engine, "freeze", recorded_freeze)
    monkeypatch.setattr(engine, "concat", recorded_concat)
    for module in (crossbar, scheduler):
        monkeypatch.setattr(module, "line_table", counted_expansion)
    compiled = keccak_xbar.CompiledKeccak(CrossbarConfig())
    # 44 streams in 7 batches: ROT chain and rho, theta, pi, chi, then
    # the RC chain, iota and absorb
    assert [len(batch) for batch, _ in scheduled] == [6, 4, 3, 1, 1, 1, 28]
    streams = [stream for batch, _ in scheduled for stream in batch]
    assert sum(len(stream) for stream in streams) == 61_821       # lines
    assert sum(len(group) for stream in streams
               for group in stream.groups()) == 1_794             # runs
    assert sum(len(program.bundles) for _, program in scheduled) == 3_167
    # one check per batch, of all its bundles
    assert len(checks) == 7
    assert sum(len(bundles) for bundles in checks) == 3_167
    assert sum(map(sum, checks)) == 3_708                         # micro-op runs
    # each batch expanded to its lines once, for all four readers; no
    # table is longer than the longest stream's (theta's) alone
    assert len(expanded) == 7
    assert sum(table.cells.shape[0] for table in expanded) == 131_322
    assert max(table.cells.shape[0] for table in expanded) == 23_060
    # freeze, once per batch, writes a program per stream and one row per
    # micro-op run
    assert len(frozen) == 7
    programs = [program for batch in frozen for program in batch]
    assert len(programs) == 44
    assert sum(program.n_events for program in programs) == 3_708
    # permute is one concat: 24 segments a round, 42 of them distinct
    [parts] = joined
    assert len(parts) == 24 * 24 and len({id(p) for p in parts}) == 42
    assert compiled.permute.n_events == 90_576


def cycle_rows(program, lo, hi):
    """The stored rows that cycles ``lo`` to ``hi`` run, in order, and how
    many each cycle runs."""
    stored = program.order[lo:hi]
    sizes = np.diff(program.bundle_ptr)[stored]
    starts = np.repeat(program.bundle_ptr[stored] - (np.cumsum(sizes) - sizes), sizes)
    return starts + np.arange(sizes.sum()), sizes


def expanded_lines(program, lo, hi):
    """The lines that cycles ``lo`` to ``hi`` run (bundle, [line, 8]), sorted.

    A line is its gate, then the tile-local cell and key of each slot it
    uses (-1 and -1 for a slot it does not use), then its row's ``live``.
    """
    stored_rows, sizes = cycle_rows(program, lo, hi)
    rows = program.rows[stored_rows].astype(np.int64)
    step, span = rows[:, 1], rows[:, 2]
    count = (span - 1) // step + 1
    row = np.repeat(np.arange(rows.shape[0]), count)
    along = np.arange(row.shape[0]) - np.repeat(np.cumsum(count) - count, count)
    rows = rows[row]
    arity = np.array([GATE_NUM_INPUTS[g] for g in GateType])[rows[:, 0]]
    used = np.arange(3) <= arity[:, None]
    local = np.where(used, rows[:, 3::2] + (along * step[row])[:, None], -1)
    key = np.where(used, rows[:, 4::2], -1)
    table = np.column_stack([rows[:, 0], np.stack([local, key], axis=2).reshape(-1, 6),
                             program.live[stored_rows][row]])
    bundle = np.repeat(np.arange(lo, hi), sizes)[row]
    order = np.lexsort((*table.T[::-1], bundle))
    return bundle[order], table[order]


def test_compiled_programs_fingerprint(compiled):
    # Pins every line of permute and both absorb programs, bundle by
    # bundle: its label and its sorted lines, so neither the order inside
    # a bundle nor how freeze cuts lines into rows can move it. A change to
    # this digest is a modelling change and is recorded in CHANGES.md, like
    # a change to perfbench/expected_sim.json.
    digest = hashlib.sha256()
    for program in (compiled.permute, *compiled.absorb):
        # 2,000 bundles at a time: permute expands to 3,009,744 lines
        for lo in range(0, program.n_bundles, 2_000):
            hi = min(lo + 2_000, program.n_bundles)
            bundle, table = expanded_lines(program, lo, hi)
            ends = np.searchsorted(bundle, np.arange(lo, hi + 1))
            for b in range(lo, hi):
                label = program.label_names[program.bundle_label[program.order[b]]]
                lines = table[ends[b - lo]:ends[b - lo + 1]]
                digest.update(f"{label}:{len(lines)};".encode())
                digest.update(lines.tobytes())
    assert digest.hexdigest() == (
        "76c0549b068c746236de2c7706f69d60af168d81f8507b68d649923d3726cd34")


@pytest.mark.parametrize("units", [1, 378])
def test_dead_presets_skip_without_changing_the_grid(compiled, units):
    # every preset of the compiled microcode is overwritten unread, so
    # replay runs only the gate rows; the grid must match running every
    # row. The live count is of the rows the cycles run
    programs = [(compiled.permute, 45_288), (compiled.absorb[0], 30),
                (compiled.absorb[1], 21)]
    deltas = compiled.deltas_for(list(range(units)))
    rng = np.random.default_rng(units)
    for program, live in programs:
        presets = program.rows[:, 0] == GateType.INIT1
        assert not program.live[presets].any()
        assert program.live[~presets].all()
        assert int(program.live[cycle_rows(program, 0, program.n_bundles)[0]].sum()) == live
        every_row = dataclasses.replace(program, live=np.ones_like(program.live))
        state = rng.integers(0, 2, (1024, 1024), dtype=np.uint8)
        grids = []
        for frozen in (program, every_row):
            xbar = Crossbar(CrossbarConfig())
            xbar.load(state)
            engine.replay(frozen, xbar, deltas)
            grids.append(xbar.cells())
        assert np.array_equal(*grids)


# -------------------------------------------------------------------- padding

def test_pad_empty_message():
    blocks = pad_message(b"")
    assert len(blocks) == 1
    block = blocks[0]
    assert block[0] == 0x06
    assert block[135] == 0x80
    assert all(b == 0 for b in block[1:135])


@pytest.mark.parametrize("length", [135, 271])
def test_pad_boundary_135_bytes(length):
    blocks = pad_message(bytes(length))
    assert len(blocks) == length // 136 + 1
    assert blocks[-1][135] == 0x86  # 0x06 and 0x80 share the final byte


@pytest.mark.parametrize("length", [136, 272])
def test_pad_exact_rate_forces_extra_block(length):
    blocks = pad_message(bytes(length))
    assert len(blocks) == length // 136 + 1
    assert blocks[-1][0] == 0x06
    assert blocks[-1][135] == 0x80
    assert not any(blocks[-1][1:135])


def test_first_block_state_bits():
    block = pad_message(b"")[0]
    bits = blocks_state_bits([block])[0]
    lanes = bits_to_lanes(bits)
    assert lanes[0] == 0x06          # first byte, little-endian lane 0
    assert lanes[16] == 0x80 << 56   # final rate lane carries the 0x80
    assert all(lanes[i] == 0 for i in range(17, 25))


# ---------------------------------------------------------- state load (io)

def test_unit_state_io_roundtrip(compiled):
    xbar = Crossbar(CrossbarConfig())
    unit = compiled.layout.unit(17)
    rng = random.Random(3)
    lanes = random_lanes(rng)
    write_unit_state(xbar, unit, lanes_to_bits(lanes))
    assert bits_to_lanes(read_unit_state(xbar, unit)) == lanes
    assert xbar.stats.per_label["io"].cycles == 128
    assert xbar.stats.gate_executions == 0


def test_absorb_matches_oracle(compiled):
    # absorbing a block equals XOR at the software level (permute excluded),
    # on every unit the shifts place, each with its own block
    xbar = Crossbar(CrossbarConfig())
    compiled.layout.setup_shared_blocks(xbar)
    rng = random.Random(21)
    unit_ids = [0, 30]
    lanes = [random_lanes(rng) for _ in unit_ids]
    blocks = [rng.randbytes(KECCAK.rate_bytes) for _ in unit_ids]
    for u, state in zip(unit_ids, lanes):
        write_unit_state(xbar, compiled.layout.unit(u), lanes_to_bits(state))
    compiled.run_absorb(xbar, compiled.deltas_for(unit_ids), blocks_to_bits(blocks))
    for u, state, block in zip(unit_ids, lanes, blocks):
        expected = list(state)
        for lane in range(17):
            expected[lane] ^= int.from_bytes(block[8 * lane:8 * lane + 8], "little")
        assert bits_to_lanes(read_unit_state(xbar, compiled.layout.unit(u))) \
            == expected


def test_deltas_for_gives_partition_shifts(compiled):
    # units 0, 1, 2 and 30 of the 27 partition columns sit in partitions
    # (0, 0), (0, 1), (0, 2) and (1, 3)
    units, rows, cols = compiled.deltas_for([0, 1, 2, 30])
    assert units.tolist() == [[0, 0], [0, 1], [0, 2], [1, 3]]
    assert rows.tolist() == [[0, 0], [1, 0]]
    assert cols.tolist() == [[0, 0], [0, 1], [0, 2], [0, 3]]


@pytest.mark.parametrize("config", [
    CrossbarConfig(),
    CrossbarConfig(rows=300, cols=200, vertical_partitions=3, horizontal_partitions=2),
    CrossbarConfig(rows=78, cols=61, vertical_partitions=1, horizontal_partitions=1),
], ids=["27x14", "3x2", "1x1"])
def test_contiguous_units_need_no_tile_list(config):
    # the tile map numbers partitions in unit-id order, so the first n units
    # move every key to evenly spaced tiles (the RC tiles of the 3x2 grid
    # are 4 ids apart), and replay, which refuses any other set before a
    # bundle runs, takes every n; with no bundles, only that check runs,
    # and nothing is charged
    compiled, xbar = compiled_keccak(config), Crossbar(config)
    for n in range(1, config.num_units + 1):
        shifts = compiled.deltas_for(range(n))
        for program in (compiled.permute, *compiled.absorb):
            keys_only = dataclasses.replace(
                program, rows=program.rows[:0], live=program.live[:0],
                bundle_ptr=program.bundle_ptr[:1], bundle_label=program.bundle_label[:0],
                order=program.order[:0])
            engine.replay(keys_only, xbar, shifts)
    assert xbar.stats.cycles == 0
    assert xbar.stats.gate_executions == 0


def test_absorb_twice_cancels(compiled):
    xbar = Crossbar(CrossbarConfig())
    compiled.layout.setup_shared_blocks(xbar)
    unit = compiled.layout.unit(0)
    write_unit_state(xbar, unit, np.zeros((64, 25), dtype=np.uint8))
    rng = random.Random(5)
    block = rng.randbytes(KECCAK.rate_bytes)
    for _ in range(2):
        compiled.run_absorb(xbar, compiled.deltas_for([0]), blocks_to_bits([block]))
    assert bits_to_lanes(read_unit_state(xbar, unit)) == [0] * 25


def test_a_bad_last_row_is_refused(compiled):
    # a program checks all of its rows at once, the last of the largest
    # compiled program included
    rows = compiled.permute.rows.copy()
    rows[-1, 8] = -1
    with pytest.raises(ValueError, match="key is outside"):
        dataclasses.replace(compiled.permute, rows=rows)


def test_compiled_programs_hold_little_memory(compiled):
    # permute stores each of its segments once: one round's theta, rho, pi
    # and chi, the RC chain and iota's own XOR, and each round's first RC
    # hop. The programs the compile keeps at 27x14, permute and the two
    # absorb programs, hold at most 0.55 MB of arrays, counting the whole
    # array that each view keeps alive
    held = {}
    for program in (compiled.permute, *compiled.absorb):
        for value in vars(program).values():
            if isinstance(value, np.ndarray):
                while isinstance(value.base, np.ndarray):
                    value = value.base
                held[id(value)] = value.nbytes
    assert sum(held.values()) <= 550_000
    assert compiled.permute.rows.shape[0] == 3_606
    assert compiled.permute.bundle_label.shape[0] == 3_082


def test_compiled_programs_hold_no_writable_array(compiled):
    # the kernel reads a program's arrays through raw pointers after they
    # were checked, so neither they nor any array behind them is writable
    programs = (compiled.permute, *compiled.absorb, compiled.step_program("rho", 0))
    for program in programs:
        for name, value in vars(program).items():
            while isinstance(value, np.ndarray):
                assert not value.flags.writeable, name
                value = value.base


def test_step_programs_add_up_to_permute(compiled):
    # permute is the step programs of the 24 rounds in turn: their orders
    # concatenate to its order, each runs its own step's cycles only, and
    # together they charge what it charges
    steps = ("theta", "rho", "pi", "chi", "iota")
    one_unit = CrossbarConfig(rows=100, cols=100, vertical_partitions=1,
                              horizontal_partitions=1)
    for geometry in (compiled, compiled_keccak(one_unit)):
        programs = [geometry.step_program(step, r)
                    for r in range(KECCAK.rounds) for step in steps]
        permute = geometry.permute
        assert (np.concatenate([p.order for p in programs]).tolist()
                == permute.order.tolist())
        for step, program in zip(itertools.cycle(steps), programs):
            assert [name for name, n in zip(permute.label_names,
                                            program.cycles_by_label.tolist()) if n] == [step]
        # each reaches only the cells its cycles touch: theta those of the
        # unit set alone, and all of them together what permute reaches
        assert (programs[0].reach[geometry.layout.partition_map.n_tiles:] < 0).all()
        assert np.array_equal(np.maximum.reduce([p.reach for p in programs]), permute.reach)
        whole = engine.concat(programs)
        assert whole.n_bundles == permute.n_bundles
        assert whole.n_events == permute.n_events
        assert whole.label_names == permute.label_names
        assert whole.cycles_by_label.tolist() == permute.cycles_by_label.tolist()
        assert whole.gates_by_label_set.tolist() == permute.gates_by_label_set.tolist()
    assert compiled.permute.n_bundles == 78_000
    assert compiled.permute.n_events == 90_576


def test_microcode_runs_every_gate(compiled):
    # a gate that no microcode emits is dead code in the model and the kernel
    rows = np.concatenate([p.rows for p in (compiled.permute, *compiled.absorb)])
    assert {GateType(g) for g in np.unique(rows[:, 0]).tolist()} == set(GateType)


# ------------------------------------------------------- per-step equivalence

STEP_FNS = {
    "theta": ref.theta,
    "rho": ref.rho,
    "pi": ref.pi,
    "chi": ref.chi,
}


@pytest.mark.parametrize("step", ["theta", "rho", "pi", "chi"])
def test_step_zero_state(step, step_runner):
    assert step_runner.run(step, [0] * 25) == [0] * 25


@pytest.mark.parametrize("step", ["theta", "rho", "pi", "chi"])
def test_step_random_states(step, step_runner):
    rng = random.Random(hash(step) & 0xFFFF)
    for _ in range(10):
        lanes = random_lanes(rng)
        assert step_runner.run(step, lanes) == STEP_FNS[step](lanes), step


def test_theta_single_bit(step_runner):
    lanes = [0] * 25
    lanes[0] = 1
    assert step_runner.run("theta", lanes) == ref.theta(lanes)


def test_rho_single_bit(step_runner):
    lanes = [0] * 25
    lanes[1] = 1                       # lane (1,0), offset 1
    out = step_runner.run("rho", lanes)
    assert out[1] == 1 << ref.ROTATION[1][0]
    assert out == ref.rho(lanes)


def test_pi_distinct_markers(step_runner):
    lanes = [i + 1 for i in range(25)]
    assert step_runner.run("pi", lanes) == ref.pi(lanes)


def test_pi_applied_24_times_is_identity(step_runner):
    rng = random.Random(400)
    lanes = random_lanes(rng)
    state = lanes
    for _ in range(24):
        state = step_runner.run("pi", state)
    assert state == lanes


def test_chi_all_ones(step_runner):
    lanes = [(1 << 64) - 1] * 25
    assert step_runner.run("chi", lanes) == ref.chi(lanes)


@pytest.mark.parametrize("round_index", [0, 11, 23])
def test_iota_rounds(step_runner, round_index):
    assert step_runner.run("iota", [0] * 25, round_index) == \
        ref.iota([0] * 25, round_index)
    rng = random.Random(round_index)
    lanes = random_lanes(rng)
    assert step_runner.run("iota", lanes, round_index) == \
        ref.iota(lanes, round_index)


def test_iota_round_zero_constant(step_runner):
    out = step_runner.run("iota", [0] * 25, 0)
    assert out[0] == 0x0000000000000001


def test_iota_twice_restores(step_runner):
    once = step_runner.run("iota", [0] * 25, 7)
    twice = step_runner.run("iota", once, 7)
    assert twice == [0] * 25


def test_iota_cumulative_all_rounds(step_runner):
    state = [0] * 25
    for round_index in range(24):
        state = step_runner.run("iota", state, round_index)
    expected = 0
    for rc in ref.ROUND_CONSTANTS:
        expected ^= rc
    assert state[0] == expected
    assert state[1:] == [0] * 24


@pytest.mark.parametrize("step,round_index",
                         [("iota", 0), ("iota", 11), ("iota", 23), ("rho", 0)])
def test_step_on_every_unit(compiled, step, round_index):
    # every hop of the shared RC and ROT fetch chains feeds some unit, under
    # every partition-row and partition-column shift
    xbar = Crossbar(CrossbarConfig())
    compiled.layout.setup_shared_blocks(xbar)
    units = list(range(compiled.layout.num_units))
    rng = random.Random(f"{step}-{round_index}")
    states = [random_lanes(rng) for _ in units]
    for unit_id, lanes in zip(units, states):
        write_unit_state(xbar, compiled.layout.unit(unit_id), lanes_to_bits(lanes))
    engine.replay(compiled.step_program(step, round_index), xbar,
                  compiled.deltas_for(units))
    for unit_id, lanes in zip(units, states):
        expected = (ref.iota(lanes, round_index) if step == "iota"
                    else ref.rho(lanes))
        got = bits_to_lanes(read_unit_state(xbar, compiled.layout.unit(unit_id)))
        assert got == expected, unit_id


def test_step_programs_share_the_trace_records_of_permute(compiled):
    # a step program stores permute's bundles, so it reuses their trace
    # records, formatted once, and traces as with records made afresh
    programs = [compiled.step_program("theta", 0), compiled.step_program("pi", 5)]
    assert all(p.trace_tails is compiled.permute.trace_tails for p in programs)
    for program in programs:
        traces = []
        for frozen in (program, dataclasses.replace(program)):
            xbar = Crossbar(CrossbarConfig())
            xbar.attach_trace(io.StringIO())
            engine.replay(frozen, xbar, compiled.deltas_for([0]))
            traces.append(xbar.trace.getvalue())
        assert traces[0] == traces[1]


def test_permute_marks_only_presets_dead(compiled):
    # the kernel skips every row marked dead, so a program marking a gate
    # row dead would run none of its gates and still charge them
    permute = compiled.permute
    with pytest.raises(ValueError, match="dead"):
        dataclasses.replace(permute, live=np.zeros_like(permute.live))


@pytest.mark.parametrize("round_index", [True, 2.0, "1"])
def test_step_program_refuses_a_round_index_that_is_no_integer(compiled, round_index):
    with pytest.raises(ValueError, match="round_index must be an integer"):
        compiled.step_program("theta", round_index)


def test_step_program_takes_a_numpy_round_index(compiled):
    program = compiled.step_program("iota", np.int64(3))
    assert program.order.tolist() == compiled.step_program("iota", 3).order.tolist()


@pytest.mark.parametrize("step", ["theta", "rho", "pi", "chi", "iota"])
def test_iota_out_of_range(compiled, step):
    # every step names a round, not only the one whose program differs
    for round_index in (-1, KECCAK.rounds):
        with pytest.raises(ValueError, match="out of range"):
            compiled.step_program(step, round_index=round_index)


# ----------------------------------------------------------- variable rotation

def custom_offset_table(offsets25):
    table = [[0] * 5 for _ in range(5)]
    for x in range(5):
        for y in range(5):
            table[x][y] = offsets25[5 * x + y]   # indexed by lane column
    return table


def rotate_with_offsets(step_runner, lanes_by_col, offsets_by_col):
    """Run the in-array rotation with arbitrary offsets in the ROT block."""
    table = custom_offset_table(offsets_by_col)
    step_runner.set_offsets(table)
    lanes = [0] * 25
    for col, value in enumerate(lanes_by_col):
        x, y = divmod(col, 5)
        lanes[x + 5 * y] = value
    out = step_runner.run("rho", lanes)
    step_runner.set_offsets(ref.ROTATION)   # restore
    result = []
    for col in range(25):
        x, y = divmod(col, 5)
        result.append(out[x + 5 * y])
    return result


def test_rotate_identity_offset(step_runner):
    rng = random.Random(42)
    lanes = [rng.getrandbits(64) for _ in range(25)]
    assert rotate_with_offsets(step_runner, lanes, [0] * 25) == lanes


def test_rotate_single_bit(step_runner):
    lanes = [0] * 25
    lanes[0] = 1
    out = rotate_with_offsets(step_runner, lanes, [1] + [0] * 24)
    assert out[0] == 2


def test_rotate_random_pairs(step_runner):
    rng = random.Random(77)
    for _ in range(4):   # 4 batches x 25 lanes = 100 pairs
        lanes = [rng.getrandbits(64) for _ in range(25)]
        offsets = [rng.randrange(64) for _ in range(25)]
        out = rotate_with_offsets(step_runner, lanes, offsets)
        assert out == [ref.rotl64(v, k) for v, k in zip(lanes, offsets)]


def test_rotate_composition(step_runner):
    rng = random.Random(88)
    lanes = [rng.getrandbits(64) for _ in range(25)]
    s = [rng.randrange(64) for _ in range(25)]
    t = [rng.randrange(64) for _ in range(25)]
    once = rotate_with_offsets(step_runner, lanes, s)
    twice = rotate_with_offsets(step_runner, once, t)
    combined = rotate_with_offsets(step_runner, lanes,
                                   [(a + b) % 64 for a, b in zip(s, t)])
    assert twice == combined


# -------------------------------------------------------------------- hashing

def test_hash_empty_and_abc():
    for message in (b"", b"abc"):
        digest, stats = hash_message(message)
        assert digest == ref.sha3_256(message)
        assert stats.energy_fj == stats.gate_executions * 6.4


def test_hash_two_block_message():
    message = bytes(range(150))
    digest, _ = hash_message(message)
    assert digest == ref.sha3_256(message)


def test_unit_independence():
    m1, m2 = b"first message", b"second message!"
    together, _ = hash_messages([m1, m2])
    alone1, _ = hash_message(m1)
    alone2, _ = hash_message(m2)
    assert together == [alone1, alone2]


def test_mixed_lengths_batch():
    messages = [b"", b"abc", bytes(200), b"x" * 136]
    digests, _ = hash_messages(messages)
    assert digests == [ref.sha3_256(m) for m in messages]


def test_cached_compile_keeps_no_caller_config(monkeypatch):
    # a compile is cached by geometry and shared by every later caller, so
    # its config is the geometry alone, not the first caller's object with
    # that caller's costs and strict mode (which a caller may change later)
    monkeypatch.setattr(keccak_xbar, "_compiled_cache", {})
    geometry = dict(rows=300, cols=200, vertical_partitions=3, horizontal_partitions=2)
    first = CrossbarConfig(**geometry, strict_init=True, gate_energy_fj=1.0)
    digests, _ = hash_messages([b"abc"], config=first)
    assert digests == [ref.sha3_256(b"abc")]
    first.gate_delay_ns = 5.0
    assert compiled_keccak(CrossbarConfig(**geometry)).config == CrossbarConfig(**geometry)


def charged(compiled, cohorts):
    """What hashing cohorts of (units, blocks) charges: each replay's
    ``charge`` for its unit count, and an io cycle per peripheral row."""
    config, layout = compiled.config, compiled.layout
    stats = ExecutionStats(gate_energy_fj=config.gate_energy_fj)
    shared_rows = layout.ROT_PLANES * layout.hparts + LANE_BITS * layout.vparts
    for units, blocks in cohorts:
        counts = [len(d) for d in compiled.deltas_for(range(units))]
        # each unit's first block, absorbed lane batches and digest
        unit_rows = LANE_BITS * (2 + len(compiled.absorb) * (blocks - 1))
        stats.add_cycles("io", (shared_rows + units * unit_rows)
                         * config.io_cycles_per_row, 0)
        for _ in range(blocks - 1):
            for program in compiled.absorb:
                program.charge(stats, counts)
        for _ in range(blocks):
            compiled.permute.charge(stats, counts)
    return stats


@pytest.mark.parametrize("one_block, two_block", [
    (63, 0), (64, 0), (65, 0), (127, 0), (128, 0), (129, 0), (64, 65),
])
def test_hash_cohorts_at_word_boundaries(compiled, one_block, two_block):
    # unit u sits at bit u of the replay kernel's words, so these cohorts
    # end one unit short of a word boundary, on it, or one unit past it
    rng = random.Random(one_block * 1000 + two_block)
    messages = ([rng.randbytes(rng.randrange(136)) for _ in range(one_block)]
                + [rng.randbytes(136 + rng.randrange(136))
                   for _ in range(two_block)])
    digests, stats = hash_messages(messages)
    assert digests == [hashlib.sha3_256(m).digest() for m in messages]
    cohorts = [(n, blocks) for n, blocks in ((one_block, 1), (two_block, 2)) if n]
    assert stats.as_dict() == charged(compiled, cohorts).as_dict()


def test_trace_cycles_continue_across_cohorts():
    # cohorts of one and of two blocks; each replay writes a header first
    trace = io.StringIO()
    _, stats = hash_messages([b"a", bytes(200)], trace=trace)
    records = map(json.loads, trace.getvalue().splitlines())
    cycles = [r["cycle"] for r in records if "cycle" in r]
    assert len(cycles) == 234_085
    assert all(a < b for a, b in zip(cycles, cycles[1:]))
    assert cycles[-1] <= stats.cycles


def test_capacity_error():
    config = CrossbarConfig()
    with pytest.raises(CapacityError):
        hash_messages([b"x"] * 379, config=config, crossbars=1)
    # two crossbars double the capacity
    digests, _ = hash_messages([b"x"] * 379, config=config, crossbars=2)
    assert len(digests) == 379


@pytest.mark.parametrize("crossbars, match", [
    (1.5, "crossbars must be an integer"), (True, "crossbars must be an integer"),
    (-1, "crossbars must be at least 1"), (0, "crossbars must be at least 1")])
def test_hash_messages_refuses_a_bad_crossbar_count(crossbars, match):
    with pytest.raises(ValueError, match=match):
        hash_messages([b"a"], crossbars=crossbars)


def test_hash_messages_takes_a_numpy_crossbar_count():
    digests, _ = hash_messages([b"a"], crossbars=np.int64(2))
    assert digests == [ref.sha3_256(b"a")]


def test_strict_init_hash():
    # the generated microcode never reads a never-written cell
    config = CrossbarConfig(strict_init=True)
    digest, _ = hash_message(b"strict!", config=config)
    assert digest == ref.sha3_256(b"strict!")


def test_stats_labels_cover_all_steps():
    _, stats = hash_message(b"abc")
    assert set(stats.per_label) == {"theta", "rho", "pi", "chi", "iota", "io"}
    assert sum(e.cycles for e in stats.per_label.values()) == stats.cycles


def test_a_hash_result_holds_a_small_stats_record():
    # a caller that keeps many results keeps their stats: one flat int64
    # record of each label's cycles and gate executions, about 230 B under
    # tracemalloc (a dict of six records of Python ints took about 1 KB)
    _, stats = hash_message(b"abc")
    charges = list(stats.per_label.items())
    assert len(charges) == 6
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [ExecutionStats(gate_energy_fj=stats.gate_energy_fj) for _ in range(100)]
        for record in kept:
            for label, entry in charges:
                record.add_cycles(label, entry.cycles, entry.gate_executions)
        held = (tracemalloc.get_traced_memory()[0] - before) / len(kept)
    finally:
        tracemalloc.stop()
    assert all(record == stats for record in kept)
    assert held <= 300


def test_per_label_is_read_only():
    _, stats = hash_message(b"abc")
    before = stats.as_dict()
    per_label = stats.per_label
    with pytest.raises(TypeError):
        per_label["io"] = per_label["theta"]
    with pytest.raises(TypeError):
        del per_label["io"]
    with pytest.raises(AttributeError):
        per_label["io"].cycles = 0
    assert stats.as_dict() == before
    assert per_label["io"].cycles == stats.per_label["io"].cycles > 0


def test_measure_round_stats_shape():
    measured = measure_round_stats(n_units=1)
    assert set(measured["per_step"]) == {"theta", "rho", "pi", "chi", "iota"}
    assert measured["cycles_per_round"] == pytest.approx(
        sum(s["cycles_per_round"] for s in measured["per_step"].values()))
    for n_units in (0, 379, True, 2.0):
        with pytest.raises(ValueError, match="n_units"):
            measure_round_stats(n_units=n_units)
    assert measure_round_stats(n_units=np.int64(1)) == measured
    assert type(measure_round_stats(n_units=np.int64(1))["units"]) is int
