"""Macro expansion and greedy bundle packing."""

import itertools
import random
import re

import numpy as np
import pytest

from sha3pim import crossbar, engine
from sha3pim.crossbar import (
    GATE_NUM_INPUTS,
    Crossbar,
    CrossbarConfig,
    CycleBundle,
    GateType,
    MicroOp,
    SchedulingError,
    line_table,
)
from sha3pim.keccak_xbar import (
    CrossbarLayout,
    UnitLayout,
    rot_fetch_microcode,
    rc_fetch_microcode,
    theta_microcode,
)
from sha3pim.scheduler import (
    SCRATCH_NEEDS,
    MacroKind,
    MacroOp,
    OpStream,
    ShapeError,
    batches,
    check_presets,
    expand,
    schedule,
)
from sha3pim import scheduler
from stream_props import check_equivalence, random_stream, small_crossbar


def run_macro(kind, values, scratch_cells=2):
    """Execute one macro's expansion on a fresh grid; return the output bit."""
    xbar = small_crossbar()
    n = len(values)
    inputs = tuple((0, i + 1) for i in range(n))
    state, initialized = xbar.cells(), xbar.cells(initialized=True)
    for cell, v in zip(inputs, values):
        state[cell] = v
        initialized[cell] = 1
    xbar.load(state, initialized)
    need = SCRATCH_NEEDS.get(kind, 0)
    scratch = tuple((0, 4 + i) for i in range(need)) or None
    macro = MacroOp(kind, inputs, (0, 0), scratch=scratch)
    for stage in expand(macro):
        for op in stage:
            xbar.execute_bundle(CycleBundle([op]), check=False)
    return int(xbar.cells()[0, 0])


def test_xor2_truth_table():
    for a, b in itertools.product((0, 1), repeat=2):
        assert run_macro(MacroKind.XOR2, (a, b)) == a ^ b


def test_primitives_pass_through_with_preset():
    stages = expand(MacroOp(GateType.NOR2, ((0, 1), (0, 2)), (0, 0)))
    assert len(stages) == 2
    assert stages[0][0].gate == GateType.INIT1
    assert stages[1][0].gate == GateType.NOR2


def test_macro_validation():
    with pytest.raises(ShapeError):
        # XOR2 takes two inputs
        expand(MacroOp(MacroKind.XOR2, ((0, 1),), (0, 0),
                       scratch=((0, 4), (0, 5), (0, 6))))
    with pytest.raises(ShapeError):
        # cells share neither a row nor a column
        expand(MacroOp(GateType.NOT, ((0, 1),), (1, 2)))
    with pytest.raises(ShapeError, match="scratch"):
        # XOR2 needs three pinned scratch cells
        expand(MacroOp(MacroKind.XOR2, ((0, 1), (0, 2)), (0, 0)))
    with pytest.raises(ShapeError, match="moves along the line"):
        # a run whose stride moves along its own line, a row
        expand(MacroOp(GateType.NOT, ((0, 1),), (0, 0), count=2, stride=(0, 2)))
    # a cell the macro writes that it also reads or writes elsewhere: an
    # in-place XOR2 or NOT, an output or scratch cell that repeats a
    # scratch cell, and a scratch cell that repeats an input
    repeats = [
        (MacroOp(MacroKind.XOR2, ((0, 1), (0, 2)), (0, 1),
                 scratch=((0, 4), (0, 5), (0, 6))), (0, 1)),
        (MacroOp(MacroKind.XOR2, ((0, 1), (0, 2)), (0, 4),
                 scratch=((0, 4), (0, 5), (0, 6))), (0, 4)),
        (MacroOp(MacroKind.XOR2, ((0, 1), (0, 2)), (0, 0),
                 scratch=((0, 5), (0, 5), (0, 6))), (0, 5)),
        (MacroOp(MacroKind.XOR2, ((0, 1), (0, 2)), (0, 0),
                 scratch=((0, 2), (0, 5), (0, 6))), (0, 2)),
        (MacroOp(GateType.NOT, ((0, 1),), (0, 1)), (0, 1)),
        (MacroOp(GateType.NOT, ((0, 1),), (0, 0), scratch=((0, 1),)), (0, 1)),
    ]
    for macro, cell in repeats:
        with pytest.raises(ShapeError, match=re.escape(f"writes {cell}")):
            expand(macro)


def test_single_not_schedules_as_two_bundles():
    xbar = small_crossbar()
    stream = OpStream()
    stream.append(MacroOp(GateType.NOT, ((0, 1),), (0, 0)))
    program = schedule(stream, xbar)
    assert len(program.bundles) == 2
    assert program.bundles[0].ops[0].gate == GateType.INIT1
    assert program.bundles[1].ops[0].gate == GateType.NOT


def test_column_parallel_xor_collapses():
    # 25 in-column XOR2 macros with one shared row pattern pack into
    # 4 logic bundles + 1 preset bundle, not 25x that.
    xbar = Crossbar(CrossbarConfig(rows=64, cols=64, horizontal_partitions=1,
                                   vertical_partitions=1, unit_rows=64,
                                   unit_cols=64))
    stream = OpStream()
    for c in range(25):
        stream.append(MacroOp(MacroKind.XOR2, ((1, c), (2, c)), (3, c),
                              scratch=((4, c), (5, c), (6, c))))
    program = schedule(stream, xbar)
    assert len(program.bundles) == 5
    xbar.load(xbar.cells(), np.ones((64, 64)))
    for bundle in program.bundles:
        xbar.execute_bundle(bundle)
    assert xbar.stats.cycles == 5


def test_barrier_orders_dependent_macros():
    xbar = small_crossbar()
    stream = OpStream()
    stream.append(MacroOp(MacroKind.XOR2, ((0, 1), (0, 2)), (0, 0),
                          scratch=((0, 4), (0, 5), (0, 6))))
    stream.barrier()
    stream.append(MacroOp(MacroKind.XOR2, ((0, 0), (0, 3)), (0, 7),
                          scratch=((0, 4), (0, 5), (0, 6))))
    program = schedule(stream, xbar)
    # second macro strictly after the first's last bundle: 5 + 5 cycles
    assert len(program.bundles) == 10
    first_write = next(i for i, b in enumerate(program.bundles)
                       if any(op.output == (0, 0) and op.gate != GateType.INIT1
                              for op in b.ops))
    first_read = next(i for i, b in enumerate(program.bundles)
                      if any((0, 0) in op.inputs for op in b.ops))
    assert first_read > first_write


def test_row_replicated_macros_share_bundles():
    xbar = small_crossbar()
    stream = OpStream()
    for r in range(8):
        stream.append(MacroOp(MacroKind.XOR2, ((r, 1), (r, 2)), (r, 0),
                              scratch=((r, 4), (r, 5), (r, 6))))
    program = schedule(stream, xbar)
    assert len(program.bundles) == 5   # presets + OR2 + AND2 + NOT + AND2


def test_two_writes_of_one_cell_in_a_group_rejected():
    # the producer promises no two macros of a group write one cell
    stream = OpStream()
    stream.append(MacroOp(GateType.INIT1, (), (0, 0)))
    stream.append(MacroOp(GateType.INIT1, (), (0, 0)))
    with pytest.raises(SchedulingError, match="both write"):
        schedule(stream, small_crossbar())


def test_switch_that_does_not_exist_rejected():
    # row 5 is inside a partition of the 16x16 grid, not a boundary
    stream = OpStream()
    stream.append(MacroOp(GateType.NOT, ((0, 1),), (0, 0),
                          switches=frozenset({("row", 5)})))
    with pytest.raises(SchedulingError, match="no switch at boundary"):
        schedule(stream, small_crossbar())


def test_run_across_partitions_rejected():
    # each line sits in one partition, but the run's lines go from rows
    # 6-7 to row 8, across the open switch; a run must lie in one region
    stream = OpStream()
    stream.append(MacroOp(GateType.NOT, ((6, 1),), (6, 0), count=3,
                          stride=(1, 0)))
    with pytest.raises(SchedulingError, match="crosses an open partition"):
        schedule(stream, small_crossbar())


def test_non_grid_presets_split_then_freeze():
    # a group's presets that are not a grid are split into one bundle per
    # column set; the split segment's line table is the one checked and
    # frozen, and replays as the bundles execute
    stream = OpStream()
    for cell in ((0, 0), (0, 1), (1, 0)):
        stream.append(MacroOp(GateType.INIT1, (), cell))
    stream.append(MacroOp(GateType.NOT, ((2, 3),), (2, 2)))
    stream.barrier()
    stream.append(MacroOp(GateType.NOR2, ((0, 0), (0, 1)), (0, 2)))
    xbar = small_crossbar()
    program = schedule(stream, xbar)
    assert [[op.output for op in bundle.ops] for bundle in program.bundles[:3]] \
        == [[(0, 0), (1, 0)], [(0, 1)], [(2, 2)]]
    assert len(program.bundles) == len(program.lines.bundle_ptr) - 1 == 6
    check_presets(program.lines)

    initial = np.random.default_rng(5).integers(0, 2, (16, 16), np.uint8)
    xbar.load(initial)
    for bundle, label in zip(program.bundles, program.labels):
        xbar.execute_bundle(bundle, label=label)
    [frozen] = engine.freeze(program.lines, program.labels,
                             [engine.SET_UNIT] * len(program.bundles), xbar.config)
    replayed = small_crossbar()
    replayed.load(initial)
    engine.replay(frozen, replayed, [np.zeros((1, 2), dtype=np.int64)]
                  + [np.zeros((0, 2), dtype=np.int64)] * 2)
    assert np.array_equal(replayed.cells(), xbar.cells())
    assert replayed.stats.as_dict() == xbar.stats.as_dict()


def test_randomized_equivalence_sample():
    rng = random.Random(2024)
    for _ in range(150):
        check_equivalence(rng)


# ------------------------------------------------------------- preset rule

def xor_stream():
    stream = OpStream()
    stream.append(MacroOp(MacroKind.XOR2, ((0, 1), (0, 2)), (0, 0),
                          scratch=((0, 4), (0, 5), (0, 6))))
    return stream


@pytest.mark.parametrize("cell", [(0, 0), (0, 4), (0, 6)])
def test_gate_without_its_preset_fails_to_compile(monkeypatch, cell):
    # an expansion that forgets the preset of one of the XOR's outputs
    def forgetful(macro):
        return [[op for op in stage
                 if not (op.gate is GateType.INIT1 and op.output == cell)]
                for stage in expand(macro)]
    monkeypatch.setattr(scheduler, "expand", forgetful)
    with pytest.raises(SchedulingError, match=rf"writes \({cell[0]}, {cell[1]}\)"
                                              ", which was not preset"):
        schedule(xor_stream(), small_crossbar())


def test_read_between_preset_and_gate_fails_to_compile():
    # one macro of a group reads a cell another macro of it writes; the
    # packing puts both presets first, then the read, then the write
    stream = OpStream()
    stream.append(MacroOp(GateType.NOT, ((0, 1),), (0, 2)))
    stream.append(MacroOp(GateType.NOT, ((0, 3),), (0, 1)))
    with pytest.raises(SchedulingError, match=r"NOT writes \(0, 1\)"):
        schedule(stream, small_crossbar())


def test_preset_rule_reads_a_bundle_before_it_writes():
    # a bundle that reads a preset cell and gates it in the same cycle
    # reads it first, so the gate's preset was read: the rule rejects it
    # on its own, though the legality check would reject the bundle too
    bundles = [CycleBundle([MicroOp(GateType.INIT1, (), (0, 0))]),
               CycleBundle([MicroOp(GateType.NOT, ((0, 1),), (0, 0)),
                            MicroOp(GateType.NOT, ((0, 0),), (1, 0))])]
    with pytest.raises(SchedulingError, match=r"bundle 1: NOT writes \(0, 0\)"):
        check_presets(line_table(bundles))
    check_presets(line_table(bundles[:1] + [CycleBundle(bundles[1].ops[:1])]))


# ------------------------------------------------- segment legality check

# One kind of violation each, named by the words its message holds.
VIOLATIONS = ["out of bounds", "no switch at boundary",
              "crosses an open partition boundary", "mixed gate types",
              "do not form a grid pattern", "both write", "reads"]


def inject(kind, bundle, config, at):
    """``bundle`` with one violation of ``kind`` added; the new ops lie in
    partition ``at`` or on its upper edge, or read and write beside the
    first op's output."""
    r0, c0 = at[0] * config.unit_rows, at[1] * config.unit_cols
    ops, switches = list(bundle.ops), bundle.closed_switches
    first = ops[0]
    if kind == "out of bounds":
        ops.append(MicroOp(GateType.INIT1, (), (config.rows, c0)))
    elif kind == "no switch at boundary":
        switches |= {("row", 1)}
    elif kind == "crosses an open partition boundary":
        assert ("row", r0) not in switches
        ops.append(MicroOp(GateType.NOT, ((r0 - 1, c0),), (r0 - 1, c0 + 1),
                           count=2, stride=(1, 0)))
    elif kind == "mixed gate types":
        ops += [MicroOp(GateType.NOT, ((r0, c0),), (r0, c0 + 1)),
                MicroOp(GateType.NOR2, ((r0 + 1, c0), (r0 + 1, c0 + 2)),
                        (r0 + 1, c0 + 1))]
    elif kind == "do not form a grid pattern":
        ops += [MicroOp(GateType.INIT1, (), cell)
                for cell in ((r0, c0), (r0, c0 + 1), (r0 + 1, c0))]
    elif kind == "both write":
        ops.append(MicroOp(first.gate, first.inputs, first.output))
    else:       # a read of the first op's output, written beside it
        r, c = first.output
        beside = c + 1 if (c + 1) % config.unit_cols else c - 1
        ops.append(MicroOp(GateType.NOT, (first.output,), (r, beside)))
    return CycleBundle(ops, switches)


def prefixed(xbar, bundles):
    """Each bundle's own check, its messages prefixed with its index."""
    return [f"bundle {k}: {msg}" for k, bundle in enumerate(bundles)
            for msg in xbar.check_bundle(bundle)[1]]


def test_segment_check_matches_bundle_checks_on_random_streams():
    # scheduled random streams, then the same with a violation of each
    # kind in a middle bundle: a list reports what checking its bundles
    # one by one reports, each message naming its bundle, and a list of
    # one bundle reports the bundle's own messages
    rng = random.Random(41)
    for trial in range(160):
        xbar = small_crossbar()
        bundles = schedule(random_stream(rng), xbar).bundles
        assert xbar.check_bundle(bundles) == (True, [])
        if len(bundles) < 3:
            assert xbar.check_bundle(bundles[:1]) == xbar.check_bundle(bundles[0])
            continue
        k = rng.randrange(1, len(bundles) - 1)
        bundles[k] = inject(VIOLATIONS[trial % len(VIOLATIONS)], bundles[k],
                            xbar.config, (1, rng.randint(0, 1)))
        ok, violations = xbar.check_bundle(bundles)
        assert not ok and violations == prefixed(xbar, bundles)
        assert xbar.check_bundle([bundles[k]]) == xbar.check_bundle(bundles[k])


def keccak_segments():
    config = CrossbarConfig()
    layout = CrossbarLayout(config)
    return config, {"theta": theta_microcode(UnitLayout((0, 0))),
                    "rot_chain": rot_fetch_microcode(layout)[-1],
                    "rc_chain": rc_fetch_microcode(layout)[-1]}


@pytest.mark.parametrize("name", ["theta", "rot_chain", "rc_chain"])
def test_segment_check_names_the_bundle_of_a_keccak_violation(monkeypatch, name):
    # a real segment, then the same with one violation of each kind in
    # its middle bundle, placed away from the unit; schedule's error names
    # that bundle alone
    config, streams = keccak_segments()
    xbar = Crossbar(config)
    bundles = schedule(streams[name], xbar).bundles
    middle = len(bundles) // 2
    for kind in VIOLATIONS:
        bad = bundles[:middle] + [inject(kind, bundles[middle], config, (12, 25))] \
            + bundles[middle + 1:]
        ok, violations = xbar.check_bundle(bad)
        assert not ok and violations == prefixed(xbar, bad)
        assert all(v.startswith(f"bundle {middle}: ") for v in violations)
        assert any(kind in v for v in violations), violations
        monkeypatch.setattr(scheduler, "_close",
                            lambda pending, bad=bad: (bad, line_table(bad)))
        with pytest.raises(SchedulingError) as error:
            schedule(streams[name], xbar)
        assert str(error.value) == ("scheduler emitted an illegal bundle: "
                                    + "; ".join(violations))


@pytest.mark.parametrize("first", [False, True], ids=["last", "first"])
def test_segment_check_reads_every_line_of_each_slice(monkeypatch, first):
    # a real segment read one bundle per slice, with a violation of each
    # kind as the last or the first ops of its middle bundle: each is
    # found, and reported as the segment read whole reports it
    config, streams = keccak_segments()
    xbar = Crossbar(config)
    bundles = schedule(streams["theta"], xbar).bundles
    middle = len(bundles) // 2
    for kind in VIOLATIONS:
        bad = inject(kind, bundles[middle], config, (12, 25))
        if first:
            added = len(bad.ops) - len(bundles[middle].ops)
            bad = CycleBundle(bad.ops[-added:] + bad.ops[:-added],
                              bad.closed_switches)
        bad = bundles[:middle] + [bad] + bundles[middle + 1:]
        whole = xbar.check_bundle(bad)
        monkeypatch.setattr(crossbar, "_CHECK_LINES", 1)
        ok, violations = xbar.check_bundle(bad)
        monkeypatch.undo()
        assert not ok and (ok, violations) == whole
        assert all(v.startswith(f"bundle {middle}: ") for v in violations)
        assert any(kind in v for v in violations), violations


# ---------------------------------------------------------------- batches

def test_expanded_len_is_the_length_of_the_line_table():
    # batches are cut by expanded_len, so it must count what expand makes
    xbar = small_crossbar()
    for kind in (MacroKind.XOR2, *GateType):
        stream = OpStream()
        n = 2 if kind is MacroKind.XOR2 else GATE_NUM_INPUTS[kind]
        scratch = ((0, 4), (0, 5), (0, 6)) if kind is MacroKind.XOR2 else None
        stream.append(MacroOp(kind, tuple((0, 1 + i) for i in range(n)), (0, 0),
                              scratch=scratch, count=3, stride=(1, 0)))
        assert stream.expanded_len() == schedule(stream, xbar).lines.cells.shape[0]


def presets(*counts):
    """A stream of one INIT1 run of each count, barrier-separated: a
    stream of ``sum(counts)`` lines."""
    stream = OpStream()
    for col, count in enumerate(counts):
        stream.append(MacroOp(GateType.INIT1, (), (0, col), count=count, stride=(1, 0)))
        stream.barrier()
    return stream


def test_batches_hold_consecutive_streams_up_to_the_longest():
    streams = [presets(2), presets(3, 3), presets(3), presets(3), presets(1),
               presets(4)]
    cut = batches(streams)
    assert [[streams.index(s) for s in batch] for batch in cut] == \
        [[0], [1], [2, 3], [4, 5]]
    assert max(sum(s.expanded_len() for s in batch) for batch in cut) == 6
    assert batches([]) == []


def compile_streams(streams, batched):
    """Each stream's frozen program, every stream scheduled and frozen
    alone, or all of them as one batch."""
    xbar = small_crossbar()
    programs = []
    for batch in [streams] if batched else [[stream] for stream in streams]:
        program = schedule(batch, xbar)
        programs += engine.freeze(program.lines, program.labels,
                                  [engine.SET_UNIT] * len(program.bundles),
                                  xbar.config)
    return programs


def fields(program):
    return [value.tolist() if isinstance(value, np.ndarray) else value
            for name, value in vars(program).items() if name != "trace_tails"]


def stream_of(*macros, label="main"):
    """The macros, each in a group of its own."""
    stream = OpStream(label)
    for macro in macros:
        stream.append(macro)
        stream.barrier()
    return stream


@pytest.mark.parametrize("batched", [False, True], ids=["apart", "batched"])
def test_a_preset_from_another_stream_does_not_serve(monkeypatch, batched):
    # stream a ends with a preset of (0, 0); stream b's first gate writes
    # (0, 0) with no preset of its own: the preset rule rejects it, naming
    # b's bundle 0, though a's preset is the access before it in the batch
    def forgetful(macro):
        stages = expand(macro)
        return stages[1:] if macro.kind is GateType.NOT else stages
    monkeypatch.setattr(scheduler, "expand", forgetful)
    a = stream_of(MacroOp(GateType.INIT1, (), (0, 5)),
                  MacroOp(GateType.INIT1, (), (0, 0)))
    b = stream_of(MacroOp(GateType.NOT, ((0, 1),), (0, 0)))
    with pytest.raises(SchedulingError) as error:
        compile_streams([a, b], batched)
    assert str(error.value) == ("bundle 0: NOT writes (0, 0), which was not "
                                "preset since its last write or read")


@pytest.mark.parametrize("batched", [False, True], ids=["apart", "batched"])
def test_a_preset_a_later_stream_overwrites_stays_live(batched):
    # a's last preset is never touched again in a; b presets and writes
    # the same cell first. Replay splices other segments between them, so
    # a's preset stays live
    a = stream_of(MacroOp(GateType.NOT, ((0, 3),), (0, 2)),
                  MacroOp(GateType.INIT1, (), (0, 0)), label="a")
    b = stream_of(MacroOp(GateType.NOT, ((0, 1),), (0, 0)), label="b")
    first, second = compile_streams([a, b], batched)
    assert first.live.tolist() == [False, True, True]
    assert second.live.tolist() == [False, True]
    assert (first.label_names, second.label_names) == (["a"], ["b"])
    assert schedule([a, b], small_crossbar()).labels == ["a"] * 3 + ["b"] * 2
    assert [fields(p) for p in (first, second)] == \
        [fields(p) for p in compile_streams([a, b], not batched)]


@pytest.mark.parametrize("batched", [False, True], ids=["apart", "batched"])
def test_an_illegal_bundle_is_named_in_its_own_stream(batched):
    # two writes of (0, 0) in b's bundle 2 (the batch's bundle 4) are
    # reported as scheduling b alone reports them; with a illegal too,
    # a's bundle is the one named, as a is scheduled first
    legal = stream_of(MacroOp(GateType.NOT, ((0, 3),), (0, 2)))
    illegal = stream_of(MacroOp(GateType.NOT, ((0, 3),), (0, 2)))
    illegal.append(MacroOp(GateType.INIT1, (), (0, 0)))
    illegal.append(MacroOp(GateType.INIT1, (), (0, 0)))
    for streams in ([legal, illegal], [illegal, legal, illegal]):
        with pytest.raises(SchedulingError) as error:
            compile_streams(streams, batched)
        assert str(error.value) == ("scheduler emitted an illegal bundle: "
                                    "bundle 2: ops 0 and 1 both write (0, 0)")


def test_random_streams_compile_alike_apart_and_batched():
    rng = random.Random(4242)
    for _ in range(10):
        streams = [random_stream(rng) for _ in range(4)]
        assert [fields(p) for p in compile_streams(streams, True)] == \
            [fields(p) for p in compile_streams(streams, False)]
