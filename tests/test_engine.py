"""Frozen-program replay: backends agree, strict mode, stats, trace, oracle."""

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
    IN_COL,
    IN_ROW,
    Crossbar,
    CrossbarConfig,
    CycleBundle,
    GateType,
    MicroOp,
    StrictInitError,
)
from sha3pim.scheduler import MacroKind, MacroOp, OpStream, schedule
from stream_props import random_stream, small_crossbar


def freeze_stream(stream, xbar):
    program = schedule(stream, xbar.partition_map)
    return engine.freeze(program.bundles, program.labels,
                         [engine.SET_UNIT] * len(program.bundles),
                         xbar.config.cols), program


def unit_deltas(*origins, cols=16):
    return [np.array([r * cols + c for r, c in origins], dtype=np.int64),
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)]


def test_replay_matches_object_execution():
    rng = random.Random(77)
    for trial in range(40):
        stream = random_stream(rng)
        initial = np.array([[rng.randint(0, 1) for _ in range(16)]
                            for _ in range(16)], dtype=np.uint8)

        object_xbar = small_crossbar()
        object_xbar.state[:] = initial
        object_xbar.initialized[:] = 1
        frozen, program = freeze_stream(stream, object_xbar)
        for bundle, label in zip(program.bundles, program.labels):
            object_xbar.execute_bundle(bundle, label=label, check=False)

        replay_xbar = small_crossbar()
        replay_xbar.state[:] = initial
        replay_xbar.initialized[:] = 1
        engine.replay(frozen, replay_xbar, unit_deltas((0, 0)))

        assert np.array_equal(object_xbar.state, replay_xbar.state), trial
        assert replay_xbar.stats.cycles == object_xbar.stats.cycles
        assert replay_xbar.stats.gate_executions == object_xbar.stats.gate_executions


def test_backends_agree():
    rng = random.Random(123)
    stream = random_stream(rng)
    results = []
    previous = engine.active_backend()
    try:
        for backend in ("numpy", "numba") if engine.HAVE_NUMBA else ("numpy",):
            engine.set_backend(backend)
            xbar = small_crossbar()
            xbar.initialized[:] = 1
            frozen, _ = freeze_stream(stream, xbar)
            engine.replay(frozen, xbar, unit_deltas((0, 0)))
            results.append((backend, xbar.state.copy(), xbar.stats.gate_executions))
    finally:
        engine.set_backend(previous)
    states = [state for _, state, _ in results]
    gates = {g for _, _, g in results}
    assert all(np.array_equal(states[0], s) for s in states[1:])
    assert len(gates) == 1


def test_origin_replication():
    # one NOT replayed at two unit origins in different partitions
    xbar = small_crossbar()
    xbar.state[0, 1] = 1
    xbar.state[8, 9] = 0
    xbar.initialized[:] = 1
    stream = OpStream()
    stream.append(MacroOp(MacroKind.NOT, IN_ROW, ((0, 1),), (0, 0)))
    frozen, _ = freeze_stream(stream, xbar)
    engine.replay(frozen, xbar, unit_deltas((0, 0), (8, 8)))
    assert xbar.state[0, 0] == 0
    assert xbar.state[8, 8] == 1
    # 2 bundles x 2 units: 2 cycles, 4 gate executions
    assert xbar.stats.cycles == 2
    assert xbar.stats.gate_executions == 4


def test_vector_event_compression():
    # aligned row-parallel ops with shared columns become single events
    xbar = small_crossbar()
    ops = [MicroOp(GateType.NOR2, IN_ROW, ((r, 1), (r, 2)), (r, 0))
           for r in range(8)]
    frozen = engine.freeze([CycleBundle(ops)], ["main"], [engine.SET_UNIT], 16)
    assert frozen.n_events == 1
    assert int(frozen.count[0]) == 8
    assert int(frozen.stride[0]) == 16
    assert frozen.n_gate_executions == 8


@pytest.mark.parametrize("backend", ["numpy", "numba"])
def test_strict_mode_catches_uninitialized_read(backend):
    if backend == "numba" and not engine.HAVE_NUMBA:
        pytest.skip("numba unavailable")
    previous = engine.active_backend()
    try:
        engine.set_backend(backend)
        xbar = small_crossbar(); xbar.config.strict_init = True
        xbar.state[0, 1] = 1
        stream = OpStream()
        stream.append(MacroOp(MacroKind.NOT, IN_ROW, ((0, 1),), (0, 0)))
        frozen, _ = freeze_stream(stream, xbar)     # INIT1 (0,0), then NOT
        assert frozen.n_bundles == 2
        cell = r"\(0,1\)" if backend == "numpy" else ""
        with pytest.raises(StrictInitError, match=cell):
            engine.replay(frozen, xbar, unit_deltas((0, 0)))
        # the preset bundle ran and the bundle that read (0,1) did not
        expected = np.zeros((16, 16), dtype=np.uint8)
        expected[0, 0] = 1
        assert np.array_equal(xbar.initialized, expected)
        expected[0, 1] = 1                  # the unwritten input's value
        assert np.array_equal(xbar.state, expected)
        xbar.initialized[0, 1] = 1
        engine.replay(frozen, xbar, unit_deltas((0, 0)))
        assert xbar.state[0, 0] == 0
    finally:
        engine.set_backend(previous)


def test_backend_selection_env(monkeypatch):
    monkeypatch.setenv(engine.ENV_BACKEND, "numpy")
    assert engine.default_backend() == "numpy"
    monkeypatch.delenv(engine.ENV_BACKEND)
    assert engine.default_backend() in ("numba", "numpy")
    with pytest.raises(ValueError):
        engine.set_backend("cuda")


def test_numpy_backend_hashes_end_to_end():
    # the fallback path must produce the same digest and the same stats
    from sha3pim import keccak_ref as ref
    from sha3pim.keccak_xbar import hash_message
    previous = engine.active_backend()
    try:
        engine.set_backend("numpy")
        digest, stats = hash_message(b"fallback")
    finally:
        engine.set_backend(previous)
    assert digest == ref.sha3_256(b"fallback")
    reference_digest, reference_stats = hash_message(b"fallback")
    assert digest == reference_digest
    assert stats.cycles == reference_stats.cycles
    assert stats.gate_executions == reference_stats.gate_executions


def test_concat_preserves_counts():
    xbar = small_crossbar()
    stream = OpStream()
    stream.append(MacroOp(MacroKind.NOT, IN_ROW, ((0, 1),), (0, 0), label="a"))
    f1, _ = freeze_stream(stream, xbar)
    stream2 = OpStream()
    stream2.append(MacroOp(MacroKind.NOT, IN_ROW, ((1, 1),), (1, 0), label="b"))
    f2, _ = freeze_stream(stream2, xbar)
    whole = engine.concat([f1, f2, f1])
    assert whole.n_bundles == 6
    assert whole.n_gate_executions == 6
    assert whole.label_names == ["a", "b"]
    assert whole.cycles_by_label.tolist() == [4, 2]


def canonical_trace(text):
    """(cycle, label, sorted ops) per record: a cycle's ops are a multiset."""
    records = [json.loads(line) for line in text.splitlines()]
    return [(r["cycle"], r["label"],
             sorted(json.dumps(op, sort_keys=True) for op in r["ops"]))
            for r in records]


def test_replay_trace_matches_object_trace():
    for seed in range(40):
        stream = random_stream(random.Random(seed))
        object_xbar = small_crossbar()
        object_xbar.initialized[:] = 1
        object_trace = io.StringIO()
        object_xbar.attach_trace(object_trace)
        frozen, program = freeze_stream(stream, object_xbar)
        for bundle, label in zip(program.bundles, program.labels):
            object_xbar.execute_bundle(bundle, label=label, check=False)

        replay_xbar = small_crossbar()
        replay_xbar.initialized[:] = 1
        replay_trace = io.StringIO()
        replay_xbar.attach_trace(replay_trace)
        engine.replay(frozen, replay_xbar, unit_deltas((0, 0)))

        assert canonical_trace(replay_trace.getvalue()) == \
            canonical_trace(object_trace.getvalue()), seed


def kernel_args(frozen):
    """The numba kernels' operands for replay at unit origin (0, 0)."""
    set_ptr = np.array([0, 1, 1, 1], dtype=np.int64)
    deltas = np.zeros(1, dtype=np.int64)
    return (frozen.gate, frozen.count, frozen.stride, frozen.out, frozen.in1,
            frozen.in2, frozen.in3, frozen.set_id, set_ptr, deltas)


def test_numba_kernels_match_object_execution():
    # without numba, njit is the identity and the kernels run as plain Python
    rng = random.Random(5)
    for trial in range(30):
        stream = random_stream(rng)
        initial = np.array([[rng.randint(0, 1) for _ in range(16)]
                            for _ in range(16)], dtype=np.uint8)
        written = np.ones((16, 16), dtype=np.uint8)
        for _ in range(rng.randint(0, 30)):
            written[rng.randrange(16), rng.randrange(16)] = 0

        object_xbar = small_crossbar()
        object_xbar.state[:] = initial
        frozen, program = freeze_stream(stream, object_xbar)
        for bundle, label in zip(program.bundles, program.labels):
            object_xbar.execute_bundle(bundle, label=label, check=False)
        grid = initial.reshape(-1).copy()
        engine._replay_numba(*kernel_args(frozen), grid)
        assert np.array_equal(grid.reshape(16, 16), object_xbar.state), trial

        strict_xbar = small_crossbar()
        strict_xbar.config.strict_init = True
        strict_xbar.state[:] = initial
        strict_xbar.initialized[:] = written
        rejected = None
        for b, (bundle, label) in enumerate(zip(program.bundles, program.labels)):
            try:
                strict_xbar.execute_bundle(bundle, label=label, check=False)
            except StrictInitError:
                rejected = b
                break
        grid = initial.reshape(-1).copy()
        bad = engine._replay_numba_strict(*kernel_args(frozen), grid,
                                          written.reshape(-1).copy())
        if rejected is None:
            assert bad == -1, trial
            assert np.array_equal(grid.reshape(16, 16), object_xbar.state), trial
        else:
            # the returned event belongs to the cycle the object path rejected
            assert frozen.bundle_ptr[rejected] <= bad \
                < frozen.bundle_ptr[rejected + 1], trial


# ------------------------------------------------ differential replay oracle

# 2 x 3 partitions of 4 x 4 cells, plus 3 spare rows and 2 spare columns
# that form tiles of their own, as the shared ROT and RC blocks do
ORACLE_GEOMETRY = dict(rows=11, cols=14, vertical_partitions=2,
                       horizontal_partitions=3, unit_rows=4, unit_cols=4)
RUN_STEPS = [(0, 1), (1, 0), (1, 1), (1, -1), (2, 0), (0, 3)]


def shifted(op, shift):
    dr, dc = shift
    return MicroOp(op.gate, op.orientation,
                   tuple((r + dr, c + dc) for r, c in op.inputs),
                   (op.output[0] + dr, op.output[1] + dc))


@st.composite
def replay_cases(draw):
    """A frozen program, the origin shifts of each set and a start state.

    Ops sit anywhere on the grid, read anywhere along their line (so reads
    hop partitions, as the ROT and RC fetches do) and come in runs that may
    cross partitions. An op is kept when every shifted copy lies on the
    grid, as the op itself must be, and no copy reads or writes a cell that
    another copy in its bundle writes, which legal bundles guarantee.
    """
    config = CrossbarConfig(**ORACLE_GEOMETRY, strict_init=draw(st.booleans()))
    rows, cols = config.rows, config.cols

    def subset(n):
        return sorted(draw(st.lists(st.integers(0, n - 1), min_size=1,
                                    max_size=n, unique=True)))

    shifts = [[(u // 3 * 4, u % 3 * 4) for u in subset(6)],
              [(v * 4, 0) for v in subset(2)],
              [(0, h * 4) for h in subset(3)]]

    def on_grid(cells):
        return all(0 <= r + dr < rows and 0 <= c + dc < cols
                   for r, c in cells for dr, dc in [(0, 0)] + shifts[set_id])

    bundles, labels, set_ids = [], [], []
    for _ in range(draw(st.integers(1, 6))):
        set_id = draw(st.integers(0, 2))
        ops, written, read = [], set(), set()
        for _ in range(draw(st.integers(1, 5))):
            gate = draw(st.sampled_from(GateType))
            arity = GATE_NUM_INPUTS[gate]
            orientation = draw(st.sampled_from((IN_ROW, IN_COL)))
            r, c = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
            length = cols if orientation == IN_ROW else rows
            line = draw(st.lists(st.integers(0, length - 1), min_size=arity,
                                 max_size=arity, unique=True))
            inputs = [(r, k) if orientation == IN_ROW else (k, c) for k in line]
            dr, dc = draw(st.sampled_from(RUN_STEPS))
            for i in range(draw(st.integers(1, 5))):
                op = MicroOp(gate, orientation,
                             tuple((a + i * dr, b + i * dc) for a, b in inputs),
                             (r + i * dr, c + i * dc))
                if op.output in op.inputs or not on_grid(op.cells()):
                    continue
                copies = [shifted(op, shift) for shift in shifts[set_id]]
                outs = {copy.output for copy in copies}
                ins = {cell for copy in copies for cell in copy.inputs}
                if outs & (written | read) or ins & (written | outs):
                    continue
                ops.append(op)
                written |= outs
                read |= ins
        bundles.append(CycleBundle(ops))
        labels.append(draw(st.sampled_from(("a", "b"))))
        set_ids.append(set_id)

    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    state = rng.integers(0, 2, (rows, cols), dtype=np.uint8)
    initialized = (rng.random((rows, cols)) < 0.9).astype(np.uint8)
    return config, engine.freeze(bundles, labels, set_ids, cols), \
        list(zip(bundles, labels, set_ids)), shifts, state, initialized


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(replay_cases())
def test_replay_matches_serial_execution_of_shifted_bundles(case):
    config, frozen, bundles, shifts, state, initialized = case
    oracle, xbar = Crossbar(config), Crossbar(config)
    for crossbar in (oracle, xbar):
        crossbar.state[:] = state
        crossbar.initialized[:] = initialized
    rejected = None
    for bundle, label, set_id in bundles:
        copies = CycleBundle([shifted(op, shift) for shift in shifts[set_id]
                              for op in bundle.ops])
        try:
            oracle.execute_bundle(copies, label=label, check=False)
        except StrictInitError:
            rejected = copies
            break

    deltas = [np.array([dr * config.cols + dc for dr, dc in s], dtype=np.int64)
              for s in shifts]
    previous = engine.active_backend()
    try:
        engine.set_backend("numpy")
        if rejected is None:
            engine.replay(frozen, xbar, deltas)
            assert xbar.stats.as_dict() == oracle.stats.as_dict()
        else:
            with pytest.raises(StrictInitError) as error:
                engine.replay(frozen, xbar, deltas)
            r, c = map(int, re.search(r"\((\d+),(\d+)\)",
                                      str(error.value)).groups())
            assert (r, c) in {cell for op in rejected.ops for cell in op.inputs}
            assert not oracle.initialized[r, c]
    finally:
        engine.set_backend(previous)
    assert np.array_equal(xbar.state, oracle.state)
    if config.strict_init:
        assert np.array_equal(xbar.initialized, oracle.initialized)


@pytest.mark.parametrize("origin", [(0, 1), (4, 0), (8, 7)])
def test_replay_rejects_delta_off_partition_grid(origin):
    xbar = small_crossbar()
    stream = OpStream()
    stream.append(MacroOp(MacroKind.NOT, IN_ROW, ((0, 1),), (0, 0)))
    frozen, _ = freeze_stream(stream, xbar)
    with pytest.raises(ValueError, match="whole"):
        engine.replay(frozen, xbar, unit_deltas((0, 0), origin))
