"""Frozen-program replay: backends agree, strict mode, stats charging, trace."""

import io
import json
import random

import numpy as np
import pytest

from sha3pim import engine
from sha3pim.crossbar import (
    IN_ROW,
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
        stream = OpStream()
        stream.append(MacroOp(MacroKind.NOT, IN_ROW, ((0, 1),), (0, 0)))
        frozen, _ = freeze_stream(stream, xbar)
        with pytest.raises(StrictInitError):
            engine.replay(frozen, xbar, unit_deltas((0, 0)))
        xbar.initialized[0, 1] = 1
        engine.replay(frozen, xbar, unit_deltas((0, 0)))
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
