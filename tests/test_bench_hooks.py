"""The benchmark's trace hooks resolve: every attribute that
``perfbench/spans.py`` wraps exists in ``sha3pim`` and is callable, and
its replay counter reads the units and gate executions of a replay."""

import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_trace_hooks_resolve(monkeypatch):
    # spans.install only runs under ``perfbench/run.py --trace 1``, so a
    # renamed hook would otherwise break that run alone
    spans = load_spans()
    hooks = []
    monkeypatch.setattr(spans.Tracer, "wrap",
                        lambda self, owner, attr, *_, **__: hooks.append((owner, attr)))
    spans.install(spans.Tracer())
    assert hooks
    missing = [f"{owner.__name__}.{attr}" for owner, attr in hooks
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_replay_counter_reads_the_shift_sets(compiled):
    # ``replay.ns_per_gate_exec`` divides by these gates: units 0, 1, 2 and
    # 30 occupy 2 partition rows and 4 partition columns
    counts = load_spans()._replay_counts(
        (compiled.permute, None, compiled.deltas_for([0, 1, 2, 30])), {}, None)
    assert counts["units"] == 4
    assert counts["gates"] == int(
        compiled.permute.gates_by_label_set.sum(axis=0) @ [4, 2, 4])
