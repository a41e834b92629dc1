"""The benchmark's trace hooks resolve: every attribute that
``perfbench/spans.py`` wraps exists in ``sha3pim`` and is callable, and
its replay counter reads the units and gate executions of a replay. A
traced benchmark run passes the benchmark's own correctness check, and
the committed ``BENCHMARK.json`` is the one ``perfbench/catalog.py``
prints."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
CATALOG = ROOT / "perfbench" / "catalog.py"


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load(SPANS, "perfbench_spans")


def test_benchmark_json_matches_catalog():
    # what ``python3 perfbench/catalog.py`` prints, byte for byte
    catalog = load(CATALOG, "perfbench_catalog")
    printed = json.dumps(catalog.benchmark_json(), indent=2) + "\n"
    assert (ROOT / "BENCHMARK.json").read_text() == printed


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


@pytest.mark.parametrize("workload", ["abc_cold", "sweep_0_200", "lockstep_378"])
def test_traced_worker_run_is_correct(workload):
    # what perfbench/run.py checks of each run: every digest right, no
    # inconsistent figure, and every simulated figure exactly as pinned
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--mode",
         "trace", "--workload", workload, "--seed", "1"],
        capture_output=True, text=True, env=env, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert pathlib.Path(out["module"]).is_relative_to(ROOT / "src")
    assert out["failed"] == 0
    assert out["problems"] == []
    assert "errors" not in out
    expected = json.loads((ROOT / "perfbench" / "expected_sim.json").read_text())
    assert out["sim"] == expected[workload]
