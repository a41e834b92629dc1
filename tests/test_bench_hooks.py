"""The benchmark's trace hooks resolve: every attribute that
``perfbench/spans.py`` wraps exists in ``sha3pim`` and is callable."""

import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_trace_hooks_resolve(monkeypatch):
    # spans.install only runs under ``perfbench/run.py --trace 1``, so a
    # renamed hook would otherwise break that run alone
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    hooks = []
    monkeypatch.setattr(spans.Tracer, "wrap",
                        lambda self, owner, attr, *_, **__: hooks.append((owner, attr)))
    spans.install(spans.Tracer())
    assert hooks
    missing = [f"{owner.__name__}.{attr}" for owner, attr in hooks
               if not callable(getattr(owner, attr, None))]
    assert missing == []
