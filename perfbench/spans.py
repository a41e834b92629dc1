"""In-memory span recorder and the wrappers that attach it to sha3pim.

A span is one call across a layer boundary: its name, start and end
(``time.perf_counter`` seconds), the index of the span that was open when
it began, and a few counts taken from the call's arguments or result. All
spans stay in memory until the run ends and are written out in one piece.

Wrappers are installed at the attribute each caller resolves: names that
``keccak_xbar`` imported from ``scheduler`` are patched on ``keccak_xbar``,
calls written ``engine.freeze(...)`` are patched on ``engine``, and methods
are patched on their class. Nothing in the package is edited.
"""

from __future__ import annotations

import contextlib
import functools
import time


class Tracer:
    """Records nested spans; ``spans[i]`` is ``[name, start, end, parent, attrs]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the ``with`` block as one span; yields its index."""
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``count(args, kwargs, result)`` may return a dict of counts that is
        stored on the span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def recorded(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                self.spans[index][4].update(count(args, kwargs, result))
            return result

        setattr(owner, attr, recorded)

    # ---------------------------------------------------------------- queries

    def duration(self, index: int) -> float:
        _, start, end, _, _ = self.spans[index]
        return end - start

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        times = [self.duration(i) for i in range(len(self.spans))]
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                times[span[3]] -= self.duration(i)
        return times

    def under(self, root: int) -> list[int]:
        """Indices of every span nested below ``root``."""
        inside = {root}
        found = []
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][3] in inside:
                inside.add(i)
                found.append(i)
        return found

    def as_records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, **attrs}
                for n, s, e, p, attrs in self.spans]


GENERATORS = ("theta_microcode", "variable_rotate", "pi_microcode",
              "chi_microcode", "iota_local_microcode", "absorb_microcode",
              "rot_fetch_microcode", "rc_fetch_microcode")


def _macro_ops(args, kwargs, result) -> dict:
    streams = result if isinstance(result, list) else [result]
    return {"macro_ops": sum(len(s) for s in streams)}


def _replay_counts(args, kwargs, result) -> dict:
    program, _, deltas = args[:3]
    per_set = [len(d) for d in deltas]
    return {"bundles": program.n_bundles, "units": per_set[0],
            "gates": int(program.gates_by_label_set.sum(axis=0) @ per_set),
            "program": id(program)}


def _region_rows(args, kwargs, result) -> dict:
    rows = args[1]
    return {"rows": rows[1] - rows[0]}


def install(tracer: Tracer) -> None:
    """Wrap every public layer boundary of sha3pim in span recorders."""
    from sha3pim import crossbar, engine, keccak_xbar

    for name in GENERATORS:
        tracer.wrap(keccak_xbar, name, "generate", _macro_ops)
    tracer.wrap(keccak_xbar, "schedule", "schedule",
                lambda a, k, r: {"bundles": len(r.bundles)})
    tracer.wrap(crossbar.Crossbar, "check_bundle", "verify")
    tracer.wrap(engine, "freeze", "freeze")
    tracer.wrap(engine, "concat", "concat")
    tracer.wrap(engine, "replay", "replay", _replay_counts)
    tracer.wrap(crossbar.Crossbar, "write_region", "io.write", _region_rows)
    tracer.wrap(crossbar.Crossbar, "read_region", "io.read", _region_rows)
    tracer.wrap(keccak_xbar.CompiledKeccak, "run_permute", "permute")
    tracer.wrap(keccak_xbar.CompiledKeccak, "run_absorb", "absorb")
    tracer.wrap(keccak_xbar.CrossbarLayout, "setup_shared_blocks", "shared_blocks")
    tracer.wrap(keccak_xbar, "plan_cohorts", "plan",
                lambda a, k, r: {"cohorts": len(r)})
    tracer.wrap(keccak_xbar, "read_unit_state", "readout")
    tracer.wrap(keccak_xbar, "bits_to_lanes", "readout")
