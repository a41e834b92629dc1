"""One measured process: import sha3pim, compile, hash one workload.

Started by ``run.py`` in a fresh interpreter with ``src`` on ``PYTHONPATH``
so that set-up (import plus the cold ``compiled_keccak()``) is paid exactly
as a command-line user pays it. Prints one JSON object as its last line.

Modes:
  setup  import and compile only (an extra set-up sample);
  run    set-up, then ``hash_messages`` repeated for at least ``--seconds``;
  trace  set-up and one ``hash_messages`` call with span recorders on every
         layer boundary, then per-step and strict-init replays.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

STEPS = ("theta", "rho", "pi", "chi", "iota")
LABELS = STEPS + ("io",)
PAPER_CYCLES_PER_ROUND = 3494       # reference design point, cycles/round
PAPER_ENERGY_PER_ROUND_NJ = 0.765   # reference design point, nJ/round/unit

# Lengths are fixed per workload; the seed only picks message bytes. The
# microcode is data-oblivious, so the seed changes digests but not work.
WORKLOADS = {
    # one message, one unit: set-up and per-bundle replay overhead
    "abc_cold": lambda rng: [b"abc"],
    # full crossbar, longest one-block length: per-cell replay work
    "lockstep_378": lambda rng: [rng.randbytes(135) for _ in range(378)],
    # 136 one-block and 65 two-block messages: partial occupancy, absorb, io
    "sweep_0_200": lambda rng: [rng.randbytes(n) for n in range(201)],
}


def messages_for(workload: str, seed: int) -> list[bytes]:
    return WORKLOADS[workload](random.Random(seed))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ------------------------------------------------------------ simulated cost

def simulated(stats, messages, compiled, keccak_xbar) -> tuple[dict, list[str]]:
    """Modelled-hardware figures of one ``hash_messages`` call, and the
    consistency violations found in them (empty when consistent)."""
    config = compiled.config
    layout = compiled.layout
    params = keccak_xbar.KECCAK
    blocks = [len(keccak_xbar.pad_message(m)) for m in messages]
    cohorts = keccak_xbar.plan_cohorts(blocks, layout.num_units)
    absorbs = sum(blocks[c[0]] - 1 for c in cohorts)
    permutes = sum(blocks[c[0]] for c in cohorts)

    # io label = peripheral rows + the absorb XOR gates charged to io
    absorb_cycles = sum(int(p.cycles_by_label[p.label_names.index("io")])
                        for p in compiled.absorb)
    shared_rows = (layout.ROT_PLANES * layout.hparts
                   + keccak_xbar.LANE_BITS * layout.vparts)
    peripheral = config.io_cycles_per_row * sum(
        shared_rows + len(c) * keccak_xbar.LANE_BITS
        * (2 + len(compiled.absorb) * (blocks[c[0]] - 1))
        for c in cohorts)

    per_label = stats.per_label
    io = per_label.get("io")
    io_cycles = io.cycles if io else 0
    io_gates = io.gate_executions if io else 0
    perm_cycles = stats.cycles - io_cycles
    energy_nj = stats.energy_fj * 1e-6
    round_energy_nj = ((stats.gate_executions - io_gates) * config.gate_energy_fj
                       * 1e-6 / (sum(blocks) * params.rounds))
    cycles_per_round = perm_cycles / (permutes * params.rounds)
    seconds = stats.cycles * config.gate_delay_ns * 1e-9

    sim = {
        "sim_cycles": stats.cycles,
        "sim_io_cycles": peripheral,
        "sim_energy_nj": energy_nj,
        "sim_tput_gbps": sum(blocks) * params.rate_bits / seconds / 1e9,
    }
    for label in LABELS:
        entry = per_label.get(label)
        sim[f"sim.{label}_cycles"] = entry.cycles if entry else 0
        sim[f"sim.{label}_gates"] = entry.gate_executions if entry else 0
    sim["sim.io_absorb_gate_cycles"] = absorbs * absorb_cycles
    sim["sim.cycles_per_round"] = cycles_per_round
    sim["sim.round_cycles_err_pct"] = (
        100 * abs(cycles_per_round / PAPER_CYCLES_PER_ROUND - 1))
    sim["sim.round_energy_err_pct"] = (
        100 * abs(round_energy_nj / PAPER_ENERGY_PER_ROUND_NJ - 1))

    problems = []
    if stats.energy_fj != stats.gate_executions * config.gate_energy_fj:
        problems.append("energy differs from gate executions x gate energy")
    if sum(e.cycles for e in per_label.values()) != stats.cycles:
        problems.append("per-label cycles do not sum to the total")
    if sum(e.gate_executions for e in per_label.values()) != stats.gate_executions:
        problems.append("per-label gate executions do not sum to the total")
    if peripheral + absorbs * absorb_cycles != io_cycles:
        problems.append(f"peripheral rows {peripheral} + absorb gate cycles "
                        f"{absorbs * absorb_cycles} != io label {io_cycles}")
    return sim, problems


# ------------------------------------------------------------- traced extras

def step_replays(compiled, unit_ids) -> dict:
    """Replay each one-round step program on ``unit_ids``; seconds per
    permutation (one round's replay x the round count)."""
    from sha3pim import engine
    from sha3pim.crossbar import Crossbar
    from sha3pim.keccak_xbar import KECCAK

    xbar = Crossbar(compiled.config)
    compiled.layout.setup_shared_blocks(xbar)
    deltas = compiled.deltas_for(unit_ids)
    programs = {step: compiled.step_program(step) for step in STEPS}
    seconds = {}
    for step, program in programs.items():
        t = time.perf_counter()
        engine.replay(program, xbar, deltas)
        seconds[step] = (time.perf_counter() - t) * KECCAK.rounds
    return seconds


def layer_metrics(tracer, roots: dict, compiled) -> dict:
    """Per-layer figures from the spans under the compile/hash roots."""
    spans = tracer.spans
    self_t = tracer.self_times()
    dur = tracer.duration

    def named(root: str, name: str) -> list[int]:
        return [i for i in tracer.under(roots[root]) if spans[i][0] == name]

    def total(indices, attr=None) -> float:
        return sum(spans[i][4][attr] if attr else dur(i) for i in indices)

    m = {}
    generate = named("compile", "generate")
    m["compile.generate_s"] = total(generate)
    m["compile.macro_ops"] = total(generate, "macro_ops")
    scheduled = named("compile", "schedule")
    m["compile.schedule_s"] = sum(self_t[i] for i in scheduled)
    m["compile.bundles"] = total(scheduled, "bundles")
    verify = named("compile", "verify")
    m["compile.verify_s"] = total(verify)
    m["compile.verify_calls"] = len(verify)
    m["compile.freeze_s"] = total(named("compile", "freeze"))
    m["compile.concat_s"] = total(named("compile", "concat"))
    m["compile.events"] = compiled.permute.n_events

    replays = named("hash", "replay")
    replay_s = total(replays)
    m["replay_s"] = replay_s
    m["replay.calls"] = len(replays)
    m["replay.ns_per_gate_exec"] = replay_s / total(replays, "gates") * 1e9
    m["replay.us_per_bundle"] = replay_s / total(replays, "bundles") * 1e6

    writes, reads = named("hash", "io.write"), named("hash", "io.read")
    m["io.write_calls"] = len(writes)
    m["io.write_s"] = total(writes)
    m["io.read_calls"] = len(reads)
    m["io.read_s"] = total(reads)
    m["io.peripheral_cycles"] = (compiled.config.io_cycles_per_row
                                 * (total(writes, "rows") + total(reads, "rows")))

    absorbs = named("hash", "absorb")
    m["driver.cohorts"] = total(named("hash", "plan"), "cohorts")
    m["driver.permutes"] = len(named("hash", "permute"))
    m["driver.absorbs"] = len(absorbs)
    m["driver.absorb_stage_s"] = sum(
        dur(i) - sum(dur(j) for j in tracer.under(i) if spans[j][0] == "replay")
        for i in absorbs)
    m["driver.shared_blocks_s"] = total(named("hash", "shared_blocks"))
    m["driver.readout_s"] = total(named("hash", "readout"))
    m["driver.self_s"] = self_t[roots["hash"]]
    return m


def widest_permute_s(tracer, root: int, compiled) -> tuple[float, int]:
    """Seconds and unit count of the widest whole-permutation replay."""
    permutes = []
    for i in tracer.under(root):
        name, _, _, _, attrs = tracer.spans[i]
        if name == "replay" and attrs["program"] == id(compiled.permute):
            permutes.append((tracer.duration(i), attrs["units"]))
    return max(permutes, key=lambda pair: pair[1], default=(0.0, 0))


# ---------------------------------------------------------------------- main

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", help="file to write the recorded spans to")
    args = parser.parse_args(argv)

    tracer = None
    if args.mode == "trace":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import spans
        tracer = spans.Tracer()

    t0 = time.perf_counter()
    import sha3pim
    from sha3pim import engine, keccak_xbar
    from sha3pim.crossbar import CrossbarConfig
    out = {"module": sha3pim.__file__}
    roots = {}
    if tracer:
        spans.install(tracer)
        with tracer.span("compile") as roots["compile"]:
            compiled = keccak_xbar.compiled_keccak()
    else:
        compiled = keccak_xbar.compiled_keccak()
    out["setup_s"] = time.perf_counter() - t0
    out["backend"] = engine.active_backend()
    out["numba"] = engine.HAVE_NUMBA
    out["numpy"] = sys.modules["numpy"].__version__
    out["python"] = sys.version.split()[0]
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    messages = messages_for(args.workload, args.seed)
    calls = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        try:
            if tracer:
                with tracer.span("hash") as roots["hash"]:
                    result = keccak_xbar.hash_messages(messages)
            else:
                result = keccak_xbar.hash_messages(messages)
        except Exception:       # the run is reported as failed, never dropped
            result = None
            out["errors"] = [traceback.format_exc()]
        calls.append((time.perf_counter() - t, result))
        if result is None or tracer or time.perf_counter() - start >= args.seconds:
            break

    # Everything below is outside the timed section.
    problems = []
    failed = 0
    sims = []
    for _, result in calls:
        if result is None:      # an exception fails every message of the run
            failed = len(messages) * len(calls)
            break
        digests, stats = result
        failed += sum(d != hashlib.sha3_256(m).digest()
                      for d, m in zip(digests, messages))
        sim, found = simulated(stats, messages, compiled, keccak_xbar)
        sims.append((sim, stats.gate_executions))
        problems += found
    if any(s != sims[0] for s in sims[1:]):
        problems.append("simulated figures differ between calls of one run")
    out.update(calls=len(calls), attempted=len(messages) * len(calls),
               failed=failed, hash_s=statistics.median(s for s, _ in calls),
               hash_calls_s=[s for s, _ in calls], problems=problems)
    if sims:
        out["sim"], out["gate_executions"] = sims[0]

    if tracer and sims:
        permute_s, width = widest_permute_s(tracer, roots["hash"], compiled)
        with tracer.span("steps"):
            steps = step_replays(compiled, list(range(width)))
        with tracer.span("strict") as roots["strict"]:
            digests, _ = keccak_xbar.hash_messages(
                [b"abc"], config=CrossbarConfig(strict_init=True))
        if digests[0] != hashlib.sha3_256(b"abc").digest():
            problems.append("strict-init digest of b'abc' mismatched")
        layers = layer_metrics(tracer, roots, compiled)
        for step, seconds in steps.items():
            layers[f"replay.{step}_s"] = seconds
        layers["replay.step_sum_ratio"] = sum(steps.values()) / permute_s
        layers["replay.strict_1u_s"] = widest_permute_s(
            tracer, roots["strict"], compiled)[0]
        if layers["io.peripheral_cycles"] != out["sim"]["sim_io_cycles"]:
            problems.append("traced peripheral rows differ from sim_io_cycles")
        out["layers"] = layers
        if args.spans:
            Path(args.spans).write_text(json.dumps(tracer.as_records()))
    out["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
