"""The benchmark's metrics, and which end-to-end figure each layer moves.

``python3 perfbench/catalog.py`` prints the ``BENCHMARK.json`` that
matches these tables; the committed file must equal its output.

Host time is what the simulator takes to run; simulated figures are what
the modelled crossbar would take. Every ``sim`` figure is exact and must
not change under a change that only speeds up the simulator.
"""

from __future__ import annotations

import json

# Workloads of BENCHMARK.json. ``lockstep_378`` (378 x 135 B, one full
# crossbar) is defined in ``worker.py`` and runs by hand, but is left out
# here: at about 55 s per run, repeating all three workloads ten-odd times
# each would take close to an hour on 2 CPUs.
WORKLOADS = [
    {"name": "abc_cold",
     "why": "b'abc' on 1 unit: set-up and per-bundle replay overhead dominate; "
            "a wider replay kernel should leave it unchanged (sim_cycles 79186)"},
    {"name": "sweep_0_200",
     "why": "201 messages of 0-200 B: cohorts of 136x1 and 65x2 blocks, partial "
            "occupancy, absorb and io staging, per-cell replay (sim_cycles 270249)"},
]

# name, unit, better, bound (share of the parent's median). Host-time
# bounds come from measured run-to-run spread on a 2-CPU VM whose CPUs
# drift by up to +-20% over seconds: quartile spread over 5 runs was about
# 0.10 for hash_s and gate_exec_per_s (two calls on abc_cold, one on
# sweep_0_200), 0.14-0.26 for setup_s and under 0.02 for peak_rss_mb, so
# the timing bounds sit at the 0.25 cap. Simulated figures are exact.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "hash_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "gate_exec_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
    {"name": "sim_cycles", "unit": "cycles", "better": "lower", "bound": 0.01},
    {"name": "sim_io_cycles", "unit": "cycles", "better": "lower", "bound": 0.01},
    {"name": "sim_energy_nj", "unit": "nJ", "better": "lower", "bound": 0.01},
    {"name": "sim_tput_gbps", "unit": "Gbit/s", "better": "higher", "bound": 0.01},
]

_SETUP = "setup_s on both workloads, most on abc_cold"
_HASH = "hash_s and gate_exec_per_s"
_SIM = "sim_cycles, sim_energy_nj, sim_tput_gbps on both workloads"

# name, unit, better, moves: the end-to-end metric and workload it moves
PER_LAYER = [
    # keccak_xbar microcode generators
    {"name": "compile.generate_s", "unit": "s", "better": "lower", "moves": _SETUP},
    {"name": "compile.macro_ops", "unit": "count", "better": "lower", "moves": _SETUP},
    # scheduler (self time, legality checks excluded)
    {"name": "compile.schedule_s", "unit": "s", "better": "lower", "moves": _SETUP},
    {"name": "compile.bundles", "unit": "count", "better": "lower", "moves": _SETUP},
    # crossbar legality check
    {"name": "compile.verify_s", "unit": "s", "better": "lower", "moves": _SETUP},
    {"name": "compile.verify_calls", "unit": "count", "better": "lower", "moves": _SETUP},
    # engine freeze/concat
    {"name": "compile.freeze_s", "unit": "s", "better": "lower", "moves": _SETUP},
    {"name": "compile.concat_s", "unit": "s", "better": "lower", "moves": _SETUP},
    {"name": "compile.events", "unit": "count", "better": "lower", "moves": _SETUP},
    # engine replay
    {"name": "replay_s", "unit": "s", "better": "lower",
     "moves": f"{_HASH} on both workloads"},
    {"name": "replay.calls", "unit": "count", "better": "lower",
     "moves": "hash_s on sweep_0_200"},
    {"name": "replay.ns_per_gate_exec", "unit": "ns", "better": "lower",
     "moves": f"{_HASH}, most on sweep_0_200 (per-cell work)"},
    {"name": "replay.us_per_bundle", "unit": "us", "better": "lower",
     "moves": f"{_HASH}, most on abc_cold (per-bundle work)"},
    # one-round step replays on the widest cohort, scaled to a permutation
    {"name": "replay.theta_s", "unit": "s", "better": "lower",
     "moves": f"{_HASH} on both workloads"},
    {"name": "replay.rho_s", "unit": "s", "better": "lower",
     "moves": f"{_HASH} on both workloads"},
    {"name": "replay.pi_s", "unit": "s", "better": "lower",
     "moves": f"{_HASH} on both workloads"},
    {"name": "replay.chi_s", "unit": "s", "better": "lower",
     "moves": f"{_HASH} on both workloads"},
    {"name": "replay.iota_s", "unit": "s", "better": "lower",
     "moves": f"{_HASH} on both workloads"},
    {"name": "replay.step_sum_ratio", "unit": "ratio", "better": "lower",
     "moves": "none; near 1 when the step split accounts for the permutation"},
    {"name": "replay.strict_1u_s", "unit": "s", "better": "lower",
     "moves": "none on these workloads; strict-init hashing only"},
    # crossbar peripheral io
    {"name": "io.write_calls", "unit": "count", "better": "lower",
     "moves": "hash_s on sweep_0_200"},
    {"name": "io.write_s", "unit": "s", "better": "lower",
     "moves": "hash_s on sweep_0_200"},
    {"name": "io.read_calls", "unit": "count", "better": "lower",
     "moves": "hash_s on sweep_0_200"},
    {"name": "io.read_s", "unit": "s", "better": "lower",
     "moves": "hash_s on sweep_0_200"},
    {"name": "io.peripheral_cycles", "unit": "cycles", "better": "lower",
     "moves": "sim_io_cycles on both workloads (must equal it)"},
    # keccak_xbar sponge driver
    {"name": "driver.cohorts", "unit": "count", "better": "lower",
     "moves": "hash_s on sweep_0_200"},
    {"name": "driver.permutes", "unit": "count", "better": "lower",
     "moves": "hash_s and sim_cycles on sweep_0_200"},
    {"name": "driver.absorbs", "unit": "count", "better": "lower",
     "moves": "hash_s and sim_cycles on sweep_0_200"},
    {"name": "driver.absorb_stage_s", "unit": "s", "better": "lower",
     "moves": "hash_s on sweep_0_200"},
    {"name": "driver.shared_blocks_s", "unit": "s", "better": "lower",
     "moves": "hash_s on sweep_0_200"},
    {"name": "driver.readout_s", "unit": "s", "better": "lower",
     "moves": "hash_s on sweep_0_200"},
    {"name": "driver.self_s", "unit": "s", "better": "lower",
     "moves": "hash_s on sweep_0_200"},
    # modelled components (exact)
    *({"name": f"sim.{label}_{kind}", "unit": unit, "better": "lower", "moves": _SIM}
      for label in ("theta", "rho", "pi", "chi", "iota", "io")
      for kind, unit in (("cycles", "cycles"), ("gates", "count"))),
    {"name": "sim.io_absorb_gate_cycles", "unit": "cycles", "better": "lower",
     "moves": "sim_cycles on sweep_0_200 (io label = this + sim_io_cycles)"},
    {"name": "sim.cycles_per_round", "unit": "cycles", "better": "lower", "moves": _SIM},
    # accuracy against the paper's design point (3494 cycles, 0.765 nJ/round/unit)
    {"name": "sim.round_cycles_err_pct", "unit": "%", "better": "lower",
     "moves": "none; model accuracy beside sim_cycles"},
    {"name": "sim.round_energy_err_pct", "unit": "%", "better": "lower",
     "moves": "none; model accuracy beside sim_energy_nj"},
    # tracing cost: traced set-up + hash against the untraced median
    {"name": "trace.overhead_pct", "unit": "%", "better": "lower",
     "moves": "none; cost of the span recorders, within host-time noise"},
]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 20,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")} for m in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
