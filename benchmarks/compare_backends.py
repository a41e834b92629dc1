"""Benchmark the numpy replay kernel, and the numba one when importable.

Replays one full 24-round permutation program (about 3 million gate
executions per unit) on 1 and on 378 active units under each available
backend and reports wall time per permutation, plus the speedup when both
run. The same frozen arrays are executed either way, so the digests and
statistics are identical; only replay speed differs.

Run:  python benchmarks/compare_backends.py [--repeats N]
"""

import argparse
import time

import numpy as np

from sha3pim import engine
from sha3pim.crossbar import Crossbar, CrossbarConfig
from sha3pim.keccak_xbar import (
    LANE_BITS,
    STATE_COLS,
    compiled_keccak,
    write_unit_state,
)


def time_permute(compiled, backend: str, n_units: int, repeats: int) -> float:
    engine.set_backend(backend)
    xbar = Crossbar(CrossbarConfig())
    compiled.layout.setup_shared_blocks(xbar)
    unit_ids = list(range(n_units))
    deltas = compiled.deltas_for(unit_ids)
    state = np.zeros((LANE_BITS, STATE_COLS), dtype=np.uint8)
    for u in unit_ids:
        write_unit_state(xbar, compiled.layout.unit(u), state)
    compiled.run_permute(xbar, deltas)          # warm-up (JIT, caches)
    start = time.perf_counter()
    for _ in range(repeats):
        compiled.run_permute(xbar, deltas)
    return (time.perf_counter() - start) / repeats


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions per configuration (default 3)")
    args = parser.parse_args()

    compiled = compiled_keccak(CrossbarConfig())
    cells = compiled.permute.n_gate_executions
    print(f"permutation program: {compiled.permute.n_bundles:,} cycles, "
          f"{compiled.permute.n_events:,} vector events, "
          f"{cells:,} gate executions per unit\n")

    backends = ["numpy"] + (["numba"] if engine.HAVE_NUMBA else [])
    print(f"{'units':>6}  {'backend':<8}{'s/permutation':>15}{'gates/s':>14}")
    results = {}
    for n_units in (1, 378):
        for backend in backends:
            seconds = time_permute(compiled, backend, n_units, args.repeats)
            results[(n_units, backend)] = seconds
            rate = cells * n_units / seconds
            print(f"{n_units:>6}  {backend:<8}{seconds:>15.3f}{rate:>14.2e}")
        if len(backends) == 2:
            speedup = results[(n_units, 'numpy')] / results[(n_units, 'numba')]
            print(f"{'':>6}  numba speedup: {speedup:.1f}x\n")


if __name__ == "__main__":
    main()
