"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
and the per-step cycle/energy breakdown table.

The 1 MB functional case is always skipped: the replay kernel runs every
event on all active units at once, but the 1 MB message is 7,711 blocks
hashed one permutation at a time on a single unit, about 0.5 s each, which
adds up to more than an hour. Criterion 1 hashes a 5-block message in its
place.
"""

import random
from contextlib import contextmanager

import numpy as np
import pytest

from sha3pim import keccak_ref as ref
from sha3pim.crossbar import CrossbarConfig
from sha3pim.keccak_xbar import (
    CrossbarLayout,
    hash_message,
    hash_messages,
    measure_round_stats,
)
from sha3pim.metrics import REFERENCE_INPUT, compute, scaled
from conftest import random_lanes
from stream_props import check_equivalence

REFERENCE_CYCLES_PER_ROUND = 3494.0
REFERENCE_ENERGY_NJ = 0.765
TOLERANCE = 0.20


@contextmanager
def verdict(number: int, title: str):
    try:
        yield
    except pytest.skip.Exception:
        print(f"\nACCEPTANCE {number} ({title}): SKIP")
        raise
    except BaseException:
        print(f"\nACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({title}): PASS")


@pytest.fixture(scope="module")
def round_measurement():
    return measure_round_stats(n_units=378)


def test_criterion_1_functional_correctness():
    with verdict(1, "functional correctness, digests bit-exact"):
        for message in (b"", b"abc"):
            digest, _ = hash_message(message)
            assert digest == ref.sha3_256(message), message

        rng = np.random.default_rng(20240101)
        sweep = [rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
                 for n in range(201)]
        digests, _ = hash_messages(sweep)
        for message, digest in zip(sweep, digests):
            assert digest == ref.sha3_256(message), len(message)

        concurrent = [rng.integers(0, 256, size=136, dtype=np.uint8).tobytes()
                      for _ in range(378)]
        digests, _ = hash_messages(concurrent)
        for message, digest in zip(concurrent, digests):
            assert digest == ref.sha3_256(message)

        five_blocks = rng.integers(0, 256, size=600, dtype=np.uint8).tobytes()
        digest, _ = hash_message(five_blocks)
        assert digest == ref.sha3_256(five_blocks)


@pytest.mark.skip(reason="7,711 one-unit permutations at about 0.5 s each "
                         "take more than an hour")
def test_criterion_1_one_megabyte_message():
    with verdict(1, "1 MB message, digest bit-exact"):
        rng = np.random.default_rng(1 << 20)
        big = rng.integers(0, 256, size=1 << 20, dtype=np.uint8).tobytes()
        digest, _ = hash_message(big)
        assert digest == ref.sha3_256(big)


def test_verdict_reports_a_skip_as_skip(capsys):
    with pytest.raises(pytest.skip.Exception):
        with verdict(0, "skipped"):
            pytest.skip("not run")
    assert capsys.readouterr().out == "\nACCEPTANCE 0 (skipped): SKIP\n"


def test_criterion_2_step_equivalence(step_runner):
    step_fns = {"theta": ref.theta, "rho": ref.rho, "pi": ref.pi,
                "chi": ref.chi, "iota": lambda s: ref.iota(s, 5)}
    with verdict(2, "step-level oracle equivalence, 100 states per step"):
        rng = random.Random(1602)
        for step, fn in step_fns.items():
            for _ in range(100):
                lanes = random_lanes(rng)
                got = step_runner.run(step, lanes, round_index=5)
                assert got == fn(lanes), step

        # standalone variable rotation: 1,000 random (lane, offset) pairs
        from test_keccak_xbar import rotate_with_offsets
        for _ in range(40):
            lanes = [rng.getrandbits(64) for _ in range(25)]
            offsets = [rng.randrange(64) for _ in range(25)]
            got = rotate_with_offsets(step_runner, lanes, offsets)
            assert got == [ref.rotl64(v, k) for v, k in zip(lanes, offsets)]


def test_criterion_3_cycles_per_round(round_measurement):
    with verdict(3, "cycles per round within 20% of 3,494"):
        cycles = round_measurement["cycles_per_round"]
        print("\nper-step breakdown (per round, per unit):")
        print(f"  {'step':<8}{'cycles':>10}{'gates':>14}{'energy nJ':>12}")
        for step in ("theta", "rho", "pi", "chi", "iota"):
            entry = round_measurement["per_step"][step]
            print(f"  {step:<8}{entry['cycles_per_round']:>10.1f}"
                  f"{entry['gate_executions_per_round']:>14.1f}"
                  f"{entry['energy_per_round_per_unit_nj']:>12.4f}")
        print(f"  {'total':<8}{cycles:>10.1f}"
              f"{round_measurement['gate_executions_per_round']:>14.1f}"
              f"{round_measurement['energy_per_round_per_unit_nj']:>12.4f}")
        deviation = cycles / REFERENCE_CYCLES_PER_ROUND - 1
        print(f"  reference {REFERENCE_CYCLES_PER_ROUND:.0f} cycles; "
              f"deviation {deviation:+.1%}")
        assert abs(deviation) <= TOLERANCE


def test_criterion_4_energy_per_round(round_measurement):
    with verdict(4, "energy per round per unit within 20% of 0.765 nJ"):
        energy = round_measurement["energy_per_round_per_unit_nj"]
        deviation = energy / REFERENCE_ENERGY_NJ - 1
        print(f"\nenergy {energy:.4f} nJ/round/unit at 378 active units "
              f"(deviation {deviation:+.1%})")
        assert abs(deviation) <= TOLERANCE
        single = measure_round_stats(n_units=1)
        energy_single = single["energy_per_round_per_unit_nj"]
        print(f"energy {energy_single:.4f} nJ/round/unit at 1 active unit "
              f"(deviation {energy_single / REFERENCE_ENERGY_NJ - 1:+.1%})")
        assert abs(energy_single / REFERENCE_ENERGY_NJ - 1) <= TOLERANCE

        # exact-by-construction energy accounting at 6.4 fJ per gate
        _, stats = hash_message(b"energy invariant")
        assert stats.energy_fj == stats.gate_executions * 6.4


def test_criterion_5_metrics_reproduction():
    with verdict(5, "metrics within 1% of the published table"):
        one = compute(REFERENCE_INPUT)
        two = scaled(REFERENCE_INPUT, 2)
        assert one.tput_system_bps / 1e9 == pytest.approx(39.2, rel=0.01)
        assert two.tput_system_bps / 1e9 == pytest.approx(78.4, rel=0.01)
        assert one.tput_per_watt_bps / 1e9 == pytest.approx(1422, rel=0.01)
        assert two.tput_per_watt_bps / 1e9 == pytest.approx(1422, rel=0.01)


def test_criterion_6_unit_packing():
    with verdict(6, "1024x1024 crossbar packs exactly 378 units of 72x37"):
        config = CrossbarConfig()
        assert config.num_units == 378
        layout = CrossbarLayout(config)
        assert layout.num_units == 378
        origins = [layout.unit_origin(u) for u in range(layout.num_units)]
        assert len(set(origins)) == 378
        for r, c in origins:
            assert 0 <= r and r + 72 <= config.rows
            assert 0 <= c and c + 37 <= config.cols
        # units tile partition-aligned with no overlap
        cells = set()
        for r, c in origins:
            block = {(r + i, c + j) for i in range(72) for j in range(37)}
            assert not (cells & block)
            cells |= block


def test_criterion_7_scheduler_soundness():
    with verdict(7, "1,000 random streams: bundles = serial, all legal"):
        rng = random.Random(7777)
        total_bundles = 0
        for _ in range(1000):
            total_bundles += check_equivalence(rng)
        print(f"\n{total_bundles} bundles emitted, all legal, "
              "all equivalent to serial execution")
