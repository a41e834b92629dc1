"""Throughput/power/area model against the published comparison figures."""

from dataclasses import replace

import pytest

from sha3pim.metrics import REFERENCE_INPUT, MetricsInput, compute


def test_reference_point_one_crossbar():
    report = compute(REFERENCE_INPUT)
    assert report.tput_system_bps / 1e9 == pytest.approx(39.2, rel=0.01)
    assert report.tput_per_watt_bps / 1e9 == pytest.approx(1422, rel=0.01)
    assert report.tput_per_area_bps_f2 == pytest.approx(9354, rel=0.01)


def test_reference_point_two_crossbars():
    report = compute(replace(REFERENCE_INPUT, crossbars=2))
    assert report.tput_system_bps / 1e9 == pytest.approx(78.4, rel=0.01)
    assert report.tput_per_watt_bps / 1e9 == pytest.approx(1422, rel=0.01)


def test_linear_scaling_and_invariance():
    one = compute(REFERENCE_INPUT)
    for n in (2, 3, 10):
        report = compute(replace(REFERENCE_INPUT, crossbars=n))
        assert report.tput_system_bps == pytest.approx(n * one.tput_system_bps)
        assert report.tput_per_watt_bps == pytest.approx(one.tput_per_watt_bps)


def test_tput_per_watt_is_rate_over_energy():
    for units, crossbars in [(1, 1), (378, 1), (50, 4)]:
        inputs = replace(REFERENCE_INPUT, units_per_crossbar=units,
                         crossbars=crossbars)
        report = compute(inputs)
        assert report.tput_per_watt_bps == pytest.approx(
            inputs.rate_bits / inputs.energy_unit_j)


def test_round_trip_with_measured_values():
    inputs = MetricsInput(latency_round_cycles=3250.0, energy_unit_j=0.80e-9)
    report = compute(inputs)
    assert report.tput_per_watt_bps == pytest.approx(1088 / 0.80e-9)
    assert report.tput_unit_bps == pytest.approx(1088 / 3250 * (1 / 3e-9))


def test_invalid_inputs():
    with pytest.raises(ValueError):
        compute(MetricsInput(latency_round_cycles=0))
    with pytest.raises(ValueError):
        compute(MetricsInput(crossbars=-1))
    with pytest.raises(ValueError, match="not finite"):
        # finite inputs whose system throughput overflows
        compute(MetricsInput(clock_hz=1e307))
    with pytest.raises(ValueError, match="not finite and positive"):
        # finite inputs whose system power underflows to 0 W
        compute(MetricsInput(clock_hz=1e-291, energy_unit_j=1.25e-300))
