import math

import numpy as np
import pytest

from magmech.params import (TWO_PI, DriveParams, PhysicalParams, eta_ratio,
                            reference_baseline, rabi_frequency,
                            thermal_occupation)


def test_thermal_occupation_zero_temperature():
    assert thermal_occupation(TWO_PI * 1e7, 0.0) == 0.0
    assert thermal_occupation(TWO_PI * 1e10, 0.0) == 0.0


def test_thermal_occupation_reference_values():
    # Bose-Einstein factor with hbar = 1.0546e-34 J s, k_B = 1.3807e-23 J/K
    assert thermal_occupation(TWO_PI * 10e6, 0.015) == pytest.approx(
        30.757914124356027, rel=1e-12)
    assert thermal_occupation(TWO_PI * 10e9, 0.015) == pytest.approx(
        1.2732393232974318e-14, rel=1e-9)


def test_thermal_occupation_rejects_nonpositive_frequency():
    with pytest.raises(ValueError):
        thermal_occupation(0.0, 0.1)
    with pytest.raises(ValueError):
        thermal_occupation(-1.0, 0.1)
    with pytest.raises(ValueError):
        thermal_occupation(1.0, -0.1)


def test_thermal_occupation_monotone_in_temperature_and_frequency():
    omegas = TWO_PI * np.logspace(6, 10, 9)
    temps = np.linspace(0.001, 1.0, 9)
    for w in omegas:
        occ = [thermal_occupation(w, t) for t in temps]
        assert all(b > a for a, b in zip(occ, occ[1:]))
    for t in temps:
        occ = [thermal_occupation(w, t) for w in omegas]
        assert all(b < a for a, b in zip(occ, occ[1:]))


def test_thermal_occupation_huge_gap_underflows_to_zero():
    assert thermal_occupation(TWO_PI * 1e15, 1e-6) == 0.0


def test_eta_ratio_examples(baseline):
    passive = baseline.with_(gain_g=0.0)
    assert eta_ratio(passive) == pytest.approx(1.0)
    # gain 1.5 kappa_1 with kappa_2 = kappa_1 gives the active value -0.5
    assert eta_ratio(baseline) == pytest.approx(-0.5)
    balanced = baseline.with_(kappa_2=2 * baseline.kappa_1,
                              gain_g=2 * baseline.kappa_1)
    assert eta_ratio(balanced) == pytest.approx(0.0)


def test_eta_ratio_invariant_under_joint_rescaling(baseline):
    for s in (0.1, 2.0, 7.5):
        scaled = baseline.with_(kappa_1=s * baseline.kappa_1,
                                kappa_2=s * baseline.kappa_2,
                                gain_g=s * baseline.gain_g)
        assert eta_ratio(scaled) == pytest.approx(eta_ratio(baseline),
                                                  abs=1e-14)


def test_rabi_frequency_reference_value():
    drive = DriveParams(B_0=1e-4, sphere_diameter=250e-6)
    expected = (math.sqrt(5) / 4) * (TWO_PI * 28e9) \
        * math.sqrt(4.22e27 * math.pi * (250e-6) ** 3 / 6) * 1e-4
    assert rabi_frequency(drive) == pytest.approx(expected, rel=1e-12)
    assert rabi_frequency(drive) == pytest.approx(1.8273782865237672e15,
                                                  rel=1e-9)


def test_rabi_frequency_linear_in_drive_amplitude():
    d1 = DriveParams(B_0=2e-5, sphere_diameter=250e-6)
    d2 = DriveParams(B_0=4e-5, sphere_diameter=250e-6)
    assert rabi_frequency(d2) == pytest.approx(2 * rabi_frequency(d1),
                                               rel=1e-14)
    tiny = DriveParams(B_0=1e-30, sphere_diameter=250e-6)
    assert rabi_frequency(tiny) < 1e-10


def test_rabi_frequency_scales_with_diameter_three_halves():
    d1 = DriveParams(B_0=1e-4, sphere_diameter=100e-6)
    d2 = DriveParams(B_0=1e-4, sphere_diameter=400e-6)
    assert rabi_frequency(d2) / rabi_frequency(d1) == pytest.approx(
        4.0 ** 1.5, rel=1e-12)


def test_drive_params_reject_nonpositive_fields():
    with pytest.raises(ValueError):
        DriveParams(B_0=0.0, sphere_diameter=250e-6)
    with pytest.raises(ValueError):
        DriveParams(B_0=1e-4, sphere_diameter=-1.0)


def test_physical_params_validation(baseline):
    with pytest.raises(ValueError):
        baseline.with_(kappa_1=0.0)
    with pytest.raises(ValueError):
        baseline.with_(omega_1=0.0)
    with pytest.raises(ValueError):
        baseline.with_(temperature_T=-1e-3)
    with pytest.raises(ValueError):
        baseline.with_(gain_g=-1.0)
    with pytest.raises(ValueError):
        baseline.with_(coupling_mode="nonsense")
    with pytest.raises(ValueError):
        baseline.with_(diffusion_convention="nonsense")
    with pytest.raises(ValueError):
        baseline.with_(G_mb=-1.0)


def test_baseline_table(baseline):
    assert baseline.omega_b == pytest.approx(TWO_PI * 10e6)
    assert baseline.kappa_m == pytest.approx(TWO_PI * 0.56e6)
    assert baseline.J == pytest.approx(2 * baseline.kappa_1)
    assert baseline.G_mb == pytest.approx(TWO_PI * 3.2e6)
    assert baseline.temperature_T == 0.015
    assert isinstance(baseline, PhysicalParams)
    # overrides go through
    hot = reference_baseline(temperature_T=0.1)
    assert hot.temperature_T == 0.1
