import math

import numpy as np
import pytest

from magmech import params as params_module
from magmech.params import (HBAR, K_B, NUMERIC_FIELDS, SHARED_FIELDS, TWO_PI,
                            DriveParams, ParamStack, PhysicalParams,
                            reference_baseline, rabi_frequency,
                            thermal_occupation)

from .oracles import bose_occupation, eta_ratio


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
    # two scalars, or one bad entry of arrays
    for omega, temperature, message in (
            (0.0, 0.1, "omega must be positive"),
            (-1.0, 0.1, "omega must be positive"),
            (1.0, -0.1, "temperature must be non-negative")):
        omegas, temps = np.full(5, TWO_PI * 1e7), np.full(5, 0.1)
        omegas[3], temps[3] = omega, temperature
        for args in ((omega, temperature), (omegas, temps)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                thermal_occupation(*args)


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


def test_array_thermal_occupation_is_the_scalar_bit_for_bit():
    rng = np.random.default_rng(13)
    omega = TWO_PI * 10.0 ** rng.uniform(5.0, 11.0, 200)
    temps = 10.0 ** rng.uniform(-4.0, 1.0, 200)
    temps[:20] = 0.0
    # x = hbar*omega/(k_B*T) a few ulps either side of 700
    edge = HBAR * omega[20:60] / (K_B * 700.0)
    temps[20:60] = edge * (1.0 + np.linspace(-8.0, 8.0, 40) * 2.0 ** -52)
    x = [HBAR * w / (K_B * t) for w, t in zip(omega[20:60].tolist(),
                                             temps[20:60].tolist())]
    assert min(x) < 700.0 < max(x)
    temps[60:70] = 1e-300  # x overflows to inf
    pairs = list(zip(omega.tolist(), temps.tolist()))
    expected = np.array([bose_occupation(w, t) for w, t in pairs])
    assert np.count_nonzero(expected) > 100
    got = thermal_occupation(omega, temps)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    # two scalars give a float, and the same bits
    scalars = [thermal_occupation(w, t) for w, t in pairs]
    assert all(type(n) is float for n in scalars)
    assert scalars == expected.tolist()
    # arrays broadcast against each other
    grid = thermal_occupation(omega[:, None], temps[None, 60:80])
    assert grid.shape == (200, 20)
    assert np.array_equal(grid[60:80].diagonal(), got[60:80])
    # a temperature whose k_B*T underflows is the T -> 0 limit
    assert thermal_occupation(omega, 5e-324).tolist() == [0.0] * 200


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


@pytest.mark.parametrize("name, value", [
    ("kappa_1", math.nan), ("J", math.inf), ("Delta_m", math.nan),
    ("temperature_T", math.inf), ("temperature_T", math.nan)])
def test_physical_params_must_be_finite(baseline, name, value):
    # none of them breaks an earlier rule: a NaN compares false, and a
    # positive infinity passes every sign rule
    with pytest.raises(ValueError,
                       match="^all numeric parameters must be finite$"):
        baseline.with_(**{name: value})


def test_a_stack_shares_the_modes_and_the_drive(baseline):
    # broadcast copies every shared field of its base, and take keeps
    # them; every other field is a column
    base = baseline.with_(coupling_mode="microscopic", g_mb=1.0,
                          diffusion_convention="physical_sum",
                          drift_mode="printed", epsilon_d=1e14)
    stack = ParamStack.broadcast(base, 3, J=[1.0, 2.0, 3.0])
    assert set(SHARED_FIELDS) == {"coupling_mode", "diffusion_convention",
                                  "drift_mode", "epsilon_d"}
    assert set(NUMERIC_FIELDS).isdisjoint(SHARED_FIELDS)
    for part in (stack, stack.take([2])):
        for name in SHARED_FIELDS:
            assert getattr(part, name) == getattr(base, name)
    assert stack.take([2]).J.tolist() == [3.0]


def _spy_on_rules(monkeypatch):
    """The lengths of the stacks whose validity rules are evaluated."""
    evaluated = []
    checks = params_module._checks

    def spy(p):
        if isinstance(p, ParamStack):
            evaluated.append(len(p))
        return checks(p)

    monkeypatch.setattr(params_module, "_checks", spy)
    return evaluated


def test_a_stack_runs_the_rules_on_every_point(baseline, monkeypatch):
    # every stack is checked when asked, even one whose column keeps the
    # point, and one that breaks a rule reports it
    evaluated = _spy_on_rules(monkeypatch)
    assert ParamStack.broadcast(baseline, 3, J=baseline.J).errors() \
        == [None] * 3
    broken = ParamStack.broadcast(baseline, 3, gain_g=-1.0)
    assert broken.errors() == ["kappa_2 and gain_g must be non-negative"] * 3
    assert broken.take([1]).errors() == [
        "kappa_2 and gain_g must be non-negative"]
    assert evaluated == [3, 3, 1]


@pytest.mark.parametrize("change", [
    lambda s: s.J.__setitem__(1, math.inf),
    lambda s: s.kappa_1.__setitem__(1, -1.0),
    lambda s: setattr(s, "G_mb", np.array([1.0, -1.0, 1.0])),
    lambda s: setattr(s, "coupling_mode", "nonsense")])
def test_copies_changed_in_place_are_checked(baseline, monkeypatch, change):
    # a stack changed after it was built runs the rules, and a take of
    # it too
    stack = ParamStack.broadcast(baseline, 3)
    change(stack)
    evaluated = _spy_on_rules(monkeypatch)
    errors = stack.errors()
    assert errors[1] is not None
    assert stack.take([1]).errors() == [errors[1]]
    assert evaluated == [3, 1]


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
