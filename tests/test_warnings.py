"""The warnings of points that reach each of the kernel's null rules and
each measure screen, pinned as literal texts, and the standard-error
report of a run that holds several of them."""

import math
from dataclasses import replace

import numpy as np
import pytest

from magmech import cli, dynamics, lyapunov, steady_state
from magmech.sweep import (SweepAxis, SweepSpec, SweepTable, evaluate_point,
                           figure_preset, grid_values, run_sweep)

from .oracles import build_point_params

NOISE = ("negative diffusion: cavity-2 noise entry -3.14159e+06 < 0 "
         "(as_printed with net gain)")


def _resonant(params):
    """``params`` where the mean field's closed form divides by zero."""
    return params.with_(Delta_1=0.0, Delta_2=0.0,
                        gain_g=params.kappa_2 + params.J ** 2 / params.kappa_1)


def _microscopic():
    """The microscopic sweep of 41 Delta_m points: points 3-15 have one
    real mean-field root, which repels, and points 16 on three, which
    the Picard loop iterates."""
    base = figure_preset("fig2d").base.with_(
        coupling_mode="microscopic", g_mb=2.0 * math.pi * 0.2, epsilon_d=1e15)
    return SweepSpec(base, (SweepAxis("Delta_m", 0.0, 2.0 * base.omega_b,
                                      41),), quantities=("E_a2m",))


def _with_covariance(monkeypatch, V_of):
    """Make the kernel's Lyapunov solve give ``V_of(V)`` for each
    solution ``V``, with the residual of the true one."""
    solve = lyapunov.solve_lyapunov

    def patched(A, D, eig=None):
        V, residual = solve(A, D, eig=eig)
        return np.stack([V_of(v.copy()) for v in V]), residual

    monkeypatch.setattr(lyapunov, "solve_lyapunov", patched)


def _a2_m_block(block):
    """A covariance map that puts ``block`` on the (a2, m) pair."""
    def V_of(V):
        V[2:6, 2:6] = block
        return V
    return V_of


# reduced (a2, m) states that fail each screen; the baseline's noise is
# negative, so no physicality rule applies to them
_E_SCREENS = [
    (np.array([[1.0, 0.0, 0.5, 0.0], [0.0, 1.0, 0.0, 0.5],
               [0.5, 0.0, -1.0, 0.0], [0.0, 0.5, 0.0, -1.0]]),
     "pair a2-m: negative symplectic discriminant -4.000e+00"),
    (np.diag([1.0, -0.1, 1.0, 1.0]),
     "pair a2-m: negative squared symplectic eigenvalue -1.000e-01"),
    # det V = 1e-190 > 0, where nu^2 = det V / det A underflows
    (np.diag([1e75, 1e75, 1e-170, 1e-170]),
     "pair a2-m: vanishing symplectic eigenvalue"),
    # det A > 0 > det V, at a scale where the discriminant screens pass
    (1e-7 * np.array([[-2.0, -1.0, -3.0, 2.0], [-1.0, -2.0, -2.0, 0.0],
                      [-3.0, -2.0, -2.0, 0.0], [2.0, 0.0, 0.0, 0.0]]),
     "pair a2-m: non-positive covariance determinant -2.509e-44"),
]
_B = np.sqrt(30.0) * np.eye(2)
_ST_SCREENS = [
    # det A = 0 and det V = 300: E_N stands at 0
    (np.block([[np.ones((2, 2)), _B], [_B, 10.0 * np.eye(2)]]),
     ["st_a2_to_m: non-positive conditioning block determinant 0.000e+00"]),
    # the same with the modes swapped: det C = 0
    (np.block([[10.0 * np.eye(2), _B], [_B, np.ones((2, 2))]]),
     ["st_m_to_a2: non-positive conditioning block determinant 0.000e+00"]),
]


def test_the_mean_field_rules_word_their_warnings(baseline, monkeypatch):
    spec = SweepSpec(baseline, (SweepAxis("eta", 0.5, 1.5, 3),),
                     quantities=("E_a2m",))
    assert [r.warnings for r in run_sweep(spec)] == [
        (), (),
        ("invalid parameters at this point: kappa_2 and gain_g must be "
         "non-negative",)]
    driven = baseline.with_(epsilon_d=1e14)
    assert evaluate_point(_resonant(driven)).warnings == (
        "steady state singular: complex division by zero",)
    micro = _microscopic()
    assert evaluate_point(micro.base.with_(epsilon_d=1e300)).warnings == (
        "steady state singular: mean field not finite",)
    repelled = build_point_params(micro, grid_values(micro)[3])
    assert evaluate_point(repelled).warnings == (
        "steady state did not converge: no real mean-field root attracts "
        "the damped iteration (root slope |F'| 1.136e+00)",)
    # an overflowed drive stands, and so does its negative noise
    assert evaluate_point(baseline.with_(epsilon_d=1e170)).warnings == (
        "steady state residual not finite (residual nan)", NOISE)
    # a multistable point stopped three Picard steps in
    monkeypatch.setattr(steady_state, "MAX_ITER", 3)
    looped = build_point_params(micro, grid_values(micro)[16])
    assert evaluate_point(looped).warnings == (
        "steady state did not converge (residual 1.124e-01)",)


def test_the_covariance_rules_word_their_warnings(baseline, monkeypatch):
    # fig2b at Delta_m = 0.1 omega_b, eta = 0 misses the residual gate
    spec = figure_preset("fig2b")
    params = build_point_params(spec, grid_values(spec)[2110])
    assert evaluate_point(params).warnings == (
        "Lyapunov residual not below 1e-10 (residual 1.554e-10)",)
    # no state has a covariance below the vacuum's, on noise that is
    # non-negative everywhere
    with monkeypatch.context() as m:
        _with_covariance(m, lambda V: 0.1 * np.eye(8))
        assert evaluate_point(baseline.with_(
            diffusion_convention="absolute_value")).warnings == (
            "unphysical covariance (min eigenvalue -4.000e-01)",)
        assert evaluate_point(baseline).warnings == (NOISE,)
    with monkeypatch.context() as m:
        _with_covariance(m, lambda V: np.full_like(V, np.nan))
        assert evaluate_point(baseline).warnings == (
            NOISE, "singular Lyapunov system: no finite solution")
    # the eigensolver fails on the drift matrix
    eig = dynamics.eigendecomposition

    def failing(A):
        w, S = eig(A)
        return np.full_like(w, np.nan), S

    monkeypatch.setattr(dynamics, "eigendecomposition", failing)
    assert evaluate_point(baseline).warnings == (
        NOISE, "stability indeterminate: eigensolver failed")


@pytest.mark.parametrize("block, warning", _E_SCREENS)
def test_each_entanglement_screen_words_its_warning(baseline, monkeypatch,
                                                     block, warning):
    _with_covariance(monkeypatch, _a2_m_block(block))
    rec = evaluate_point(baseline, quantities=("st_a2_to_m", "st_m_to_a2"))
    assert rec.warnings == (NOISE, warning)
    assert rec.stable and set(rec.measures.values()) == {None}


@pytest.mark.parametrize("block, warnings", _ST_SCREENS)
def test_each_steering_screen_words_its_warning(baseline, monkeypatch,
                                                block, warnings):
    _with_covariance(monkeypatch, _a2_m_block(block))
    rec = evaluate_point(baseline, quantities=("st_a2_to_m", "st_m_to_a2"))
    assert rec.warnings == (NOISE, *warnings)
    assert rec.measures["E_a2m"] is not None


def test_the_report_counts_each_category_in_order_of_first_appearance(
        baseline, monkeypatch, tmp_path, capsys):
    # a run whose points warn of several categories: a point counts once
    # per category, and the categories come in the order that the points
    # first raise them, not in the kernel's stage order
    points = [baseline, baseline.with_(epsilon_d=1e170),
              _resonant(baseline.with_(epsilon_d=1e14)),
              baseline.with_(epsilon_d=1e170), baseline]
    records = [evaluate_point(p, quantities=("st_a2_to_m",)) for p in points]
    with monkeypatch.context() as m:
        _with_covariance(m, _a2_m_block(_ST_SCREENS[0][0]))
        records.append(evaluate_point(baseline,
                                      quantities=("st_a2_to_m",)))
    with monkeypatch.context() as m:
        _with_covariance(m, _a2_m_block(_E_SCREENS[2][0]))
        records += [evaluate_point(baseline, quantities=("st_a2_to_m",))] * 2
    spec = SweepSpec(baseline, (SweepAxis("J", 0.0, 1.0, 2),),
                     quantities=("st_a2_to_m",))
    table = SweepTable.of([replace(r, axis_values=(float(k),))
                           for k, r in enumerate(records)], spec)
    monkeypatch.setattr(cli, "run_sweep", lambda spec, jobs: table)
    capsys.readouterr()
    assert cli.main(["preset", "fig2d", "--out",
                     str(tmp_path / "run.csv")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: negative diffusion (7 points)",
        "warning: steady state residual not finite (2 points)",
        "warning: steady state singular (1 point)",
        "warning: st_a2_to_m (1 point)",
        "warning: pair a2-m (2 points)",
    ]
