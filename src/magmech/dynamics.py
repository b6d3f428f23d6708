"""Linearized fluctuation dynamics: drift and diffusion matrices and
the stability gate, for a :class:`~magmech.params.ParamStack` of points
at a time; each function returns one result per point.

Quadrature ordering is (dI1, dphi1, dI2, dphi2, dx, dy, dq, dp): the two
cavity quadrature pairs, the magnon pair, then mechanical position and
momentum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lyapunov import eigendecomposition
from .params import ParamStack, effective_kappa_2, thermal_occupation

# stable iff every eigenvalue's real part is below -TOL_STAB_REL*kappa_1
TOL_STAB_REL = 1e-9


def drift_matrices(p: ParamStack, delta_eff, G_mb) -> np.ndarray:
    """(N, 8, 8) stack of drift matrices of the quadrature fluctuations,
    one per point of the stack.

    ``delta_eff`` and ``G_mb`` hold one shifted magnon detuning and one
    effective magnon-phonon coupling per point; the pipeline passes the
    gauge-fixed (real, non-negative) coupling, and a complex one rotates
    the magnon block by its phase.

    The stack's ``drift_mode = "derived"`` (the default) linearizes the
    equations of motion: the cavity-2 diagonal carries the net damping
    kappa_2 - g, and the magnon block is a damped rotation (-kappa_m,
    +delta_eff / -delta_eff, -kappa_m).  ``"printed"`` is a legacy
    transcription, kept for audit only, that differs in exactly two
    places: intrinsic kappa_2 on the cavity-2 diagonal and a +delta_eff
    sign at row 6, column 5.
    """
    k1, k2t, k2, km = p.kappa_1, effective_kappa_2(p), p.kappa_2, p.kappa_m
    d1, d2, gma, J = p.Delta_1, p.Delta_2, p.g_ma, p.J
    wb, gb = p.omega_b, p.gamma_b
    de = np.asarray(delta_eff, dtype=float)
    G = np.asarray(G_mb, dtype=complex)
    gr, gi = G.real, G.imag

    # one line per term, each value negated once
    A = np.zeros((len(k1), 8, 8))
    A[:, 0, 0] = A[:, 1, 1] = -k1;  A[:, 0, 1] = d1;  A[:, 1, 0] = -d1
    A[:, 0, 3] = A[:, 2, 1] = J;    A[:, 1, 2] = A[:, 3, 0] = -J
    A[:, 0, 5] = A[:, 4, 1] = gma;  A[:, 1, 4] = A[:, 5, 0] = -gma
    A[:, 2, 2] = A[:, 3, 3] = -k2t; A[:, 2, 3] = d2;  A[:, 3, 2] = -d2
    A[:, 4, 4] = A[:, 5, 5] = -km;  A[:, 4, 5] = de;  A[:, 5, 4] = -de
    A[:, 4, 6] = -gr;  A[:, 7, 5] = gr;  A[:, 5, 6] = A[:, 7, 4] = -gi
    A[:, 6, 7] = wb;   A[:, 7, 6] = -wb; A[:, 7, 7] = -gb
    if p.drift_mode == "printed":
        A[:, 2, 2] = A[:, 3, 3] = -k2
        A[:, 5, 4] = de
    return A


def mode_noises(p, temperature) -> np.ndarray:
    """(N, 4) thermal noise rates of the modes a1, a2, m and b at the
    parameters ``p``, a :class:`~magmech.params.ParamStack` or a
    :class:`~magmech.params.PhysicalParams`, and the temperatures
    ``temperature``, broadcast against each other: a stack and its own
    temperatures, or one point and an (N,) array of them.

    The cavity-1, magnon and mechanical rates are kappa*(2N+1) with the
    mode's thermal occupation.  The cavity-2 rate depends on
    ``p.diffusion_convention``:

    - ``as_printed``:   (kappa_2 - g) * (2N2 + 1); negative when the
      cavity is net active.
    - ``absolute_value``: |kappa_2 - g| * (2N2 + 1), the minimal noise
      of a phase-insensitive amplifier at that net rate.
    - ``physical_sum``: (kappa_2 + g) * (2N2 + 1), loss and gain noises
      added independently.  The symmetrized correlators of the inverted
      gain reservoir carry the same (2N+1)/2 weight per quadrature as a
      lossy one, so loss and gain contributions simply add.
    """
    omega = np.array([p.omega_1, p.omega_2, p.omega_m, p.omega_b])
    # 2N + 1 of the four modes, (4, N)
    spread = 2.0 * thermal_occupation(omega.reshape(4, -1), temperature) + 1.0
    k2t = effective_kappa_2(p)
    if p.diffusion_convention == "as_printed":
        rate_2 = k2t
    elif p.diffusion_convention == "absolute_value":
        rate_2 = np.abs(k2t)
    else:  # physical_sum
        rate_2 = p.kappa_2 + p.gain_g
    rates = np.array([p.kappa_1, rate_2, p.kappa_m, p.gamma_b])
    return (rates.reshape(4, -1) * spread).T


def noise_matrices(rates) -> np.ndarray:
    """(N, 8, 8) diagonal noise matrices of the (N, 4) mode rates
    ``rates``: each rate of a1, a2 and m on both quadratures of its mode,
    and that of b on the mechanical momentum only."""
    D = np.zeros((len(rates), 8, 8))
    D[:, range(6), range(6)] = rates[:, [0, 0, 1, 1, 2, 2]]
    D[:, 7, 7] = rates[:, 3]
    return D


def diffusion_matrices(p: ParamStack) -> tuple[np.ndarray, dict[int, str]]:
    """(N, 8, 8) stack of the :func:`noise_matrices` of the stack's
    :func:`mode_noises` at its own temperatures, and the convention
    warning of each point that has one, by its index in the stack: a
    negative cavity-2 rate (``as_printed`` with net gain) is flagged.
    """
    rates = mode_noises(p, p.temperature_T)
    warnings = {k: "negative diffusion: cavity-2 noise entry %.6g < 0 "
                   "(as_printed with net gain)" % rates[k, 1]
                for k in np.flatnonzero(rates[:, 1] < 0).tolist()}
    return noise_matrices(rates), warnings


@dataclass(frozen=True)
class StabilityReport:
    """Spectrum of the drift matrix and the resulting verdict.

    ``stable`` is true iff the largest real part is below the (kappa_1
    scaled) tolerance; ``indeterminate`` marks an eigensolver failure,
    which is never silently reported as stable or unstable.  The
    eigenvectors feed the spectral Lyapunov solve.  Every field holds
    one entry per slice of the stack of drift matrices.
    """

    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)
    stable: np.ndarray
    margin: np.ndarray
    indeterminate: np.ndarray


def stability(A: np.ndarray, kappa_1) -> StabilityReport:
    """Classify drift matrices by their spectra, from one
    eigendecomposition per matrix.

    ``A`` is a stack (N, 8, 8); ``kappa_1`` a scalar or one value per
    slice.  Stable iff every eigenvalue real part is
    < -TOL_STAB_REL*kappa_1.
    """
    w, S = eigendecomposition(A)
    indeterminate = np.isnan(w).any(axis=-1)
    margin = w.real.max(axis=-1)  # NaN where indeterminate
    stable = margin < -TOL_STAB_REL * np.asarray(kappa_1, dtype=float)
    return StabilityReport(w, S, stable, margin, indeterminate)


def format_matrix(M: np.ndarray) -> str:
    """Row-major plain-text dump, 17 significant digits per entry."""
    return "\n".join(" ".join("%.17g" % v for v in row) for row in
                     np.atleast_2d(M)) + "\n"


def write_matrix(path, M: np.ndarray) -> None:
    """Write a matrix dump produced by :func:`format_matrix`."""
    with open(path, "w") as fh:
        fh.write(format_matrix(M))
