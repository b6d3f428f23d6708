"""Linearized fluctuation dynamics: drift matrix, diffusion matrix and
the stability gate.

Quadrature ordering is (dI1, dphi1, dI2, dphi2, dx, dy, dq, dp): the two
cavity quadrature pairs, the magnon pair, then mechanical position and
momentum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lyapunov import eigendecomposition
from .params import (ParamStack, PhysicalParams, effective_kappa_2,
                     thermal_occupation)

QUADRATURES = ("I1", "phi1", "I2", "phi2", "x", "y", "q", "p")

DRIFT_MODES = ("derived", "printed")


def drift_matrix(params: PhysicalParams, delta_eff: float,
                 G_mb_real: float, *, mode: str = "derived") -> np.ndarray:
    """8x8 drift matrix of the quadrature fluctuations.

    ``G_mb_real`` is the gauge-fixed (real, non-negative) effective
    magnon-phonon coupling; ``delta_eff`` the shifted magnon detuning.

    ``mode="derived"`` (default) builds the matrix from the
    linearization of the equations of motion: the cavity-2 diagonal
    carries the net damping kappa_2 - g, and the magnon block is a
    damped rotation (-kappa_m, +delta_eff / -delta_eff, -kappa_m).
    ``mode="printed"`` reproduces a legacy transcription that differs in
    exactly two places: intrinsic kappa_2 on the cavity-2 diagonal and a
    +delta_eff sign at row 6, column 5.  It is retained for audit only.
    """
    if G_mb_real < 0:
        raise ValueError("G_mb_real must be gauge-fixed non-negative")
    return drift_matrices(ParamStack.broadcast(params, 1), [delta_eff],
                          [G_mb_real], mode=mode)[0]


def drift_matrices(p: ParamStack, delta_eff, G_mb, *,
                   mode: str = "derived") -> np.ndarray:
    """(N, 8, 8) stack of drift matrices, one per point of the stack.

    ``delta_eff`` and ``G_mb`` hold one effective detuning and one
    (possibly complex) effective coupling per point; see
    :func:`drift_matrix` for ``mode``.
    """
    if mode not in DRIFT_MODES:
        raise ValueError(f"unknown drift mode {mode!r}")
    k1, k2t, k2, km = p.kappa_1, effective_kappa_2(p), p.kappa_2, p.kappa_m
    d1, d2, gma, J = p.Delta_1, p.Delta_2, p.g_ma, p.J
    wb, gb = p.omega_b, p.gamma_b
    de = np.asarray(delta_eff, dtype=float)
    G = np.asarray(G_mb, dtype=complex)
    gr, gi = G.real, G.imag

    A = np.zeros((len(k1), 8, 8))
    A[:, 0, 0] = -k1;  A[:, 0, 1] = d1;   A[:, 0, 3] = J;   A[:, 0, 5] = gma
    A[:, 1, 0] = -d1;  A[:, 1, 1] = -k1;  A[:, 1, 2] = -J;  A[:, 1, 4] = -gma
    A[:, 2, 1] = J;    A[:, 2, 2] = -k2t; A[:, 2, 3] = d2
    A[:, 3, 0] = -J;   A[:, 3, 2] = -d2;  A[:, 3, 3] = -k2t
    A[:, 4, 1] = gma;  A[:, 4, 4] = -km;  A[:, 4, 5] = de;  A[:, 4, 6] = -gr
    A[:, 5, 0] = -gma; A[:, 5, 4] = -de;  A[:, 5, 5] = -km; A[:, 5, 6] = -gi
    A[:, 6, 7] = wb
    A[:, 7, 4] = -gi;  A[:, 7, 5] = gr
    A[:, 7, 6] = -wb;  A[:, 7, 7] = -gb
    if mode == "printed":
        A[:, 2, 2] = A[:, 3, 3] = -k2
        A[:, 5, 4] = de
    return A


def diffusion_matrix(params: PhysicalParams) -> tuple[np.ndarray, list[str]]:
    """Diagonal 8x8 noise matrix and any convention warnings.

    The cavity-1, magnon and mechanical entries are kappa*(2N+1) with
    the mode's thermal occupation (zero on the mechanical position).
    The cavity-2 entry ``d2`` depends on ``params.diffusion_convention``:

    - ``as_printed``:   (kappa_2 - g) * (2N2 + 1); negative when the
      cavity is net active, which is flagged with a warning.
    - ``absolute_value``: |kappa_2 - g| * (2N2 + 1), the minimal noise
      of a phase-insensitive amplifier at that net rate.
    - ``physical_sum``: (kappa_2 + g) * (2N2 + 1), loss and gain noises
      added independently.  The symmetrized correlators of the inverted
      gain reservoir carry the same (2N+1)/2 weight per quadrature as a
      lossy one, so loss and gain contributions simply add.
    """
    D, warnings = diffusion_matrices(ParamStack.broadcast(params, 1))
    return D[0], list(warnings[0])


def diffusion_matrices(p: ParamStack) -> tuple[np.ndarray, list[tuple]]:
    """(N, 8, 8) stack of noise matrices and each point's warnings; see
    :func:`diffusion_matrix`."""
    # the scalar thermal_occupation once per distinct (omega, T) pair,
    # found as one complex number by a 1-D unique: np.expm1 may run a
    # SIMD kernel that differs from math.expm1 in the last bit
    omega = np.stack([p.omega_1, p.omega_2, p.omega_m, p.omega_b])
    pairs = np.empty(omega.shape, dtype=complex)
    pairs.real, pairs.imag = omega, p.temperature_T
    distinct, inverse = np.unique(pairs.ravel(), return_inverse=True,
                                  equal_nan=False)
    n1, n2, nm, nb = np.array([thermal_occupation(z.real, z.imag) for z in
                               distinct.tolist()])[inverse].reshape(4, -1)
    k2t = effective_kappa_2(p)
    warnings = [()] * len(p)
    if p.diffusion_convention == "as_printed":
        d2 = k2t * (2.0 * n2 + 1.0)
        for k in np.flatnonzero(k2t < 0):
            warnings[k] = ("negative diffusion: cavity-2 noise entry %.6g "
                           "< 0 (as_printed with net gain)" % d2[k],)
    elif p.diffusion_convention == "absolute_value":
        d2 = np.abs(k2t) * (2.0 * n2 + 1.0)
    else:  # physical_sum
        d2 = (p.kappa_2 + p.gain_g) * (2.0 * n2 + 1.0)

    D = np.zeros((len(p), 8, 8))
    D[:, 0, 0] = D[:, 1, 1] = p.kappa_1 * (2.0 * n1 + 1.0)
    D[:, 2, 2] = D[:, 3, 3] = d2
    D[:, 4, 4] = D[:, 5, 5] = p.kappa_m * (2.0 * nm + 1.0)
    D[:, 7, 7] = p.gamma_b * (2.0 * nb + 1.0)
    return D, warnings


@dataclass(frozen=True)
class StabilityReport:
    """Spectrum of the drift matrix and the resulting verdict.

    ``stable`` is true iff the largest real part is below the (kappa_1
    scaled) tolerance; ``indeterminate`` marks an eigensolver failure,
    which is never silently reported as stable or unstable.  The
    eigenvectors feed the spectral Lyapunov solve.  For a stack of
    drift matrices every field holds one entry per slice.
    """

    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)
    stable: bool | np.ndarray
    margin: float | np.ndarray
    indeterminate: bool | np.ndarray = False


def stability(A: np.ndarray, kappa_1, *,
              tol_stab_rel: float = 1e-9) -> StabilityReport:
    """Classify drift matrices by their spectra, from one
    eigendecomposition per matrix.

    ``A`` is one matrix or a stack (N, 8, 8); ``kappa_1`` a scalar or one
    value per slice.  Stable iff every eigenvalue real part is
    < -tol_stab_rel*kappa_1.
    """
    A = np.asarray(A, dtype=float)
    single = A.ndim == 2
    w, S = eigendecomposition(A[None] if single else A)
    indeterminate = np.isnan(w).any(axis=-1)
    margin = w.real.max(axis=-1)  # NaN where indeterminate
    stable = margin < -tol_stab_rel * np.asarray(kappa_1, dtype=float)
    if single:
        return StabilityReport(w[0], S[0], bool(stable[0]), float(margin[0]),
                               bool(indeterminate[0]))
    return StabilityReport(w, S, stable, margin, indeterminate)


def format_matrix(M: np.ndarray) -> str:
    """Row-major plain-text dump, 17 significant digits per entry."""
    return "\n".join(" ".join("%.17g" % v for v in row) for row in
                     np.atleast_2d(M)) + "\n"


def write_matrix(path, M: np.ndarray) -> None:
    """Write a matrix dump produced by :func:`format_matrix`."""
    with open(path, "w") as fh:
        fh.write(format_matrix(M))
