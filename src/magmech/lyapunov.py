"""Dense numerical kernels: steady-state Lyapunov solver, eigensolver
contract and covariance physicality checks.

The kernels take stacks of shape (N, n, n), return one result per
slice and act slice by slice, so a point's result does not depend on
the stack it sits in.  A slice that fails comes back NaN; nothing
raises for one slice.

The Lyapunov equation A V + V A^T = -D is solved in the eigenbasis of
A = S diag(lambda) S^-1: with C = S^-1 D S^-T, X_ij = -C_ij /
(lambda_i + lambda_j) and V = Re(S X S^T).  The eigendecomposition is
the one the stability gate already computed, so a solve costs a handful
of 8x8 products; it and S^-1 are computed once per run of identical
consecutive matrices, which a temperature sweep shares.  A stack
without such runs goes to LAPACK as it is, and a one-slice stack, as
a Tc search's gate and unit-noise solve have, without a look for them.
One A is broadcast against a stack of noises: a Tc search solves its
four unit noises against its drift matrix and the decomposition its
gate computed.  One refinement step, the same solve applied to the
residual, brings V to the accuracy of a backward-stable solve.  Near
an exceptional point of the drift matrix the eigenbasis degenerates
and the spectral solve fails, so every slice whose relative residual
exceeds 1e-12, or is not finite, is solved again from the vectorized
64x64 Kronecker system (A (x) I + I (x) A) vec(V) = -vec(D) with a
partially pivoted factorization.  The solve returns the residual it
gated on, taken again on the slices solved again.
"""

from __future__ import annotations

from functools import cache

import numpy as np

EPS_FLOOR = 1e-300
SPECTRAL_RESIDUAL_MAX = 1e-12
# the gate a sweep point's solve must pass for its measures to stand
RESIDUAL_MAX = 1e-10
# the least physicality_min_eig of a covariance whose noise is non-negative
PHYSICALITY_MIN = -1e-9
# the runs of a one-slice stack, read-only
_ONE_RUN = (np.broadcast_to(True, 1), np.broadcast_to(np.intp(0), 1))


def _runs(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Runs of consecutive bitwise-identical slices of a stack: a mask
    of each run's first slice, and each slice's run number."""
    if len(M) == 1:  # a single slice is its own run
        return _ONE_RUN
    # bits, not values: +0.0 and -0.0 are different inputs to eig
    bits = np.ascontiguousarray(M).view(np.int64)
    starts = np.ones(len(M), dtype=bool)
    starts[1:] = (bits[1:] != bits[:-1]).any(axis=(-2, -1))
    return starts, np.cumsum(starts) - 1


def eigendecomposition(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and right eigenvectors of a stack of real matrices.

    ``M`` has shape (N, n, n); returns complex ``(w, S)`` of shapes
    (N, n) and (N, n, n) with M[k] S[k] = S[k] diag(w[k]).  A slice with
    a non-finite entry, or on which the eigensolver does not converge,
    comes back as NaN in both, so one bad slice never costs the others.

    Each run of consecutive bitwise-identical slices is decomposed once
    (a temperature sweep shares one drift matrix); every slice still
    gets exactly what ``np.linalg.eig`` returns for it alone.  A stack
    without runs goes to ``np.linalg.eig`` as it is.
    """
    M = np.asarray(M, dtype=float)
    starts, run = _runs(M)
    if starts.all():
        # np.linalg.eig raises LinAlgError on a non-finite entry, as on
        # a slice that does not converge; the run path handles both
        try:
            w, S = np.linalg.eig(M)
            # complex as on the run path: complex and real division
            # round differently
            return (w.astype(complex, copy=False),
                    S.astype(complex, copy=False))
        except np.linalg.LinAlgError:
            pass
    first = M[starts]
    w = np.full(first.shape[:-1], np.nan, complex)
    S = np.full(first.shape, np.nan, complex)
    finite = np.isfinite(first).all(axis=(-2, -1))
    try:
        w[finite], S[finite] = np.linalg.eig(first[finite])
    except np.linalg.LinAlgError:
        for k in np.flatnonzero(finite):
            try:
                w[k], S[k] = np.linalg.eig(first[k])
            except np.linalg.LinAlgError:
                pass
    return w[run], S[run]


def _inverse(S: np.ndarray) -> np.ndarray:
    """Inverse of each slice of a stack, computed once per run of
    bitwise-identical slices; singular slices come back NaN."""
    starts, run = _runs(S)
    distinct = starts.all()
    first = S if distinct else S[starts]
    try:
        out = np.linalg.inv(first)
    except np.linalg.LinAlgError:
        out = np.full_like(first, np.nan)
        for k in range(len(first)):
            try:
                out[k] = np.linalg.inv(first[k])
            except np.linalg.LinAlgError:
                pass
    return out if distinct else out[run]


def _kronecker_solve(A: np.ndarray, D: np.ndarray) -> np.ndarray:
    """V from the vectorized system (A (x) I + I (x) A) vec(V) = -vec(D);
    NaN where the system is singular or the solution not finite, which
    happens exactly on the stability boundary, where eigenvalue pairs
    of A sum to zero."""
    n = A.shape[0]
    eye = np.eye(n)
    K = np.kron(A, eye) + np.kron(eye, A)
    try:
        v = np.linalg.solve(K, -D.reshape(-1))
    except np.linalg.LinAlgError:
        return np.full((n, n), np.nan)
    if not np.all(np.isfinite(v)):
        return np.full((n, n), np.nan)
    V = v.reshape(n, n)
    return 0.5 * (V + V.T)


def _transpose(M: np.ndarray) -> np.ndarray:
    return M.swapaxes(-1, -2)


def solve_lyapunov(A: np.ndarray, D: np.ndarray,
                   eig: tuple[np.ndarray, np.ndarray] | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Unique symmetric solutions V of A V + V A^T = -D for stable A,
    and the :func:`lyapunov_residual` of each.

    ``A`` and ``D`` are stacks (N, n, n), solved slice by slice; returns
    ``(V, residual)`` of shapes (N, n, n) and (N,).  An ``A`` of one
    slice is shared by the N noises of ``D``.  ``eig`` passes the
    eigendecomposition ``(w, S)`` of ``A`` in the form
    :func:`eigendecomposition` returns, so that the stability gate's
    decomposition is not computed twice.

    Callers must gate on stability first.  On the stability boundary
    the Kronecker fallback finds the system singular and the slice
    comes back NaN, with a NaN residual.
    """
    A = np.asarray(A, dtype=float)
    D = np.asarray(D, dtype=float)
    if (A.ndim != 3 or D.ndim != 3 or A.shape[1:] != D.shape[1:]
            or A.shape[-1] != A.shape[-2] or len(A) not in (1, len(D))):
        raise ValueError("A and D must be conformable stacks of square "
                         "matrices")
    w, S = eigendecomposition(A) if eig is None else eig

    with np.errstate(all="ignore"):
        Sinv = _inverse(S)
        pair_sums = w[:, :, None] + w[:, None, :]

        def spectral(Q):
            """Symmetric solution of A V + V A^T = -Q in the eigenbasis."""
            X = -(Sinv @ Q @ _transpose(Sinv)) / pair_sums
            V = (S @ X @ _transpose(S)).real
            return 0.5 * (V + _transpose(V))

        V = spectral(D)
        V = V + spectral(A @ V + V @ _transpose(A) + D)  # refinement
        residual = lyapunov_residual(A, V, D)
    retry = np.flatnonzero(~(residual <= SPECTRAL_RESIDUAL_MAX))
    if retry.size:
        A = np.broadcast_to(A, D.shape)
        for k in retry:
            V[k] = _kronecker_solve(A[k], D[k])
        residual[retry] = lyapunov_residual(A[retry], V[retry], D[retry])
    return V, residual


def lyapunov_residual(A: np.ndarray, V: np.ndarray,
                      D: np.ndarray) -> np.ndarray:
    """Relative max-norm residual |A V + V A^T + D| / max(|D|, floor)
    of each slice of the stacks."""
    A, V, D = (np.asarray(M, dtype=float) for M in (A, V, D))
    R = A @ V + V @ _transpose(A) + D
    return np.abs(R).max(axis=(-2, -1)) / np.maximum(
        np.abs(D).max(axis=(-2, -1)), EPS_FLOOR)


def symplectic_form(n_modes: int) -> np.ndarray:
    """Direct sum of n_modes blocks [[0, 1], [-1, 0]]."""
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


@cache
def _half_symplectic_form(size: int) -> np.ndarray:
    """(i/2) Omega of a size x size covariance, built once per size and
    read-only."""
    form = 0.5j * symplectic_form(size // 2)
    form.flags.writeable = False
    return form


def physicality_min_eig(V: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of V + (i/2) Omega for each slice of a
    stack.

    Non-negative (up to roundoff) exactly when V is a bona fide quantum
    covariance matrix in the vacuum-variance-1/2 convention.
    """
    V = np.asarray(V, dtype=float)
    H = V + _half_symplectic_form(V.shape[-1])
    return np.linalg.eigvalsh(H).min(axis=-1)
