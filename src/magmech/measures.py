"""Bipartite Gaussian correlation measures on reduced two-mode
covariance matrices: logarithmic negativity and directional Renyi-2
steering.

Conventions: vacuum variance 1/2 (a thermal mode has V = (N + 1/2) I),
so a pair is entangled iff the smallest partially-transposed symplectic
eigenvalue is below 1/2 and E_N = max(0, -ln(2 nu)).
"""

from __future__ import annotations

import numpy as np

from .lyapunov import symplectic_form

MODES = ("a1", "a2", "m", "b")

PAIRS = (("a1", "a2"), ("a1", "m"), ("a2", "m"),
         ("a1", "b"), ("a2", "b"), ("m", "b"))

_PARTIAL_TRANSPOSE = np.diag([1.0, -1.0, 1.0, 1.0])
_OMEGA4 = symplectic_form(2)

ZERO_CLAMP = 1e-12
DUAL_METHOD_TOL = 1e-10


class PhysicalityError(Exception):
    """The two-mode covariance matrix is not a physical Gaussian state
    (beyond numerical tolerance)."""


def mode_indices(mode: str) -> tuple[int, int]:
    """Quadrature row/column indices of one mode in the 8x8 layout."""
    try:
        k = MODES.index(mode)
    except ValueError:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    return 2 * k, 2 * k + 1


def reduce_pair(V: np.ndarray, pair: tuple[str, str]) -> np.ndarray:
    """4x4 covariance of two distinct modes, first-listed mode first;
    a stack (N, 8, 8) gives a stack (N, 4, 4)."""
    first, second = pair
    if first == second:
        raise ValueError("modes of a pair must be distinct")
    i0, i1 = mode_indices(first)
    j0, j1 = mode_indices(second)
    idx = np.array([i0, i1, j0, j1])
    return np.asarray(V)[..., idx[:, None], idx]


def _two_mode_stack(cm) -> tuple[np.ndarray, bool]:
    """(stack (N, 4, 4), whether the input was a single matrix)."""
    cm = np.asarray(cm, dtype=float)
    if cm.ndim not in (2, 3) or cm.shape[-2:] != (4, 4):
        raise ValueError("expected a 4x4 two-mode covariance matrix "
                         "or a stack of them")
    return (cm[None], True) if cm.ndim == 2 else (cm, False)


def _result(values: np.ndarray, errors: list, single: bool):
    """A single matrix returns its value or raises its error; a stack
    returns (values, errors) with NaN where ``errors`` holds a
    message."""
    if not single:
        return np.where([e is None for e in errors], values, np.nan), errors
    if errors[0] is not None:
        raise PhysicalityError(errors[0])
    return float(values[0])


def _first_error(n: int, checks) -> list:
    """Per slice, the message of the first failed (mask, message) check,
    or None."""
    errors = [None] * n
    for mask, message in checks:
        for k in np.flatnonzero(mask):
            if errors[k] is None:
                errors[k] = message(k)
    return errors


def _symplectic(cms: np.ndarray) -> tuple[np.ndarray, list]:
    tilde = _PARTIAL_TRANSPOSE @ cms @ _PARTIAL_TRANSPOSE
    spec = np.linalg.eigvals(1j * _OMEGA4 @ tilde)
    nu_eig = np.abs(spec).min(axis=-1)

    det_a = np.linalg.det(cms[:, :2, :2])
    det_c = np.linalg.det(cms[:, 2:, 2:])
    det_b = np.linalg.det(cms[:, :2, 2:])
    det_v = np.linalg.det(cms)
    sigma = det_a + det_c - 2.0 * det_b
    disc = sigma * sigma - 4.0 * det_v
    scale = np.maximum(1.0, sigma * sigma)
    inner = 0.5 * (sigma - np.sqrt(np.maximum(disc, 0.0)))
    nu_cf = np.sqrt(np.maximum(inner, 0.0))

    # Forward-error allowance for the closed form: the discriminant is
    # computed with absolute error ~ eps * scale, which blows up as
    # 1/sqrt(disc) when the two symplectic eigenvalues (nearly)
    # coincide.  Only disagreement beyond that conditioning bound marks
    # a genuine inconsistency.
    disc_err = 64.0 * np.finfo(float).eps * np.maximum(scale,
                                                       np.abs(4.0 * det_v))
    cond = disc_err / (4.0 * np.maximum(nu_eig, 1e-3)
                       * np.sqrt(np.maximum(disc, 0.0) + disc_err))
    errors = _first_error(len(cms), [
        (disc < -ZERO_CLAMP * scale,
         lambda k: f"negative symplectic discriminant {disc[k]:.3e}"),
        (inner < -ZERO_CLAMP * np.maximum(1.0, np.abs(sigma)),
         lambda k: f"negative squared symplectic eigenvalue {inner[k]:.3e}"),
        (np.abs(nu_eig - nu_cf) > DUAL_METHOD_TOL * np.maximum(1.0, nu_cf)
         + cond,
         lambda k: "symplectic eigenvalue methods disagree: "
                   f"{float(nu_eig[k])!r} (spectral) vs "
                   f"{float(nu_cf[k])!r} (closed form)"),
    ])
    return nu_eig, errors


def min_ptranspose_symplectic_eig(cm: np.ndarray):
    """Smallest symplectic eigenvalue of the partially transposed CM.

    Computed by two independent routes that must agree to 1e-10: the
    spectrum of i*Omega*(P cm P), and the closed form from the local and
    cross-block determinants.  Note det(B) of the off-diagonal block is
    used *signed*; it is negative for entangled states.

    A single 4x4 matrix returns a float and raises
    :class:`PhysicalityError`; a stack (N, 4, 4) returns ``(values,
    errors)``, with NaN and the error message on each failed slice.
    """
    cms, single = _two_mode_stack(cm)
    nu, errors = _symplectic(cms)
    return _result(nu, errors, single)


def log_negativity(cm: np.ndarray):
    """Logarithmic negativity max(0, -ln(2 nu-)) of a two-mode CM.

    Takes a 4x4 matrix or a stack, as
    :func:`min_ptranspose_symplectic_eig` does.
    """
    cms, single = _two_mode_stack(cm)
    with np.errstate(invalid="ignore", divide="ignore"):
        nu, errors = _symplectic(cms)
        errors = [e if e is not None or nu[k] > 0.0
                  else "vanishing symplectic eigenvalue"
                  for k, e in enumerate(errors)]
        value = -np.log(2.0 * nu)
    # roundoff around the threshold nu = 1/2 reports exact zero
    value = np.where(np.abs(value) < ZERO_CLAMP, 0.0,
                     np.maximum(0.0, value))
    return _result(value, errors, single)


def steering(cm: np.ndarray, direction: str = "forward"):
    """Directional Gaussian steerability from the Renyi-2 entropy.

    ``forward`` quantifies first-mode -> second-mode steering through
    the first mode's local block; ``backward`` swaps the roles.
    Roundoff-scale magnitudes (below 1e-12) are reported as exact zero
    so that one-way statements are crisp.  Takes a 4x4 matrix or a
    stack, as :func:`min_ptranspose_symplectic_eig` does.
    """
    cms, single = _two_mode_stack(cm)
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction {direction!r}")
    block = cms[:, :2, :2] if direction == "forward" else cms[:, 2:, 2:]
    det_block = np.linalg.det(block)
    det_v = np.linalg.det(cms)
    errors = _first_error(len(cms), [
        (det_block <= 0.0, lambda k: "non-positive conditioning block "
                                     f"determinant {det_block[k]:.3e}"),
        (det_v <= 0.0, lambda k: "non-positive covariance determinant "
                                 f"{det_v[k]:.3e}"),
    ])
    # S(2*block) - S(2*cm) with S = (1/2) ln det
    with np.errstate(invalid="ignore", divide="ignore"):
        value = 0.5 * np.log(det_block / (4.0 * det_v))
    # roundoff; keep "no steering" crisp
    value = np.where(np.abs(value) < ZERO_CLAMP, 0.0, np.maximum(0.0, value))
    return _result(value, errors, single)
