"""Bipartite Gaussian correlation measures on reduced two-mode
covariance matrices: logarithmic negativity and directional Renyi-2
steering.

Conventions: vacuum variance 1/2 (a thermal mode has V = (N + 1/2) I),
so a pair is entangled iff the smallest partially-transposed symplectic
eigenvalue is below 1/2 and E_N = max(0, -ln(2 nu)).  That eigenvalue
comes from one closed form in the block determinants; the spectral
route, the eigenvalues of i*Omega*(P cm P), is the tests' oracle.
"""

from __future__ import annotations

import numpy as np

MODES = ("a1", "a2", "m", "b")

PAIRS = (("a1", "a2"), ("a1", "m"), ("a2", "m"),
         ("a1", "b"), ("a2", "b"), ("m", "b"))

ZERO_CLAMP = 1e-12

# adj(M)^T of a 2x2 block M is M[::-1, ::-1] times these signs
_COFACTOR_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


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
    a, b, c = cms[:, :2, :2], cms[:, :2, 2:], cms[:, 2:, 2:]
    det_a = np.linalg.det(a)
    det_c = np.linalg.det(c)
    det_b = np.linalg.det(b)
    det_v = np.linalg.det(cms)
    sigma = det_a + det_c - 2.0 * det_b
    disc = sigma * sigma - 4.0 * det_v
    scale = np.maximum(1.0, sigma * sigma)
    inner = 0.5 * (sigma - np.sqrt(np.maximum(disc, 0.0)))
    # The same discriminant with det V = det A det C + det B^2 - t,
    # t = tr(A adj(B)^T C adj(B)), expanded: sigma^2 - 4 det V cancels
    # to roundoff as the two symplectic eigenvalues meet (a product of
    # vacua gives nu off by 5e-9), this expansion does not.  The
    # screens keep the plain form.
    adj_bt = b[:, ::-1, ::-1] * _COFACTOR_SIGNS
    t = ((a @ adj_bt) * (adj_bt @ c.transpose(0, 2, 1))).sum(axis=(1, 2))
    root = np.sqrt(np.maximum((det_a - det_c) ** 2
                              - 4.0 * det_b * (det_a + det_c) + 4.0 * t,
                              0.0))
    # nu-^2 = 2 det V / (sigma + sqrt(disc)), from nu-^2 nu+^2 = det V:
    # sigma - sqrt(disc) cancels when sigma is large, this sum does not
    with np.errstate(invalid="ignore", divide="ignore"):
        nu = np.sqrt(np.maximum(2.0 * det_v / (sigma + root), 0.0))
    errors = _first_error(len(cms), [
        (disc < -ZERO_CLAMP * scale,
         lambda k: f"negative symplectic discriminant {disc[k]:.3e}"),
        (inner < -ZERO_CLAMP * np.maximum(1.0, np.abs(sigma)),
         lambda k: f"negative squared symplectic eigenvalue {inner[k]:.3e}"),
    ])
    return nu, errors


def min_ptranspose_symplectic_eig(cm: np.ndarray):
    """Smallest symplectic eigenvalue of the partially transposed CM.

    One route: the closed form from the local and cross-block
    determinants, sigma = det A + det C - 2 det B, in the rationalised
    form nu-^2 = 2 det V / (sigma + sqrt(sigma^2 - 4 det V)) (Serafini,
    Illuminati and De Siena, J. Phys. B 37, L21 (2004)), with the
    discriminant expanded so that it does not cancel where the two
    symplectic eigenvalues meet.  Note det(B) of the off-diagonal block
    is used *signed*; it is negative for entangled states.  The tests
    check it against the spectrum of i*Omega*(P cm P).

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
