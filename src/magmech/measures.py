"""Bipartite Gaussian correlation measures on reduced two-mode
covariance matrices: logarithmic negativity and directional Renyi-2
steering.

Conventions: vacuum variance 1/2 (a thermal mode has V = (N + 1/2) I),
so a pair is entangled iff the smallest partially-transposed symplectic
eigenvalue is below 1/2 and E_N = max(0, -ln(2 nu)).

A pair's measures come from one pass, :func:`pair_measures`, over a
stack (N, 4, 4) of its reduced CMs and the four block determinants det
A, det C, det B and det V of each: E_N, the steering in both directions
and the symplectic eigenvalue, each with its own screens.  A slice that
fails a screen comes back NaN with a message; nothing raises.  The
spectral route to the eigenvalue, the eigenvalues of i*Omega*(P cm P),
is the tests' oracle.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

MODES = ("a1", "a2", "m", "b")

PAIRS = (("a1", "a2"), ("a1", "m"), ("a2", "m"),
         ("a1", "b"), ("a2", "b"), ("m", "b"))

ZERO_CLAMP = 1e-12

# adj(M)^T of a 2x2 block M is M[::-1, ::-1] times these signs
_COFACTOR_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


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


def _screened(values: np.ndarray, checks) -> tuple[np.ndarray, list]:
    """``(values, errors)``: per slice, the message of the first failed
    (mask, message) check or None, and NaN in ``values``, which is
    written in place, where there is one."""
    errors = [None] * len(values)
    for mask, message in checks:
        for k in mask.nonzero()[0]:
            if errors[k] is None:
                errors[k] = message(k)
                values[k] = np.nan
    return values, errors


class PairMeasures(NamedTuple):
    """The measures of a stack of two-mode CMs, each as ``(values,
    errors)``: an (N,) array, NaN on each slice that failed a screen,
    and per slice the message of the first screen it failed or None."""

    log_negativity: tuple[np.ndarray, list]
    forward: tuple[np.ndarray, list]
    backward: tuple[np.ndarray, list]
    nu: tuple[np.ndarray, list]


def _clamp(value: np.ndarray) -> np.ndarray:
    """Roundoff-scale magnitudes (below ``ZERO_CLAMP``) as exact zero,
    negatives as zero."""
    return np.where(np.abs(value) < ZERO_CLAMP, 0.0, np.maximum(0.0, value))


def pair_measures(cms: np.ndarray) -> PairMeasures:
    """E_N, the steering in both directions and the smallest partially
    transposed symplectic eigenvalue of a stack (N, 4, 4), from one set
    of block determinants det A, det C, det B and det V.

    nu: sigma = det A + det C - 2 det B and nu-^2 = 2 det V / (sigma +
    sqrt(sigma^2 - 4 det V)) (Serafini, Illuminati and De Siena, J.
    Phys. B 37, L21 (2004)), with the discriminant expanded so that it
    does not cancel where the two symplectic eigenvalues meet; det B is
    signed, negative for entangled states.  E_N = max(0, -ln(2 nu-)).

    Steering (Kogias, Lee, Ragy and Adesso, PRL 114, 060403 (2015)):
    S(2 block) - S(2 cm) with S = (1/2) ln det, the block being A
    (first-mode -> second-mode, ``forward``) or C (``backward``).
    """
    a, b, c = cms[:, :2, :2], cms[:, :2, 2:], cms[:, 2:, 2:]
    det_a, det_c, det_b, det_v = (np.linalg.det(m) for m in (a, c, b, cms))
    with np.errstate(invalid="ignore", divide="ignore"):
        sigma = det_a + det_c - 2.0 * det_b
        disc = sigma * sigma - 4.0 * det_v
        scale = np.maximum(1.0, sigma * sigma)
        inner = 0.5 * (sigma - np.sqrt(np.maximum(disc, 0.0)))
        # The same discriminant with det V = det A det C + det B^2 - t,
        # t = tr(A adj(B)^T C adj(B)), expanded: sigma^2 - 4 det V
        # cancels to roundoff as the two symplectic eigenvalues meet (a
        # product of vacua gives nu off by 5e-9), this expansion does
        # not.  The screens keep the plain form.
        adj_bt = b[:, ::-1, ::-1] * _COFACTOR_SIGNS
        t = ((a @ adj_bt) * (adj_bt @ c.transpose(0, 2, 1))).sum(axis=(1, 2))
        root = np.sqrt(np.maximum((det_a - det_c) ** 2
                                  - 4.0 * det_b * (det_a + det_c) + 4.0 * t,
                                  0.0))
        # nu-^2 = 2 det V / (sigma + sqrt(disc)), from nu-^2 nu+^2 =
        # det V: sigma - sqrt(disc) cancels when sigma is large, this
        # sum does not
        nu = np.sqrt(np.maximum(2.0 * det_v / (sigma + root), 0.0))
        e_n = -np.log(2.0 * nu)
        forward = 0.5 * np.log(det_a / (4.0 * det_v))
        backward = 0.5 * np.log(det_c / (4.0 * det_v))
        vanishing = ~(nu > 0.0)
    screens = [
        (disc < -ZERO_CLAMP * scale,
         lambda k: f"negative symplectic discriminant {disc[k]:.3e}"),
        (inner < -ZERO_CLAMP * np.maximum(1.0, np.abs(sigma)),
         lambda k: f"negative squared symplectic eigenvalue {inner[k]:.3e}"),
    ]

    def steering(value, det_block):
        return _screened(_clamp(value), [
            (det_block <= 0.0, lambda k: "non-positive conditioning block "
                                         f"determinant {det_block[k]:.3e}"),
            (det_v <= 0.0, lambda k: "non-positive covariance determinant "
                                     f"{det_v[k]:.3e}"),
        ])

    # roundoff around the threshold nu = 1/2 reports exact zero, and
    # roundoff-scale steering too, so that one-way statements are crisp
    return PairMeasures(
        _screened(_clamp(e_n), screens + [
            (vanishing, lambda k: "vanishing symplectic eigenvalue")]),
        steering(forward, det_a),
        steering(backward, det_c),
        _screened(nu, screens))
