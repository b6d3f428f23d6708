"""Bipartite Gaussian correlation measures on reduced two-mode
covariance matrices: logarithmic negativity and directional Renyi-2
steering.

Conventions: vacuum variance 1/2 (a thermal mode has V = (N + 1/2) I),
so a pair is entangled iff the smallest partially-transposed symplectic
eigenvalue is below 1/2 and E_N = max(0, -ln(2 nu)).

A pair's measures come from one pass, :func:`pair_measures`, over a
stack (N, 4, 4) of its reduced CMs and the four block determinants det
A, det C, det B and det V of each: E_N, the steering in both directions
and the symplectic eigenvalue, each with its own screens.
:func:`log_negativity` is the same pass without the steering, for a
caller that reads E_N alone.  A slice that fails a screen comes back
NaN with the screen's code and the number it quotes; nothing raises.
The spectral route to the eigenvalue, the eigenvalues of i*Omega*(P cm P),
is the tests' oracle.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

MODES = ("a1", "a2", "m", "b")

PAIRS = (("a1", "a2"), ("a1", "m"), ("a2", "m"),
         ("a1", "b"), ("a2", "b"), ("m", "b"))

ZERO_CLAMP = 1e-12

# The places, row-major from 0 to 15 in a 4x4 slice [[A, B], [B^T, C]],
# of the factors x, y, z, w of 11 differences x y - z w: det A, det C,
# det B, then X_ik = a_i0 b_1(1-k) - a_i1 b_0(1-k) and Y_ik = b_(1-i)1
# c_k0 - b_(1-i)0 c_k1 for ik = 00, 01, 10, 11.  With adj(B)^T_jk =
# (-1)^(j+k) b_(1-j)(1-k), t = tr(A adj(B)^T C adj(B)) is the sum of
# (-1)^(i+k) X_ik Y_ik.
_IK = ((0, 0), (0, 1), (1, 0), (1, 1))
_FACTORS = np.array(
    [(0, 5, 1, 4), (10, 15, 11, 14), (2, 7, 3, 6)]
    + [(4 * i, 7 - k, 4 * i + 1, 3 - k) for i, k in _IK]
    + [(7 - 4 * i, 10 + 4 * k, 6 - 4 * i, 11 + 4 * k) for i, k in _IK]
).T.ravel()


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


def _screen(values: np.ndarray, checks) -> tuple:
    """``(values, screen, quoted)``: per slice, the place (from 1) of the
    first (mask, number) check that it fails, or 0, and the number of
    that check; ``values``, written in place, is NaN where one fails."""
    screen = np.zeros(len(values), dtype=np.int8)
    quoted = np.full(len(values), np.nan)
    for code, (mask, number) in reversed(list(enumerate(checks, 1))):
        if np.count_nonzero(mask):  # most slices pass: skip the writes
            screen[mask] = code
            quoted = np.where(mask, number, quoted)
    values[screen > 0] = np.nan
    return values, screen, quoted


class PairMeasures(NamedTuple):
    """The measures of a stack of two-mode CMs, each as ``(values,
    screen, quoted)`` of (N,) arrays: the values, NaN on each slice that
    failed a screen; per slice the place (from 1) of the first screen it
    failed, or 0; and the number that screen quotes, NaN where it quotes
    none."""

    log_negativity: tuple
    forward: tuple
    backward: tuple
    nu: tuple


def _clamp(value: np.ndarray) -> np.ndarray:
    """Roundoff-scale magnitudes (below ``ZERO_CLAMP``) as exact zero,
    negatives as zero."""
    return np.where(np.abs(value) < ZERO_CLAMP, 0.0, np.maximum(0.0, value))


def _symplectic(cms: np.ndarray):
    """E_N of each slice of a stack (N, 4, 4) as ``(values, screen,
    quoted)``, then what the steering and nu- reuse: det A, det C and det
    V of each slice, its smallest partially transposed symplectic
    eigenvalue nu- and the (mask, number) screens of nu-.

    sigma = det A + det C - 2 det B and nu-^2 = 2 det V / (sigma +
    sqrt(sigma^2 - 4 det V)) (Serafini, Illuminati and De Siena, J.
    Phys. B 37, L21 (2004)), with the discriminant expanded so that it
    does not cancel where the two symplectic eigenvalues meet; det B is
    signed, negative for entangled states.  E_N = max(0, -ln(2 nu-)),
    with the screens of nu- (the discriminant, nu-^2 and det V > 0) and
    a vanishing nu- as a fourth.

    The slices are symmetric, so det V = det A det C + det B^2 - t, t =
    tr(A adj(B)^T C adj(B)).  That identity is off by about the unit
    roundoff times the sum of its terms' moduli; where that sum is not
    below 1e3 det V (so wherever det V <= 0 or is NaN), LAPACK's LU
    takes the slice instead.
    """
    g = cms.reshape(len(cms), 16)[:, _FACTORS]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        p, q = g[:, :11] * g[:, 11:22], g[:, 22:33] * g[:, 33:]
        d, size = p - q, np.abs(p) + np.abs(q)
        det_a, det_c, det_b = d[:, 0], d[:, 1], d[:, 2]
        xy, xy_size = d[:, 3:7] * d[:, 7:], size[:, 3:7] * size[:, 7:]
        t = (xy[:, 0] + xy[:, 3]) - (xy[:, 1] + xy[:, 2])
        det_v = det_a * det_c + det_b * det_b - t
        # near the stability boundary the terms cancel: at fig3 row
        # 17820 the identity is off by 1.2e-9 relative, LU by 4.7e-13
        cancels = np.flatnonzero(~(
            size[:, 0] * size[:, 1] + size[:, 2] * size[:, 2]
            + (xy_size[:, 0] + xy_size[:, 1]) + (xy_size[:, 2] + xy_size[:, 3])
            < 1e3 * det_v))
        if cancels.size:
            det_v[cancels] = np.linalg.det(cms[cancels])
        sigma = det_a + det_c - 2.0 * det_b
        disc = sigma * sigma - 4.0 * det_v
        scale = np.maximum(1.0, sigma * sigma)
        inner = 0.5 * (sigma - np.sqrt(np.maximum(disc, 0.0)))
        # The same discriminant with det V = det A det C + det B^2 - t,
        # expanded: sigma^2 - 4 det V cancels to roundoff as the two
        # symplectic eigenvalues meet (a product of vacua gives nu off
        # by 5e-9), this expansion does not.  The screens keep the
        # plain form.
        root = np.sqrt(np.maximum((det_a - det_c) ** 2
                                  - 4.0 * det_b * (det_a + det_c) + 4.0 * t,
                                  0.0))
        # nu-^2 = 2 det V / (sigma + sqrt(disc)), from nu-^2 nu+^2 =
        # det V: sigma - sqrt(disc) cancels when sigma is large, this
        # sum does not
        nu = np.sqrt(np.maximum(2.0 * det_v / (sigma + root), 0.0))
        e_n = -np.log(2.0 * nu)
    screens = [(disc < -ZERO_CLAMP * scale, disc),
               (inner < -ZERO_CLAMP * np.maximum(1.0, np.abs(sigma)), inner),
               (det_v <= 0.0, det_v)]
    # roundoff around the threshold nu = 1/2 reports exact zero
    return (_screen(_clamp(e_n), screens + [(~(nu > 0.0), np.nan)]),
            det_a, det_c, det_v, nu, screens)


def log_negativity(cms: np.ndarray) -> tuple:
    """E_N of each slice of a stack (N, 4, 4) as ``(values, screen,
    quoted)``, the first element of :func:`pair_measures` without the
    steering."""
    return _symplectic(cms)[0]


def pair_measures(cms: np.ndarray) -> PairMeasures:
    """E_N, the steering in both directions and the smallest partially
    transposed symplectic eigenvalue of a stack (N, 4, 4), from one set
    of block determinants det A, det C, det B and det V
    (:func:`_symplectic`); E_N is the one :func:`log_negativity` gives.

    Steering (Kogias, Lee, Ragy and Adesso, PRL 114, 060403 (2015)):
    S(2 block) - S(2 cm) with S = (1/2) ln det, the block being A
    (first-mode -> second-mode, ``forward``) or C (``backward``).
    """
    e_n, det_a, det_c, det_v, nu, screens = _symplectic(cms)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        forward = 0.5 * np.log(det_a / (4.0 * det_v))
        backward = 0.5 * np.log(det_c / (4.0 * det_v))

    def steering(value, det_block):
        return _screen(_clamp(value), [(det_block <= 0.0, det_block),
                                       (det_v <= 0.0, det_v)])

    # roundoff-scale steering reports exact zero, so that one-way
    # statements are crisp
    return PairMeasures(e_n, steering(forward, det_a),
                        steering(backward, det_c), _screen(nu, screens))
