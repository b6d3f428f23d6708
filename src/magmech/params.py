"""Physical parameter model for the passive-active double-cavity
magnomechanical system.

All frequencies, detunings, decay rates and couplings are stored as
angular quantities in rad/s.  Config files may quote values in ordinary
frequency (``Hz2pi``) or in units of ``kappa_1`` / ``omega_b``; see
:mod:`magmech.config` for the accepted suffixes.  :class:`PhysicalParams`
is one point, :class:`ParamStack` N points as columns; both obey one set
of rules.

Physical constants are fixed to five significant figures so that all
reference numbers in the test suite are reproducible bit-for-bit:
``HBAR = 1.0546e-34`` J s, ``K_B = 1.3807e-23`` J/K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from types import SimpleNamespace

import numpy as np

TWO_PI = 2.0 * math.pi

HBAR = 1.0546e-34
K_B = 1.3807e-23

COUPLING_MODES = ("direct_g", "microscopic")
DIFFUSION_CONVENTIONS = ("as_printed", "absolute_value", "physical_sum")
DRIFT_MODES = ("derived", "printed")

# the fields that every point of a ParamStack shares
SHARED_FIELDS = ("coupling_mode", "diffusion_convention", "drift_mode",
                 "epsilon_d")


@dataclass(frozen=True)
class PhysicalParams:
    """One complete system instance.

    Parameters
    ----------
    omega_b : float
        Mechanical mode frequency (rad/s).
    omega_1, omega_2, omega_m : float
        Bare cavity-1, cavity-2 and magnon mode frequencies (rad/s);
        only used to evaluate thermal occupations.
    Delta_1, Delta_2, Delta_m : float
        Detunings of the two cavities and the magnon mode from the
        drive frequency (rad/s).
    kappa_1, kappa_2, kappa_m : float
        Photon-1 decay, intrinsic photon-2 decay and magnon decay (rad/s).
    gain_g : float
        Real gain rate fed into cavity 2 (rad/s); the net cavity-2
        damping is ``kappa_2 - gain_g`` and is negative for an active
        cavity.
    gamma_b : float
        Mechanical damping (rad/s).
    g_ma : float
        Magnon-photon coupling (rad/s).
    J : float
        Cavity-cavity tunneling (rad/s).
    coupling_mode : str
        ``"direct_g"``: the effective magnon-phonon coupling ``G_mb``
        is prescribed directly and the mean-field self-consistency is
        skipped.  ``"microscopic"``: ``G_mb`` is derived from the bare
        coupling ``g_mb`` and the steady-state magnon amplitude.
    G_mb : float
        Effective magnomechanical coupling (rad/s), used in
        ``direct_g`` mode.
    g_mb : float
        Bare single-magnon magnomechanical coupling (rad/s), used in
        ``microscopic`` mode.
    temperature_T : float
        Environment temperature (K).
    diffusion_convention : str
        How the cavity-2 noise diagonal is built when the cavity is
        active; one of ``as_printed``, ``absolute_value``,
        ``physical_sum``.  See
        :func:`magmech.dynamics.diffusion_matrices`.
    drift_mode : str
        ``derived`` or ``printed``; see
        :func:`magmech.dynamics.drift_matrices`.
    epsilon_d : float
        Magnon drive amplitude (rad/s), finite and non-negative.

    A :class:`ParamStack` shares the ``SHARED_FIELDS`` with its points.
    """

    omega_b: float
    omega_1: float
    omega_2: float
    omega_m: float
    Delta_1: float
    Delta_2: float
    Delta_m: float
    kappa_1: float
    kappa_2: float
    kappa_m: float
    gain_g: float
    gamma_b: float
    g_ma: float
    J: float
    temperature_T: float
    coupling_mode: str = "direct_g"
    G_mb: float = 0.0
    g_mb: float = 0.0
    diffusion_convention: str = "as_printed"
    drift_mode: str = "derived"
    epsilon_d: float = 0.0

    def __post_init__(self):
        for failed, message in _checks(self):
            if failed:
                raise ValueError(message)

    def with_(self, **changes) -> "PhysicalParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


NUMERIC_FIELDS = tuple(f.name for f in fields(PhysicalParams)
                       if f.name not in SHARED_FIELDS)


def _checks(p):
    """(failed, message) of each validity rule in order: ``failed`` is a
    bool for a :class:`PhysicalParams`, a mask for a :class:`ParamStack`."""
    return (
        (p.omega_b <= 0, "omega_b must be positive"),
        ((p.omega_1 <= 0) | (p.omega_2 <= 0) | (p.omega_m <= 0),
         "omega_1, omega_2 and omega_m must be positive"),
        ((p.kappa_1 <= 0) | (p.kappa_m <= 0) | (p.gamma_b <= 0),
         "kappa_1, kappa_m and gamma_b must be positive"),
        ((p.kappa_2 < 0) | (p.gain_g < 0),
         "kappa_2 and gain_g must be non-negative"),
        (p.temperature_T < 0, "temperature_T must be non-negative"),
        (p.coupling_mode not in COUPLING_MODES,
         f"unknown coupling_mode {p.coupling_mode!r}"),
        (p.diffusion_convention not in DIFFUSION_CONVENTIONS,
         f"unknown diffusion_convention {p.diffusion_convention!r}"),
        (p.drift_mode not in DRIFT_MODES,
         f"unknown drift mode {p.drift_mode!r}"),
        (not (math.isfinite(p.epsilon_d) and p.epsilon_d >= 0),
         f"epsilon_d must be finite and non-negative, got {p.epsilon_d!r}"),
        ((p.coupling_mode == "direct_g") & (p.G_mb < 0),
         "G_mb must be non-negative in direct_g mode"),
        ((p.coupling_mode == "microscopic") & (p.g_mb < 0),
         "g_mb must be non-negative in microscopic mode"),
        (_not_finite(p), "all numeric parameters must be finite"),
    )


def _not_finite(p):
    """Whether a numeric field is infinite or NaN: one check over the
    fields of a :class:`PhysicalParams`, one array op over the columns
    of a :class:`ParamStack`."""
    values = [getattr(p, name) for name in NUMERIC_FIELDS]
    if isinstance(p, PhysicalParams):
        return not all(map(math.isfinite, values))
    return ~np.isfinite(values).all(axis=0)


class ParamStack(SimpleNamespace):
    """N parameter sets as columns: one (N,) float array per numeric
    field of :class:`PhysicalParams`, and one value of each of the
    ``SHARED_FIELDS``.  Not validated on construction; :meth:`errors`
    names each point's first broken rule."""

    @classmethod
    def broadcast(cls, base: PhysicalParams, n: int,
                  **columns) -> "ParamStack":
        """``n`` copies of ``base`` with the given fields replaced by
        (N,) arrays or scalars.  Like any stack it is not validated: the
        kernel's caller runs :meth:`errors` on the stacks built from grid
        columns, and knows the copies of a bare ``base`` valid."""
        point = np.array([getattr(base, name) for name in NUMERIC_FIELDS],
                         dtype=float)[:, None]
        values = dict(zip(NUMERIC_FIELDS, point.repeat(n, axis=1)))
        for name, column in columns.items():
            values[name][:] = column
        return cls(**values, **{name: getattr(base, name)
                                for name in SHARED_FIELDS})

    def __len__(self) -> int:
        return len(self.omega_b)

    def take(self, index) -> "ParamStack":
        """The points at ``index``, as a stack."""
        return type(self)(**{**vars(self),
                             **{name: getattr(self, name)[index]
                                for name in NUMERIC_FIELDS}})

    def errors(self) -> list:
        """Per point, the message of its first broken rule, or None."""
        n = len(self)
        errors = [None] * n
        # in reverse, so that each point keeps its first broken rule;
        # count_nonzero costs a tenth of np.any on a chunk's mask or bool
        for failed, message in reversed(_checks(self)):
            if np.count_nonzero(failed):
                for k in np.flatnonzero(np.broadcast_to(failed, (n,))):
                    errors[k] = message
        return errors


@dataclass(frozen=True)
class DriveParams:
    """Magnetic drive acting on the magnon mode.

    ``spin_density_rho`` defaults to the YIG value 4.22e27 spins/m^3 and
    ``gyro_ratio_gamma_g`` to 2*pi*28 GHz/T.
    """

    B_0: float
    sphere_diameter: float
    spin_density_rho: float = 4.22e27
    gyro_ratio_gamma_g: float = TWO_PI * 28e9

    def __post_init__(self):
        for name in ("B_0", "sphere_diameter", "spin_density_rho",
                     "gyro_ratio_gamma_g"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def thermal_occupation(omega, temperature):
    """Mean thermal occupation of a mode at angular frequency ``omega``,
    element by element over broadcast arrays; a float for two scalars.

    Evaluates the Bose-Einstein factor 1/(exp(hbar*omega/(k_B*T)) - 1);
    returns exactly 0 at zero temperature.
    """
    omega, temperature = np.asarray(omega), np.asarray(temperature)
    if np.count_nonzero(omega <= 0):
        raise ValueError("omega must be positive")
    if np.count_nonzero(temperature < 0):
        raise ValueError("temperature must be non-negative")
    with np.errstate(all="ignore"):
        x = HBAR * omega / (K_B * temperature)
        # exp would overflow past x = 700; the occupation is zero anyway
        warm = (temperature != 0.0) & ~(x > 700.0)
        # math.expm1 per distinct x (np.expm1 may differ in the last bit),
        # found by a stable sort: the default one costs 1.7 MB more RSS
        x = x[warm]
        s = np.sort(x, kind="stable")
        distinct = np.concatenate((s[:1], s[1:][s[1:] != s[:-1]]))
        n = np.zeros(warm.shape)
        n[warm] = (1.0 / np.fromiter(map(math.expm1, distinct.tolist()),
                                     float))[np.searchsorted(distinct, x)]
    return float(n) if n.ndim == 0 else n


def effective_kappa_2(params):
    """Net cavity-2 damping, intrinsic loss minus gain (negative if
    active); one value per point of a :class:`ParamStack`."""
    return params.kappa_2 - params.gain_g


def rabi_frequency(drive: DriveParams) -> float:
    """Drive Rabi rate (sqrt(5)/4) * gamma_g * sqrt(N) * B_0 (rad/s).

    The total spin number N is the spin density times the sphere volume
    computed from the diameter.
    """
    volume = math.pi * drive.sphere_diameter ** 3 / 6.0
    n_spins = drive.spin_density_rho * volume
    return (math.sqrt(5.0) / 4.0) * drive.gyro_ratio_gamma_g \
        * math.sqrt(n_spins) * drive.B_0


def reference_baseline(**overrides) -> PhysicalParams:
    """Standard parameter table used by the figure presets.

    omega_b/2pi = 10 MHz, cavity and magnon modes at 10 GHz,
    kappa_1/2pi = 1 MHz, kappa_2 = kappa_1, kappa_m/2pi = 0.56 MHz,
    gamma_b/2pi = 100 Hz, g_ma/2pi = G_mb/2pi = 3.2 MHz, J = 2 kappa_1,
    gain 1.5 kappa_1 (eta = -0.5), detunings Delta_1 = Delta_2 =
    -0.91 omega_b, Delta_m = 0.89 omega_b, T = 15 mK.

    Keyword overrides replace individual fields.
    """
    omega_b = TWO_PI * 10e6
    kappa_1 = TWO_PI * 1e6
    base = dict(
        omega_b=omega_b,
        omega_1=TWO_PI * 10e9,
        omega_2=TWO_PI * 10e9,
        omega_m=TWO_PI * 10e9,
        Delta_1=-0.91 * omega_b,
        Delta_2=-0.91 * omega_b,
        Delta_m=0.89 * omega_b,
        kappa_1=kappa_1,
        kappa_2=kappa_1,
        kappa_m=TWO_PI * 0.56e6,
        gain_g=1.5 * kappa_1,
        gamma_b=TWO_PI * 100.0,
        g_ma=TWO_PI * 3.2e6,
        J=2.0 * kappa_1,
        temperature_T=0.015,
        coupling_mode="direct_g",
        G_mb=TWO_PI * 3.2e6,
        diffusion_convention="as_printed",
    )
    base.update(overrides)
    return PhysicalParams(**base)
