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

    def __post_init__(self):
        for failed, message in _checks(self):
            if failed:
                raise ValueError(message)

    def with_(self, **changes) -> "PhysicalParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


NUMERIC_FIELDS = tuple(f.name for f in fields(PhysicalParams)
                       if f.type in (float, "float"))


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
        ((p.coupling_mode == "direct_g") & (p.G_mb < 0),
         "G_mb must be non-negative in direct_g mode"),
        ((p.coupling_mode == "microscopic") & (p.g_mb < 0),
         "g_mb must be non-negative in microscopic mode"),
    )


class ParamStack(SimpleNamespace):
    """N parameter sets as columns: one (N,) float array per numeric
    field of :class:`PhysicalParams`, the two modes shared by the stack.
    Not validated on construction; :meth:`errors` names each point's
    first broken rule."""

    @classmethod
    def broadcast(cls, base: PhysicalParams, n: int,
                  **columns) -> "ParamStack":
        """``n`` copies of ``base`` with the given fields replaced by
        (N,) arrays or scalars."""
        block = np.array([getattr(base, name) for name in NUMERIC_FIELDS],
                         dtype=float)[:, None].repeat(n, axis=1)
        values = dict(zip(NUMERIC_FIELDS, block))
        for name, column in columns.items():
            values[name][:] = column
        return cls(**values, coupling_mode=base.coupling_mode,
                   diffusion_convention=base.diffusion_convention)

    def __len__(self) -> int:
        return len(self.omega_b)

    def take(self, index) -> "ParamStack":
        """The points at ``index``, as a stack."""
        return ParamStack(**{name: getattr(self, name)[index]
                             for name in NUMERIC_FIELDS},
                          coupling_mode=self.coupling_mode,
                          diffusion_convention=self.diffusion_convention)

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


def thermal_occupation(omega: float, temperature: float) -> float:
    """Mean thermal occupation of a mode at angular frequency ``omega``.

    Evaluates the Bose-Einstein factor 1/(exp(hbar*omega/(k_B*T)) - 1);
    returns exactly 0 at zero temperature.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    if temperature < 0:
        raise ValueError("temperature must be non-negative")
    if temperature == 0.0:
        return 0.0
    x = HBAR * omega / (K_B * temperature)
    if x > 700.0:          # exp would overflow; occupation is zero anyway
        return 0.0
    return 1.0 / math.expm1(x)


def effective_kappa_2(params):
    """Net cavity-2 damping, intrinsic loss minus gain (negative if
    active); one value per point of a :class:`ParamStack`."""
    return params.kappa_2 - params.gain_g


def eta_ratio(params: PhysicalParams) -> float:
    """Gain-loss ratio (kappa_2 - gain_g)/kappa_1.

    Negative exactly when the second cavity is net active.
    """
    return effective_kappa_2(params) / params.kappa_1


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
