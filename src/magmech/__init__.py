"""Steady-state quantum correlations of a passive-active double-cavity
magnomechanical system.

Pipeline: mean-field steady state -> linearized drift and diffusion
matrices -> stability gate -> Lyapunov covariance -> bipartite
logarithmic negativity and Renyi-2 steering for every mode pair, plus a
parameter-sweep engine and CLI reproducing the reference figure data.
"""

from .dynamics import (StabilityReport, diffusion_matrices, drift_matrices,
                       stability)
from .lyapunov import (lyapunov_residual, physicality_min_eig, solve_lyapunov,
                       symplectic_form)
from .measures import MODES, PAIRS, pair_measures, reduce_pair
from .params import (DriveParams, ParamStack, PhysicalParams, eta_ratio,
                     reference_baseline, rabi_frequency, thermal_occupation)
from .steady_state import SteadyState, effective_coupling, solve_steady_states
from .sweep import (SweepAxis, SweepRecord, SweepSpec, SweepTable,
                    evaluate_point, figure_preset, find_critical_temperature,
                    run_sweep)

__all__ = [
    "DriveParams", "MODES", "PAIRS", "ParamStack", "PhysicalParams",
    "StabilityReport", "SteadyState", "SweepAxis", "SweepRecord",
    "SweepSpec", "SweepTable", "diffusion_matrices", "drift_matrices",
    "effective_coupling", "eta_ratio", "evaluate_point", "figure_preset",
    "find_critical_temperature", "lyapunov_residual", "pair_measures",
    "reference_baseline", "physicality_min_eig", "rabi_frequency",
    "reduce_pair", "run_sweep", "solve_lyapunov", "solve_steady_states",
    "stability", "symplectic_form", "thermal_occupation",
]

__version__ = "0.1.0"
