"""Numerical laboratory for log-correlated fields and complex chaos measures.

The package is organized around one decomposition: the log kernel is split
into a bounded remainder plus a ladder of unit-variance scale layers, each
supported on separations below e^(-t0-n).  Everything else (sampling,
mollified fields, chaos integrals, phase boundaries, Monte Carlo checks)
is built on top of that ladder.
"""

from .chaos import (ChaosParams, barrier_below, bump_function, chaos_density,
                    q0_for, sobolev_diag, wick_exp_flagged)
from .grids import Grid
from .kernels import (KernelSpec, PdReport, exact_level, gram, k_exact,
                      k_mollified, k_partial, kappa, pd_check, q_mollified,
                      q_n)
from .mollifier import (Mollifier, ResolutionError, discrete_stencil,
                        quad_cloud, shrink_domain, theta, theta_eps,
                        weight_matrix)
from .phase import (BOUNDARY, L2, LABELS, PHASE_II, PHASE_III, SUBCRITICAL,
                    PhaseError, classify, pick_lambda, scan)
from .sampler import (NumericError, TiltShift, increment_factors,
                      sampled_rows, tilt_shift_rows)
from .verify import (Bench, KernelEstimateReport, LadderReport,
                     MomentEstimate, SupFieldReport, TailBoundReport,
                     TiltedEventReport, cauchy_ladder, field_stats,
                     kernel_estimate_check, ladder_from_values, mc_moment,
                     mc_moments, mollifier_independence, moment_from_values,
                     second_moment_oracle, sobolev_ladder, sup_field_prob,
                     tail_bound_check, tilted_event_prob, trend_verdict)

__version__ = "0.22.0"

__all__ = [
    "BOUNDARY", "Bench", "ChaosParams", "Grid", "KernelEstimateReport",
    "KernelSpec", "L2", "LABELS", "LadderReport", "Mollifier",
    "MomentEstimate", "NumericError", "PHASE_II", "PHASE_III",
    "PdReport", "PhaseError", "ResolutionError", "SUBCRITICAL",
    "SupFieldReport", "TailBoundReport", "TiltShift", "TiltedEventReport",
    "barrier_below", "bump_function", "cauchy_ladder", "chaos_density",
    "classify", "discrete_stencil", "exact_level", "field_stats", "gram",
    "increment_factors", "k_exact", "k_mollified", "k_partial", "kappa",
    "kernel_estimate_check", "ladder_from_values", "mc_moment", "mc_moments",
    "mollifier_independence", "moment_from_values", "pd_check",
    "pick_lambda", "q0_for", "q_mollified", "q_n", "quad_cloud",
    "sampled_rows", "scan", "second_moment_oracle", "shrink_domain",
    "sobolev_diag", "sobolev_ladder", "sup_field_prob", "tail_bound_check",
    "theta", "theta_eps", "tilt_shift_rows", "tilted_event_prob",
    "trend_verdict", "weight_matrix", "wick_exp_flagged", "__version__",
]
