"""Structured-grid laboratory for constructive parabolic estimates.

Finite-difference grids and masked domains, a Neumann heat-kernel bench,
rough-coefficient solvers with explicit oscillation/Hoelder constants,
cross-diffusion and reaction-network pipelines, a one-sided interpolation
checker, and a JSON-config experiment harness.
"""

from .errors import (ConfigError, DomainError, GeometryError, LabError,
                     ParameterError, PreconditionError, SamplingError,
                     SolverError, StructuralError)
from .grid import (DomainMask, Field, GridSpec, Trajectory, ball_mask,
                   full_mask, gradient, graph_domain_mask, poisson_neumann,
                   stable_dt)
from .norms import (holder_norm, holder_norm_field, lipschitz_norm, lp_norm,
                    lpq_norm, oscillation, space_norm)
from .kernel import (KernelField, admissible_graph_domain, domain_volume,
                     fit_power, fitted_moment_prefactor, fitted_prefactor,
                     gaussian_heat, gaussian_lower_bound_check,
                     gaussian_moment_1d, gaussian_running_sup,
                     intermediate_regime, kernel_calibration, kernel_evolve,
                     kernel_moment, kernel_norm_report, moment_report,
                     source_ball_center)
from .rough import (ConstantsBundle, RoughCoefficient, RoughSolution,
                    alpha_practical, explicit_constants, forcing_constant,
                    holder_bound_check, initial_oscillation_check,
                    iteration_c1, iteration_lambda, iteration_tracer_check,
                    k2_constant, k3_constant, oscillation_decay_check,
                    shrunk_radius, solve_rough, supremum_bound_check,
                    unit_ball_volume)
from .systems import (GeneralSolution, GeneralSystemSpec, PRESET_SYSTEMS,
                      SKTAuxiliary, SKTParams, SKTSolution, general_solve,
                      lp_energy_report, nu_bounds_report, preset_p_q_2s3,
                      preset_quad4, preset_s1_2s2, preset_uum,
                      quad_identity_report, quad_mass_report,
                      quad_mu_report, quadratic_solve,
                      skt_auxiliary, skt_solve, structural_checks,
                      transform_consistency_report,
                      transformed_residual_report)
from .systems import convexified as skt_convexified
from .interp import (BallCover, build_covering, covering_radii,
                     cut_ball_check, default_overlap_cap,
                     interpolation_check, interpolation_theta,
                     random_admissible_pair)
from .report import EstimateReport, RunReport, emit, parse_report
from .fieldio import load_trajectory, save_trajectory
from .harness import (ExperimentConfig, preset_config, preset_names,
                      run_experiment, run_with_refinement)

__version__ = "0.1.0"
