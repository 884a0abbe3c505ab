"""Projected Euler scheme for SDEs with locally Lipschitz coefficients.

The scheme evaluates the drift at the state clamped into a step-count
dependent box, which keeps explicit stepping stable on models whose drift
blows up at the origin or at infinity (square-root rates, cubic reversion,
polynomial interest-rate models).  The package bundles the model transforms,
rate planning, reproducible Brownian streams, a strong-convergence harness,
a multilevel Monte Carlo pricer, and a config-driven command line.
"""
from .brownian import BLOCK_WIDTH, BrownianFabric, correlate, couple_levels
from .config import (ExperimentConfig, MlmcSection, ModelConfig, PriceSection,
                     SchemeConfig, StudyConfig, from_mapping, load_config, loads)
from .convergence import (VALUE_CAP, ConvergenceRecord, ConvergenceReport,
                          fit_rate, run_convergence_study)
from .errors import (BudgetExceeded, ConfigError, DomainError, FellerViolation,
                     MissingThreshold, NonFinite, PlanInfeasible,
                     RateUnavailable, SdeProjError)
from .mlmc import (MlmcConfig, MlmcLevel, MlmcReport, allocate_paths,
                   implicit_price, level_sample, mlmc_estimate, payoff_spread)
from .models import (LampertiMap, ModelTriple, RateTable, RawModel,
                     SmoothCoefficient, TransformedModel, ait_sahalia_model,
                     cir_model, ginzburg_landau_model, guaranteed_rate,
                     locally_smooth_model, three_halves_model)
from .projection import (ProjectionPlan, SchemeGrid, clamp_variant,
                         classical_plan, diffusion_bar, evolve_terminal,
                         lipschitz_bound, manual_plan, plan_exponents, project,
                         simulate_path, step)
from .reference import (ImplicitCirParams, cir_zcb_closed_form,
                        ginzburg_landau_exact, implicit_cir_path,
                        implicit_cir_step, implicit_cir_terminal)

__version__ = "1.0.0"

# Version of the frozen external interface (CSV columns, JSON keys, config
# schema); stamped into every JSON report.
SPEC_VERSION = "1.0"

__all__ = [
    "BLOCK_WIDTH", "BrownianFabric", "correlate", "couple_levels",
    "ExperimentConfig", "MlmcSection", "ModelConfig", "PriceSection",
    "SchemeConfig", "StudyConfig", "from_mapping", "load_config", "loads",
    "VALUE_CAP", "ConvergenceRecord", "ConvergenceReport", "fit_rate",
    "run_convergence_study",
    "BudgetExceeded", "ConfigError", "DomainError", "FellerViolation",
    "MissingThreshold", "NonFinite", "PlanInfeasible", "RateUnavailable",
    "SdeProjError",
    "MlmcConfig", "MlmcLevel", "MlmcReport", "allocate_paths", "implicit_price",
    "level_sample", "mlmc_estimate", "payoff_spread",
    "LampertiMap", "ModelTriple", "RateTable", "RawModel", "SmoothCoefficient",
    "TransformedModel", "ait_sahalia_model", "cir_model",
    "ginzburg_landau_model", "guaranteed_rate", "locally_smooth_model",
    "three_halves_model",
    "ProjectionPlan", "SchemeGrid", "clamp_variant", "classical_plan",
    "diffusion_bar", "evolve_terminal", "lipschitz_bound", "manual_plan",
    "plan_exponents", "project", "simulate_path", "step",
    "ImplicitCirParams", "cir_zcb_closed_form", "ginzburg_landau_exact",
    "implicit_cir_path", "implicit_cir_step", "implicit_cir_terminal",
    "SPEC_VERSION", "__version__",
]
