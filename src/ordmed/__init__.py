"""Counterfactual mediation analysis for an ordinal outcome and a binary
mediator: exact per-level log odds-ratio effects (total, controlled-direct,
natural-direct, natural-indirect), maximum-likelihood fitting, percentile
bootstrap intervals, and Monte Carlo study replication.
"""

from .effects import (
    EffectQuery,
    EffectTable,
    counterfactual_cumulative_logit,
    effect_labels,
    effect_table,
    log_cde,
    log_nde,
    log_nie,
    log_tce,
    plug_in_oracle,
)
from .estimation import (
    FitResult,
    fit_mediator,
    fit_outcome,
    loglik_mediator,
    loglik_outcome,
    mediator_loglik_gradient,
    outcome_loglik_gradient,
    parameter_labels,
)
from .exceptions import (
    ConsistencyError,
    ConvergenceError,
    DataValidationError,
    DegenerateDataError,
    DimensionError,
    MediationError,
    ModelSpecError,
    SeparationError,
)
from .inference import BootstrapResult, bootstrap_effects, percentile_interval, quantile
from .models import (
    Dataset,
    MediatorModel,
    OutcomeModel,
    category_probabilities,
    cumulative_probability,
    mediator_probability,
    validate_dataset,
)
from .simulation import (
    MonteCarloSummary,
    SimulationDesign,
    monte_carlo_study,
    replicate_seed,
    simulate_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "BootstrapResult",
    "ConsistencyError",
    "ConvergenceError",
    "DataValidationError",
    "Dataset",
    "DegenerateDataError",
    "DimensionError",
    "EffectQuery",
    "EffectTable",
    "FitResult",
    "MediationError",
    "MediatorModel",
    "ModelSpecError",
    "MonteCarloSummary",
    "OutcomeModel",
    "SeparationError",
    "SimulationDesign",
    "bootstrap_effects",
    "category_probabilities",
    "counterfactual_cumulative_logit",
    "cumulative_probability",
    "effect_labels",
    "effect_table",
    "fit_mediator",
    "fit_outcome",
    "log_cde",
    "log_nde",
    "log_nie",
    "log_tce",
    "loglik_mediator",
    "loglik_outcome",
    "mediator_loglik_gradient",
    "mediator_probability",
    "monte_carlo_study",
    "outcome_loglik_gradient",
    "parameter_labels",
    "percentile_interval",
    "plug_in_oracle",
    "quantile",
    "replicate_seed",
    "simulate_dataset",
    "validate_dataset",
]
