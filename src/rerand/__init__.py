"""Rerandomized allocation, covariate-adjusted estimation, and inference."""

__version__ = "0.1.0"

from .allocation import Allocation, balance_distance, rerandomize
from .data_model import (
    Design,
    EstimandSpec,
    EstimateResult,
    Tier,
    TrialFrame,
    load_csv,
    validate_design,
)
from .dml import LearnerSpec, estimate_dml, make_folds
from .inference import (
    CIResult,
    LimitSpec,
    chi_square_cdf,
    confidence_interval,
    normal_interval,
    sample_limit,
    scheme_plugins,
    v_qt,
    variance_simple,
)
from .mestimators import (
    estimate_ancova,
    estimate_drwls,
    estimate_gcomp_logistic,
    estimate_mixed_ancova,
    estimate_unadjusted,
    solve_estimating_equations,
)
from .simlab import (
    CustomDgp,
    DgpSpec,
    SimConfig,
    SimEstimator,
    SimReport,
    generate_trial,
    run_simulation,
    true_delta,
)

__all__ = [name for name in dir() if not name.startswith("_")]
