"""Rerandomized allocation, covariate-adjusted estimation, and inference."""

__version__ = "0.1.0"

from .allocation import (
    Allocation,
    balance_distance,
    chi_square_cdf,
    imbalance_simple,
    imbalance_stratified,
    imbalance_stratified_dagger,
    permuted_block_assign,
    rerandomize,
    simple_assign,
)
from .data_model import (
    Design,
    DistanceSpec,
    EstimandSpec,
    EstimateResult,
    Tier,
    TrialFrame,
    load_csv,
    validate_design,
    write_csv,
)
from .dml import FoldPlan, LearnerSpec, estimate_dml, make_folds
from .inference import (
    CIResult,
    LimitSpec,
    confidence_interval,
    normal_interval,
    rsquared_simple,
    rsquared_stratified,
    sample_limit,
    v_qt,
    variance_simple,
    variance_stratified,
)
from .mestimators import (
    PsiSpec,
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
