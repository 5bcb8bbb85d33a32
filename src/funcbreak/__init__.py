"""Structural break detection and dating for functional time series.

The fully functional route works directly with L2 norms of the functional
CUSUM process, avoiding dimension reduction: a max-type detector with Monte
Carlo critical values from the long-run covariance spectrum, a break date
estimator with confidence intervals from the exact argmax limit law,
fPCA-based competitor statistics, and the simulation laboratory used to study
them.
"""

from .basis import (
    Curve,
    CurveSeries,
    DegenerateFitError,
    EigenSystem,
    FourierBasis,
    KernelMatrix,
    eigen_decompose,
    fit_curve,
)
from .dating import (
    DatingReport,
    LimitProcessConfig,
    XiLaw,
    confidence_interval,
    date_break,
    estimate_break_function,
    sigma2_hat,
    simulate_xi,
)
from .detect import (
    BreakFit,
    DetectionReport,
    KieferLaw,
    LimitSample,
    NullBank,
    cusum_norm_sq,
    cusum_paths,
    fit_break,
    simulate_null_limit,
)
from .detect import test as detect_break
from .fpca import (
    FpcaResult,
    RankError,
    aligned_statistic,
    fit_fpca,
    tve_dimension,
)
from .longrun import (
    estimate_longrun,
    longrun_kernel,
    trace,
)
from .simlab import (
    BreakSpec,
    DgpConfig,
    ExperimentResult,
    break_function,
    far1_longrun_trace,
    gen_errors,
    insert_break,
    run_experiment,
    sigma_vector,
    snr_to_c,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
