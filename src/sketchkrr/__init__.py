"""Kernel ridge regression with randomized sketches.

Exact KRR plus three m x n sketch families (Gaussian, randomized
orthogonal system of sign-flipped, row-sampled Hadamard rows, and
sub-sampling/Nystrom), the kernel-complexity machinery that picks the
projection dimension (critical radius, statistical dimension, sketch
certificate), and a reproducible benchmark harness with a CLI.
"""

from .bench import (
    CSV_HEADER,
    ArmSummary,
    ExperimentConfig,
    NystromFailureResult,
    TrialRecord,
    derive_seed,
    emit_plot_script,
    flatness_ratio,
    fstar_values,
    generate_data,
    load_config,
    parse_config,
    rate_factor,
    read_csv,
    run_error_vs_n,
    run_nystrom_failure_demo,
    summarize_records,
    write_csv,
)
from .complexity import (
    ComplexityProfile,
    complexity_profile,
    critical_radius,
    kernel_complexity,
    population_eigenvalues,
    rate_exponent_check,
    statistical_dimension,
)
from .errors import DomainError, NumericalError
from .kernels import (
    DesignPoints,
    KernelMatrix,
    KernelSpec,
    build_kernel_matrix,
    kernel_eval,
)
from .satisfiability import (
    SatisfiabilityReport,
    check_k_satisfiable,
    recommended_sketch_dim,
)
from .sketch import (
    SketchOperator,
    apply_sketch,
    apply_sketch_t,
    draw_sketch,
    fwht,
    identity_sketch,
    materialize,
)
from .solver import (
    FitResult,
    RegressionSample,
    empirical_error,
    error_decomposition,
    krr_objective,
    predict,
    sketched_krr_objective,
    solve_dual_krr,
    solve_krr,
    solve_nystrom_dual,
    solve_sketched_krr,
    zero_noise_objective,
)

__version__ = "0.1.0"
