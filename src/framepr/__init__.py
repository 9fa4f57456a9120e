"""Phase retrieval from magnitudes of frame coefficients.

Library layout:

- ``frames``: frame construction, analysis/synthesis, magnitude and intensity
  measurement maps, frame bounds, duals, JSON frame files.
- ``lifting``: realification, rank-one lifting, closed-form spectra of the
  low-rank matrices the theory runs on.
- ``metrics``: distances on the phase quotient.
- ``injectivity``: retrievability certificates and stability bounds.
- ``estimation``: noise models, Fisher information, Cramer-Rao bounds.
- ``recon``: five reconstruction algorithms.
- ``harness``: seeded experiment runner; ``cli``: command-line front end.
"""

__version__ = "0.1.0"  # the one copy; reports record it as artifact_version

from .errors import (
    BudgetExceeded,
    CombinatorialBudgetExceeded,
    ConfigError,
    DimensionMismatch,
    FramePRError,
    IndefiniteOperator,
    InsufficientRedundancy,
    InvalidPartition,
    NoConvergence,
    NonFiniteMeasurement,
    NotHermitian,
    NotPhaseRetrievable,
    OddDimension,
    OrthogonalAnchor,
    QuadratureError,
    RankDeficient,
    ZeroVector,
)
from .frames import (
    Frame,
    analysis,
    canonical_dual,
    frame_bounds,
    frame_from_dict,
    frame_operator,
    frame_to_dict,
    intensity_map,
    is_full_spark,
    load_frame,
    magnitude_map,
    make_frame,
    random_frame,
    rng_from_seed,
    save_frame,
    synthesis,
)
from .lifting import (
    S11Spectrum,
    apply_complex_structure,
    complexify,
    gradient_columns,
    gradient_gram,
    lift_outer,
    lifted_map,
    lifted_map_adjoint,
    measurement_form,
    measurement_forms,
    rank_one_diff_spectrum,
    realify,
    sym_outer,
    sym_outer_spectrum,
    weighted_frame_operator,
)
from .linalg import (
    EigDecomposition,
    cg_solve,
    hermitian_eig,
    hermitian_part,
    power_method,
    pseudo_inverse,
)
from .metrics import outer_distance, quotient_distance
from .injectivity import (
    BoundsReport,
    PRCertificate,
    certify_retrievable_complex,
    check_retrievable_real,
    fourth_moment_max,
    local_stability_bounds,
    min_measurement_count,
    sampled_stability_bounds,
    sphere_net,
    stability_bounds_real,
)
from .estimation import (
    FisherMatrix,
    NoiseModel,
    bessel_ratio_weight,
    crlb,
    crlb_upper_bound,
    fisher_awgn,
    fisher_coefficient_noise,
    simulate_measurements,
)
from .recon import (
    GSOptions,
    IRLSOptions,
    PhaseLiftOptions,
    ReconResult,
    SpectralInit,
    WirtingerOptions,
    gerchberg_saxton,
    irls,
    irls_objective,
    lifted_linear,
    phaselift,
    spectral_init,
    wirtinger_flow,
)
from .harness import (
    Report,
    compute_aggregates,
    crlb_reference_curve,
    load_config,
    run_experiment,
    write_csv,
)
