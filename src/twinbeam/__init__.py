"""Twin-beam state reconstruction from joint photocount histograms.

Reconstructs the six-parameter paired + noise decomposition of a twin beam
from the first and second photocount moments plus a least-square declination
fit, and evaluates its intensity quasi-distributions, non-classicality
criteria and photon-statistics diagnostics.
"""

from .errors import (
    DomainError,
    GridResolutionError,
    InfeasibleMomentsError,
    NumericsError,
    TwinbeamError,
    ValidationError,
)
from .fit import ForwardModel, ReconstructionResult, declination, reconstruct
from .model import (
    DetectedIntensityMoments,
    DetectorModel,
    FieldMoments,
    Histogram2D,
    JointDistribution,
    PhotocountMoments,
    QdiiGrid,
    TwinBeamParams,
)
from .moments import (
    MomentInversionFamily,
    component_mode_params,
    dark_corrected_moments,
    detected_from_field,
    feasibility,
    field_moments_from_params,
    inversion_family,
    invert_at,
    mode_parameters,
    photocount_moments,
)
from .photostat import (
    default_cutoffs,
    detector_response,
    joint_photon_distribution,
    mandel_rice,
    mandel_rice_pmf,
    noise_reduction_factor,
    photocount_distribution,
    response_table,
    sum_distribution,
)
from .qdii import (
    NonclassicalityVerdict,
    OrderingContext,
    ThresholdDiagnostics,
    characteristic_function,
    joint_qdii_grid,
    nonclassicality,
    ordering_threshold,
    paired_qdii,
    thermal_qdii,
)
from .simgen import SimConfig, sample_frame, simulate_histogram
from .specfun import (
    AlternatingSumResult,
    SignedLog,
    alternating_sum,
    log_bessel_i,
    log_gamma,
    sinc,
)

__version__ = "0.1.0"
