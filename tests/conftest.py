import numpy as np
import pytest
from hypothesis import settings

from twinbeam import DetectedIntensityMoments, TwinBeamParams, qdii

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

# reference experiment: detected moments, efficiencies and the fitted state
PAPER_DETECTED = DetectedIntensityMoments(
    mean_s=2.411, mean_i=2.353, var_s=0.079, var_i=0.095, cov=0.598)
PAPER_ETA_S = 0.243
PAPER_ETA_I = 0.235
PAPER_VAR_P = 0.549
PAPER_PARAMS = TwinBeamParams(
    m_pairs=179.0, b_pairs=0.055,
    m_noise_s=8e-6, b_noise_s=320.0,
    m_noise_i=8e-3, b_noise_i=12.0)


@pytest.fixture
def paper_detected():
    return PAPER_DETECTED


@pytest.fixture
def paper_params():
    return PAPER_PARAMS


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture(autouse=True)
def fresh_qdii_caches():
    """Every test starts without a kept paired density or quadrature rule,
    so a test that patches a rank limit or a path function evaluates the
    density afresh."""
    qdii._last_paired_values.cache_clear()
    qdii._gauss_legendre.cache_clear()
