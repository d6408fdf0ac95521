"""The simulated measurements the benchmark runs on."""

from dataclasses import dataclass

import twinbeam as tb


@dataclass(frozen=True)
class Setting:
    """A state, its detectors and the sizes of one roundtrip."""

    params: tb.TwinBeamParams
    detector_s: tb.DetectorModel
    detector_i: tb.DetectorModel
    frames: int
    scan_points: int


# the README state and detectors at the README's sizes
REFERENCE = Setting(
    tb.TwinBeamParams(m_pairs=179.0, b_pairs=0.055, m_noise_s=8e-6,
                      b_noise_s=320.0, m_noise_i=8e-3, b_noise_i=12.0),
    tb.DetectorModel(efficiency=0.243, pixels=10000, dark_rate=1e-4),
    tb.DetectorModel(efficiency=0.235, pixels=10000, dark_rate=1e-4),
    frames=1_000_000, scan_points=200)

# A strongly paired state whose moments stay feasible at 2*10^4 frames for
# every seed of the pool (the reference state does not, for about a third):
# used for warm-up and for the benchmark's own smoke test.
SMALL = Setting(
    tb.TwinBeamParams(m_pairs=10.0, b_pairs=1.0, m_noise_s=2.0,
                      b_noise_s=1.0, m_noise_i=2.0, b_noise_i=1.0),
    tb.DetectorModel(efficiency=0.3, pixels=1000, dark_rate=1e-4),
    tb.DetectorModel(efficiency=0.28, pixels=1000, dark_rate=1e-4),
    frames=20_000, scan_points=20)
