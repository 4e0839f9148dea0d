"""psalab: a desk-scale phase-sensitive amplifier laboratory.

Simulates non-degenerate two-mode parametric amplification of classical
field amplitudes, the heterodyne three-beam beatnote seen by the detection
photodiode, and the FFT-based gain/phase extraction used to analyse it,
plus the sweep campaigns (phase scans, power sweeps, seeded-vs-unseeded
comparisons, detuning spectra and phase-transfer curves) that produce the
standard figure-shaped datasets.
"""

__version__ = "0.1.0"

from .errors import ConfigError, DomainError, PsalabError
from .squeezer import (
    AmplifierParams,
    GainPair,
    evolve_block,
    evolve_two_mode,
    gain_extrema,
    pia_gain,
    psa_gain,
    psa_max_from_pia,
    wrap_phase,
)
from .calibration import (
    CalibrationMap,
    default_calibration,
    effective_r,
    fitted_calibration,
    r_for_max_gain,
)
from .beatnote import (
    BeatnoteRecord,
    DetectionConfig,
    cell_off_record,
    synthesize_beatnote,
)
from .analyzer import (
    extract_cos_phase,
    extract_gain,
    phase_histogram,
    reconstruct_phase,
    spectrum_peaks,
    unwrap_cos_scan,
)
from .sweeps import (
    ScanSpec,
    SweepResult,
    point_seed,
    run_scan,
)
from .config import RunConfig, parse_config, to_document

__all__ = [
    "__version__",
    "AmplifierParams",
    "BeatnoteRecord",
    "CalibrationMap",
    "ConfigError",
    "DetectionConfig",
    "DomainError",
    "GainPair",
    "PsalabError",
    "RunConfig",
    "ScanSpec",
    "SweepResult",
    "cell_off_record",
    "default_calibration",
    "effective_r",
    "evolve_block",
    "evolve_two_mode",
    "extract_cos_phase",
    "extract_gain",
    "fitted_calibration",
    "gain_extrema",
    "parse_config",
    "phase_histogram",
    "pia_gain",
    "point_seed",
    "psa_gain",
    "psa_max_from_pia",
    "r_for_max_gain",
    "reconstruct_phase",
    "run_scan",
    "spectrum_peaks",
    "synthesize_beatnote",
    "to_document",
    "unwrap_cos_scan",
    "wrap_phase",
]
