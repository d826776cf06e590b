"""Passive-state-preparation continuous-variable QKD toolkit.

Simulator, noise-budget calculator and secure-key-rate engine for the
Gaussian-modulated coherent-state protocol with a passively prepared
(thermal-source) sender, plus the conjugate-homodyne photon-statistics
pipeline used to characterize thermal sources.
"""

from .errors import (
    DegenerateDataError,
    ParameterError,
    PhysicalityError,
    RecordFormatError,
    UnitError,
)
from .g2 import (
    CalibrationResult,
    G2Result,
    QuadratureRecord,
    calibrate_photon_number,
    export_histogram,
    g2_estimate,
    load_quadrature_records,
)
from .gaussian import (
    DetectorModel,
    RngStream,
    beamsplitter,
    heterodyne_measure,
    sample_thermal_quadratures,
)
from .keyrate import KeyRateReport, optimize_modulation, secure_key_rate
from .noise import (
    ChannelModel,
    NoiseBudget,
    ProtocolParams,
    TransmittanceFloorWarning,
    excess_noise_alice,
    heterodyne_noise,
    total_noise,
)
from .simulate import (
    SimConfig,
    SimSummary,
    empirical_mutual_information,
    run_protocol,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationResult",
    "ChannelModel",
    "DegenerateDataError",
    "DetectorModel",
    "G2Result",
    "KeyRateReport",
    "NoiseBudget",
    "ParameterError",
    "PhysicalityError",
    "ProtocolParams",
    "QuadratureRecord",
    "RecordFormatError",
    "RngStream",
    "SimConfig",
    "SimSummary",
    "TransmittanceFloorWarning",
    "UnitError",
    "beamsplitter",
    "calibrate_photon_number",
    "empirical_mutual_information",
    "excess_noise_alice",
    "export_histogram",
    "g2_estimate",
    "heterodyne_measure",
    "heterodyne_noise",
    "load_quadrature_records",
    "optimize_modulation",
    "run_protocol",
    "sample_thermal_quadratures",
    "secure_key_rate",
    "total_noise",
]
