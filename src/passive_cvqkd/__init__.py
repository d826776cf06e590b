"""Passive-state-preparation continuous-variable QKD toolkit.

Simulator, noise-budget calculator and secure-key-rate engine for the
Gaussian-modulated coherent-state protocol with a passively prepared
(thermal-source) sender, plus the conjugate-homodyne photon-statistics
pipeline used to characterize thermal sources.
"""

__version__ = "0.1.0"

# Every public name, by the module that defines it.  A module is imported
# when one of its names is first read, so importing the package, or a
# command that does not use a layer, does not load that layer or numpy.
_LAZY = {
    name: module
    for module, names in {
        "errors": "DegenerateDataError ParameterError PhysicalityError RecordFormatError UnitError",
        "g2": "CalibrationResult G2Result QuadratureRecord calibrate_photon_number export_histogram "
        "g2_estimate load_quadrature_records",
        "gaussian": "DetectorModel RngStream",
        "keyrate": "KeyRateReport optimize_modulation secure_key_rate",
        "noise": "ChannelModel NoiseBudget ProtocolParams TransmittanceFloorWarning excess_noise_alice "
        "heterodyne_noise total_noise",
        "simulate": "SimConfig SimSummary empirical_mutual_information run_protocol",
    }.items()
    for name in names.split()
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    """Import the module that defines ``name`` and bind the name here (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
