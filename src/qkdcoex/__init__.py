"""qkdcoex: decoy-state BB84 key rates coexisting with classical channels
over single-mode and few-mode fiber.

Four layers: `link` (loss/transmittance/isolation budgets), `raman`
(spontaneous Raman scattering noise and coefficient fitting), `decoy`
(vacuum+weak decoy-state bounds and secure key rates) and `scenario`
(sweeps, cliff search, calibration, result emission). Around them:
`presets` (the paper's built-in scenarios), `config` (INI scenario files),
`cli` (the `qkdcoex` command) and `errors` (exceptions and the record
decorator). `load_scenario` is resolved on first use, so importing the
package does not load the INI reader.
"""

from .decoy import (ChannelPoint, DecoyIntensities, DetectorSpec,
                    DistanceResult, KeyRateBreakdown, ProtocolParams,
                    background_yield, binary_entropy, dbm_to_mw,
                    e1_upper_bound, gain_and_qber, key_rate_details,
                    max_secure_distance_km, mw_to_dbm, secure_key_rate_bps,
                    y1_lower_bound)
from .errors import (CalibrationError, ComputationError, ConfigError,
                     DegenerateFitError, DomainError, NoSecureDistanceError,
                     QkdCoexError, UndefinedBoundError)
from .link import (Band, ComponentSpec, FiberKind, FiberSpec, IsolationTable,
                   LinkPlan, Mode, MultiplexScheme, SchemeName, Side,
                   classical_min_launch_power_dbm, modal_isolation_at,
                   total_loss_db, transmittance)
from .presets import (FMF_MODAL_ISOLATION, RAMAN_CPS_PER_MW_KM,
                      REFERENCE_TARGETS, get_preset, preset_names)
from .raman import (NoiseMeasurement, RamanCoefficient,
                    coefficient_suppression, detected_count_suppression,
                    fit_raman_coefficient, noise_prob_per_pulse,
                    peak_noise_distance_km, read_measurements_csv,
                    srs_noise_rate_cps)
from .scenario import (CalibrationReport, CalibrationTarget, ChannelState,
                       ResultRow, Scenario, SweepSpec, TargetResidual,
                       apply_calibration, calibrate, channel_state,
                       emit_results, evaluate_at, launch_power_dbm,
                       max_secure_distance, rows_to_csv, rows_to_json,
                       run_sweep)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name == "load_scenario":
        from .config import load_scenario
        return load_scenario
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), "load_scenario"})


def backend_name() -> str:
    """Name of the per-point implementation; there is only the Python one."""
    return "python"


__all__ = [
    "Band", "CalibrationError", "CalibrationReport", "CalibrationTarget",
    "ChannelPoint", "ChannelState", "ComponentSpec", "ComputationError",
    "ConfigError", "DecoyIntensities", "DegenerateFitError", "DetectorSpec",
    "DistanceResult", "DomainError", "FMF_MODAL_ISOLATION", "FiberKind",
    "FiberSpec", "IsolationTable", "KeyRateBreakdown", "LinkPlan", "Mode",
    "MultiplexScheme", "NoSecureDistanceError", "NoiseMeasurement",
    "ProtocolParams", "QkdCoexError", "RAMAN_CPS_PER_MW_KM",
    "REFERENCE_TARGETS", "RamanCoefficient", "ResultRow", "Scenario",
    "SchemeName", "Side", "SweepSpec", "TargetResidual", "UndefinedBoundError",
    "apply_calibration", "backend_name", "background_yield", "binary_entropy",
    "calibrate", "channel_state", "classical_min_launch_power_dbm",
    "coefficient_suppression", "dbm_to_mw", "detected_count_suppression",
    "e1_upper_bound", "emit_results", "evaluate_at", "fit_raman_coefficient",
    "gain_and_qber", "get_preset", "key_rate_details", "launch_power_dbm",
    "load_scenario", "max_secure_distance", "max_secure_distance_km",
    "modal_isolation_at", "mw_to_dbm", "noise_prob_per_pulse",
    "peak_noise_distance_km", "preset_names", "read_measurements_csv",
    "rows_to_csv", "rows_to_json", "run_sweep", "secure_key_rate_bps",
    "srs_noise_rate_cps", "total_loss_db", "transmittance", "y1_lower_bound",
]
