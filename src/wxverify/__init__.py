"""Forecast verification engine.

Latitude-weighted skill metrics (WRMSE, ACC, bias, activity), zonal
energy spectra, percentile-threshold extreme-event detection with
temporal-IoU matching, minimum-pressure tropical-cyclone tracking and
verification, and a station observation pipeline with reference-field
quality control - plus a synthetic-data harness that makes every formula
testable at desk scale.

The names below are imported from their modules on first access, so
importing the package (or one command of the CLI) loads only the layers
that are used.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "climatology": ("DailyMeanClimatology", "ThresholdField"),
    "cyclones": ("IntensityError", "StormFix", "StormTrack", "StormTracker",
                 "TrackerConfig", "homogeneous_sample", "intensity_errors",
                 "track_dpe", "track_storm"),
    "errors": ("WxVerifyError",),
    "extremes": ("CategoricalScores", "EventKind", "label_event_runs",
                 "match_counts", "scores_from_counts"),
    "grid": ("EARTH_RADIUS_KM", "FieldBlock", "GeoGrid", "VariableId",
             "derive_wind_speed", "haversine_km", "latitude_weights"),
    "harness": ("PlantedEpisode", "SyntheticScenario", "VariableProcess",
                "VortexSpec", "smoothed_forecast"),
    "spectra": ("ZonalSpectrum", "midlatitude_spectrum"),
    "stations": ("QcFlag", "QcThresholds", "Station", "StationTable",
                 "station_scores"),
    "thresholds": ("ThresholdBuild",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
