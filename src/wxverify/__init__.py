"""Forecast verification engine.

Latitude-weighted skill metrics (WRMSE, ACC, bias, activity), zonal
energy spectra, percentile-threshold extreme-event detection with
temporal-IoU matching, minimum-pressure tropical-cyclone tracking and
verification, and a station observation pipeline with reference-field
quality control - plus a synthetic-data harness that makes every formula
testable at desk scale.
"""

__version__ = "0.1.0"

from .climatology import (DailyHistory, DailyMeanClimatology, ThresholdField,
                          build_daily_mean_climatology, build_thresholds)
from .cyclones import (IntensityError, StormFix, StormTrack, TrackerConfig,
                       TrackSource, homogeneous_sample, intensity_errors,
                       track_dpe, track_storm)
from .errors import WxVerifyError
from .extremes import (CategoricalScores, EventKind, EventSegment, MatchResult,
                       label_event_runs, label_events, match_counts,
                       match_events, scores_from_counts,
                       segments_by_location, temporal_iou)
from .grid import (EARTH_RADIUS_KM, GeoGrid, GridField, VariableId,
                   derive_wind_speed, haversine_km, interp_to_stations,
                   latitude_weights, regrid_bilinear)
from .harness import (PlantedEpisode, SyntheticScenario, VariableProcess,
                      VortexSpec, persistence_forecast, smoothed_forecast)
from .metrics import MetricKind, MetricValue, acc, activity, bias, wrmse
from .spectra import ZonalSpectrum, midlatitude_spectrum, zonal_spectrum_row
from .stations import (QcFlag, QcThresholds, Station, StationTable,
                       qc_ratio_filter, station_scores, window_average)

__all__ = [
    "__version__",
    "WxVerifyError",
    "GeoGrid", "GridField", "VariableId", "EARTH_RADIUS_KM",
    "latitude_weights", "regrid_bilinear", "interp_to_stations",
    "haversine_km", "derive_wind_speed",
    "MetricKind", "MetricValue", "wrmse", "acc", "bias", "activity",
    "ZonalSpectrum", "zonal_spectrum_row", "midlatitude_spectrum",
    "DailyHistory", "ThresholdField", "DailyMeanClimatology",
    "build_thresholds", "build_daily_mean_climatology",
    "EventKind", "EventSegment", "MatchResult", "CategoricalScores",
    "label_event_runs", "label_events", "segments_by_location",
    "temporal_iou", "match_events", "match_counts", "scores_from_counts",
    "StormFix", "StormTrack", "TrackSource", "TrackerConfig",
    "IntensityError", "track_storm", "homogeneous_sample", "track_dpe",
    "intensity_errors",
    "Station", "StationTable", "QcFlag", "QcThresholds", "window_average",
    "qc_ratio_filter", "station_scores",
    "SyntheticScenario", "VariableProcess", "VortexSpec", "PlantedEpisode",
    "persistence_forecast", "smoothed_forecast",
]
