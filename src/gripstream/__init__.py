"""Grip-force glove telemetry: codec, simulator, ingestion, profiling, statistics."""

from .protocol import (
    FRAME_SIZE,
    NOMINAL_INTERVAL_MS,
    SENSOR_COUNT,
    CadenceReport,
    GloveFrame,
    Hand,
    SensorId,
    decode_frame,
    encode_frame,
    validate_cadence,
)
from .recording import Expertise, SessionRecording
from .simulator import (
    SessionSpec,
    TaskScript,
    UserProfile,
    calibrate_to_cell,
    phase_of,
    preset_profile,
    stream_session,
    synthesize_session,
)
from .ingest import detect_gaps, load_session, save_session
from .profiling import (
    GripForceProfile,
    PartialPolicy,
    Statistic,
    profile_export,
    sensor_series,
    task_time,
    window_profile,
)
from .stats import (
    AnovaTable,
    CellSummary,
    f_upper_tail,
    mean_sem,
    reconstruct_paper_cells,
    two_way_anova,
)

__version__ = "0.1.0"

__all__ = [
    "AnovaTable",
    "CadenceReport",
    "CellSummary",
    "Expertise",
    "FRAME_SIZE",
    "GloveFrame",
    "GripForceProfile",
    "Hand",
    "NOMINAL_INTERVAL_MS",
    "PartialPolicy",
    "SENSOR_COUNT",
    "SensorId",
    "SessionRecording",
    "SessionSpec",
    "Statistic",
    "TaskScript",
    "UserProfile",
    "calibrate_to_cell",
    "decode_frame",
    "detect_gaps",
    "encode_frame",
    "f_upper_tail",
    "load_session",
    "mean_sem",
    "phase_of",
    "preset_profile",
    "profile_export",
    "reconstruct_paper_cells",
    "save_session",
    "sensor_series",
    "stream_session",
    "synthesize_session",
    "task_time",
    "two_way_anova",
    "validate_cadence",
    "window_profile",
]
