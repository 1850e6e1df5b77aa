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
    UserProfile,
    calibrate_to_cell,
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

# every public name imported above, without the submodules those imports bind
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, type(stats)))
