"""Deterministic synthesis and socket streaming of grip-force sessions.

A session is one run of the four-phase pick-and-drop task. Amplitudes are
drawn per sensor and task phase from Gaussian (mean, sd) models, clamped
to the u16 mV range and rounded, at the exact 20 ms frame cadence. The
same spec (including seed) always yields a byte-identical recording.
"""

from __future__ import annotations

import math
import random
import re
import socket
import time
from array import array
from bisect import bisect_right
from collections import ChainMap
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Mapping

from .protocol import (
    AMPLITUDE_MAX,
    FRAME_SIZE,
    FRAMES_PER_SECOND,
    NOMINAL_INTERVAL_MS,
    SENSOR_COUNT,
    Frames,
    Hand,
    check_endpoint,
    encode_frames,
)
from .recording import Expertise, SessionRecording

TASK_STEP_COUNT = 4
SESSION_COUNT = 10
# shares of the session: move tool to the object; close grippers, grasp and lift;
# carry object to the target; open grippers and release
STEP_FRACTIONS = (0.30, 0.25, 0.30, 0.15)


def check_session(session_index: int) -> int:
    """``session_index`` if it is one of the study's sessions 1..SESSION_COUNT, else ValueError."""
    if not 1 <= session_index <= SESSION_COUNT:
        raise ValueError(f"session_index must be in 1..{SESSION_COUNT}")
    return session_index


def check_speed(speed: float) -> float:
    """``speed`` if it is a positive pacing factor (inf: no pacing), else ValueError."""
    if not speed > 0:
        raise ValueError(f"speed must be positive, got {speed}")
    return speed


class ConnectionRefused(OSError):
    """The receiving endpoint could not be reached; nothing was sent."""


class ConnectionLost(OSError):
    """The connection dropped mid-stream. ``frames_sent`` were delivered."""

    def __init__(self, message: str, frames_sent: int):
        super().__init__(message)
        self.frames_sent = frames_sent


# (mean, sd) per task step, keyed by 1-based sensor index
SensorModels = Mapping[int, tuple[tuple[float, float], ...]]


@dataclass(frozen=True)
class UserProfile:
    """Amplitude model of one user: per sensor and task step, (mean, sd) in mV."""

    user_id: str
    expertise: Expertise
    sensor_models: SensorModels
    handedness: Hand = Hand.RIGHT

    def __post_init__(self):
        if set(self.sensor_models) != set(range(1, SENSOR_COUNT + 1)):
            raise ValueError(f"sensor_models must cover sensors 1..{SENSOR_COUNT}")
        for idx, steps in self.sensor_models.items():
            if len(steps) != TASK_STEP_COUNT:
                raise ValueError(f"sensor {idx} needs {TASK_STEP_COUNT} (mean, sd) pairs")
            for mean, sd in steps:
                if not (0 <= mean < math.inf and 0 <= sd < math.inf):
                    raise ValueError(f"sensor {idx} needs a finite, non-negative mean and sd")

    def model_for(self, sensor: int, step: int) -> tuple[float, float]:
        return self.sensor_models[sensor][step - 1]


@dataclass(frozen=True)
class SessionSpec:
    """Everything needed to synthesize one session deterministically."""

    user: UserProfile
    hand: Hand
    session_index: int
    duration_s: float
    seed: int

    def __post_init__(self):
        check_session(self.session_index)
        if not (self.duration_s * FRAMES_PER_SECOND < math.inf
                and frame_count_for(self.duration_s) >= 1):
            raise ValueError("duration_s must be positive, finite and hold one 20 ms frame")
        if not 0 <= self.seed <= 0xFFFFFFFFFFFFFFFF:
            raise ValueError("seed out of u64 range")


def frame_count_for(duration_s: float) -> int:
    """floor(duration * 50), guarded against float rounding of exact products."""
    return int(duration_s * FRAMES_PER_SECOND + 1e-9)


def synthesize_session(spec: SessionSpec) -> SessionRecording:
    """Generate a full recording at exact 20 ms cadence from the user's model.

    Each amplitude is one ``random.Random(seed).gauss(mean, sd)`` draw per
    sensor and frame, clamped to the u16 range and rounded. CPython's
    Box-Muller pair is inlined (same ``random()`` draws, same order, the
    spare normal to the next sensor), so the draws equal ``random.gauss``'s
    and identical specs give byte-identical recordings.
    """
    count = frame_count_for(spec.duration_s)
    duration_ms = count * NOMINAL_INTERVAL_MS
    bounds = (*accumulate(STEP_FRACTIONS[:-1]), 1.0)  # the last is exactly 1: no t is stranded
    # per task step, (mean, sd, mean, sd) for each two sensors that share one normal pair
    tables = [[(*spec.user.model_for(s, step), *spec.user.model_for(s + 1, step))
               for s in range(1, SENSOR_COUNT, 2)] for step in range(1, TASK_STEP_COUNT + 1)]
    rand = random.Random(spec.seed).random
    cos, sin, log, sqrt, tau = math.cos, math.sin, math.log, math.sqrt, math.tau
    top = float(AMPLITUDE_MAX)
    amps, k = [], 0
    for t_ms in range(0, duration_ms, NOMINAL_INTERVAL_MS):
        ratio = t_ms / duration_ms
        while ratio >= bounds[k]:  # ratio only grows, so k is the active step - 1
            k += 1
        for mean0, sd0, mean1, sd1 in tables[k]:
            x2pi = rand() * tau
            g2rad = sqrt(-2.0 * log(1.0 - rand()))
            x = mean0 + cos(x2pi) * g2rad * sd0
            amps.append(round(0.0 if x < 0.0 else top if x > top else x))
            x = mean1 + sin(x2pi) * g2rad * sd1
            amps.append(round(0.0 if x < 0.0 else top if x > top else x))
    frames = Frames(bytes((spec.hand,)) * count, array("I", range(count)),
                    array("Q", range(0, duration_ms, NOMINAL_INTERVAL_MS)), array("H", amps))
    return SessionRecording(
        user_id=spec.user.user_id,
        expertise=spec.user.expertise,
        session_index=spec.session_index,
        hand=spec.hand,
        frames=frames,
    )


def calibrate_to_cell(mean_target: float, sem_target: float, n: int) -> tuple[float, float]:
    """(mean, sd) of the Gaussian whose n-sample summaries match (mean, SEM).

    SEM = sd / sqrt(n), so sd = SEM * sqrt(n).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not sem_target >= 0:
        raise ValueError("sem_target must be >= 0")
    if not math.isfinite(mean_target) or sem_target == math.inf:
        raise ValueError(f"targets must be finite, got mean {mean_target}, SEM {sem_target}")
    return mean_target, sem_target * math.sqrt(n)


@dataclass(frozen=True)
class TransmissionReport:
    frames_sent: int
    wall_time_s: float


def stream_session(
    recording: SessionRecording,
    endpoint: tuple[str, int],
    speed: float = 1.0,
) -> TransmissionReport:
    """Send a recording's frames over a stream socket at 20 ms / speed pacing.

    Frame i is due i * 20 ms / speed after the start, and each ``send``
    offers the kernel every frame that is due, so drift does not
    accumulate; at ``speed=float('inf')`` the whole recording is due at
    once. ``frames_sent`` counts the whole frames the kernel accepted.
    """
    check_endpoint(*endpoint)
    interval_s = NOMINAL_INTERVAL_MS / 1000.0 / check_speed(speed)
    wire = memoryview(encode_frames(recording.frames))
    indices = range(len(recording.frames))
    try:
        sock = socket.create_connection(endpoint, timeout=10.0)
    except OSError as exc:
        raise ConnectionRefused(f"cannot connect to {endpoint[0]}:{endpoint[1]}: {exc}") from exc
    sent = 0  # bytes
    start = time.monotonic()
    try:
        with sock:
            while sent < len(wire):
                delay = start + sent // FRAME_SIZE * interval_s - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                # the frames due by now: all of them when interval_s is 0
                due = bisect_right(indices, time.monotonic() - start, key=lambda i: i * interval_s)
                sent += sock.send(wire[sent:due * FRAME_SIZE])
    except OSError as exc:
        frames = sent // FRAME_SIZE
        raise ConnectionLost(f"connection lost after {frames} frames: {exc}", frames) from exc
    return TransmissionReport(sent // FRAME_SIZE, time.monotonic() - start)


# ---------------------------------------------------------------------------
# Expertise presets.
#
# Reference S7 (mean mV, SEM mV) for the first and last of the ten sessions;
# trained users get the midpoint of the novice and expert endpoints. Session
# indices in between interpolate linearly. The default per-cell n used to
# convert SEM to sd matches the comparison module's reconstruction default.

S7_SESSION_CELLS: dict[Expertise, tuple[tuple[float, float], tuple[float, float]]] = {
    Expertise.NOVICE: ((98.0, 1.2), (78.0, 1.6)),
    Expertise.EXPERT: ((594.0, 1.8), (609.0, 2.2)),
    Expertise.TRAINED: ((346.0, 1.5), (343.5, 1.9)),
}

DEFAULT_CELL_N = 721

# Task time (seconds), keyed by (expertise, dominant hand?)
TASK_DURATIONS_S: dict[tuple[Expertise, bool], float] = {
    (Expertise.EXPERT, True): 8.88,
    (Expertise.EXPERT, False): 10.19,
    (Expertise.TRAINED, True): 11.90,
    (Expertise.TRAINED, False): 13.53,
    (Expertise.NOVICE, True): 15.42,
    (Expertise.NOVICE, False): 12.99,
}

PRESET_HANDEDNESS: dict[Expertise, Hand] = {
    Expertise.EXPERT: Hand.LEFT,
    Expertise.TRAINED: Hand.RIGHT,
    Expertise.NOVICE: Hand.RIGHT,
}

# S7 carries the calibrated cell model unchanged (factor 1.0, no step
# modulation) so whole-session S7 summaries track the cell parameters;
# the other sensors get fixed level scalings and per-phase effort shaping.
_SENSOR_LEVEL_FACTORS = {
    1: 1.10, 2: 1.05, 3: 1.00, 4: 0.95, 5: 0.90, 6: 0.85,
    7: 1.00, 8: 0.80, 9: 0.75, 10: 0.70, 11: 0.65, 12: 0.60,
}
_STEP_EFFORT_FACTORS = (0.55, 1.00, 0.90, 0.45)


def preset_profile(expertise: Expertise, session_index: int = 1,
                   user_id: str | None = None) -> UserProfile:
    """Amplitude model for an expertise level at a given session index."""
    check_session(session_index)
    (m0, s0), (m1, s1) = S7_SESSION_CELLS[expertise]
    w = (session_index - 1) / (SESSION_COUNT - 1)
    mean, sd = calibrate_to_cell(m0 + w * (m1 - m0), s0 + w * (s1 - s0), DEFAULT_CELL_N)
    models = {}
    for idx in range(1, SENSOR_COUNT + 1):
        if idx == 7:
            models[idx] = tuple((mean, sd) for _ in range(TASK_STEP_COUNT))
        else:
            level = _SENSOR_LEVEL_FACTORS[idx]
            models[idx] = tuple((mean * level * eff, sd * level) for eff in _STEP_EFFORT_FACTORS)
    return UserProfile(
        user_id=user_id or expertise.value,
        expertise=expertise,
        sensor_models=models,
        handedness=PRESET_HANDEDNESS[expertise],
    )


def resolve_hand(profile: UserProfile, hand: str | Hand) -> Hand:
    """Map left/right/dominant/nondominant onto a concrete Hand."""
    if isinstance(hand, Hand):
        return hand
    name = hand.strip().lower()
    if name in ("left", "l"):
        return Hand.LEFT
    if name in ("right", "r"):
        return Hand.RIGHT
    if name == "dominant":
        return profile.handedness
    if name in ("nondominant", "non-dominant"):
        return Hand.RIGHT if profile.handedness == Hand.LEFT else Hand.LEFT
    raise ValueError(f"unknown hand {hand!r}")


def preset_duration(expertise: Expertise, hand: Hand, handedness: Hand) -> float:
    return TASK_DURATIONS_S[(expertise, hand == handedness)]


_OVERRIDE_KEY = re.compile(r"^sensor(\d+)(?:\.step(\d))?$")


def read_config(path) -> dict[str, str]:
    """``key = value`` lines of a config file, each key once, lower-cased; ``#`` opens a comment."""
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            key = key.strip().lower()
            if key in entries:
                raise ValueError(f"{path}:{lineno}: key {key!r} given twice")
            entries[key] = value.strip()
    return entries


def _override(profile: UserProfile, match: re.Match, value) -> UserProfile:
    """``profile`` with sensor ``match[1]`` set to ``value`` at step ``match[2]`` or every step."""
    sensor, step = int(match[1]), int(match[2] or 0)
    if not (1 <= sensor <= SENSOR_COUNT and (match[2] is None or 1 <= step <= TASK_STEP_COUNT)):
        raise ValueError(f"sensor must be in 1..{SENSOR_COUNT}, step in 1..{TASK_STEP_COUNT}")
    try:
        mean_s, sd_s = str(value).split(",")
        pair = (float(mean_s), float(sd_s))
    except ValueError:
        raise ValueError("override must be 'mean,sd'") from None
    old = profile.sensor_models[sensor]
    steps = tuple(pair if step in (0, k) else old[k - 1] for k in range(1, TASK_STEP_COUNT + 1))
    return replace(profile, sensor_models={**profile.sensor_models, sensor: steps})


def session_spec(layers) -> SessionSpec:
    """The one path from settings to a SessionSpec.

    ``layers`` holds ``(source, settings)`` pairs, highest precedence first;
    ``source`` is the file a layer was read from, or None. Keys are those of
    a config file: ``user``, ``expertise`` (required), ``hand`` (default
    dominant), ``duration`` (default: the preset for that hand), ``session``
    (default 1), ``seed`` (default 0) and ``sensorN[.stepK] = mean,sd``.
    A bad value or an unknown key raises ValueError naming the key and its file if any.
    """
    settings = ChainMap(*(values for _, values in layers))

    # One step per setting, so that the checks of what it feeds name its key.
    @contextmanager
    def setting(key, default=None):
        try:
            yield settings.get(key, default)
        except ValueError as exc:
            where = next(f"{source}: " if source else "" for source, vals in layers if key in vals)
            raise ValueError(f"{where}{key} = {settings[key]}: {exc}") from None

    if "expertise" not in settings:
        files = "".join(f"{source}: " for source, _ in layers if source)
        raise ValueError(f"{files}missing required key 'expertise'")
    with setting("expertise") as value:
        expertise = Expertise(str(value).lower())
    with setting("session", 1) as value:
        session = int(value)
        profile = preset_profile(expertise, session, user_id=settings.get("user"))
    with setting("hand", "dominant") as value:
        hand = resolve_hand(profile, value)
    for key, value in settings.items():
        if match := _OVERRIDE_KEY.match(key):
            with setting(key):
                profile = _override(profile, match, value)
        elif key not in ("user", "expertise", "hand", "duration", "session", "seed"):
            with setting(key):
                raise ValueError("unknown key")
    with setting("duration", preset_duration(expertise, hand, profile.handedness)) as value:
        spec = SessionSpec(profile, hand, session, float(value), seed=0)
    with setting("seed", 0) as value:
        return replace(spec, seed=int(value))

