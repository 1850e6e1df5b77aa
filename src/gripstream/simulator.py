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
from collections import ChainMap
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Mapping

from .protocol import (
    AMPLITUDE_MAX,
    FRAMES_PER_SECOND,
    NOMINAL_INTERVAL_MS,
    SENSOR_COUNT,
    GloveFrame,
    Hand,
    encode_frame,
)
from .recording import Expertise, SessionRecording

TASK_STEP_COUNT = 4
SESSION_COUNT = 10
DEFAULT_STEP_FRACTIONS = (0.30, 0.25, 0.30, 0.15)
DEFAULT_STEP_DESCRIPTIONS = (
    "move tool to the object",
    "close grippers, grasp and lift",
    "carry object to the target",
    "open grippers and release",
)


class OutOfRange(ValueError):
    """Timestamp outside the session duration."""


class InvalidN(ValueError):
    """Observation count below 1."""


class StreamError(OSError):
    """Base for transport failures while streaming a session."""


class ConnectionRefused(StreamError):
    """The receiving endpoint could not be reached; nothing was sent."""


class ConnectionLost(StreamError):
    """The connection dropped mid-stream. ``frames_sent`` were delivered."""

    def __init__(self, message: str, frames_sent: int):
        super().__init__(message)
        self.frames_sent = frames_sent


@dataclass(frozen=True)
class TaskStep:
    index: int  # 1-based
    description: str
    fraction: float  # share of the session duration


@dataclass(frozen=True)
class TaskScript:
    """The four ordered task phases and their shares of the session."""

    steps: tuple[TaskStep, ...]

    def __post_init__(self):
        if len(self.steps) != TASK_STEP_COUNT:
            raise ValueError(f"task script must have {TASK_STEP_COUNT} steps")
        for pos, step in enumerate(self.steps, start=1):
            if step.index != pos:
                raise ValueError(f"step at position {pos} has index {step.index}")
            if step.fraction <= 0:
                raise ValueError(f"step {pos} fraction must be positive")
        total = math.fsum(s.fraction for s in self.steps)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"step fractions must sum to 1, got {total}")

    def boundaries(self) -> tuple[float, ...]:
        """Cumulative fraction at the end of each step; the last is exactly 1."""
        cum, out = 0.0, []
        for step in self.steps:
            cum += step.fraction
            out.append(cum)
        out[-1] = 1.0  # absorb float residue so every t < duration lands in a step
        return tuple(out)


def default_task_script(fractions=DEFAULT_STEP_FRACTIONS) -> TaskScript:
    return TaskScript(
        tuple(
            TaskStep(i + 1, desc, frac)
            for i, (desc, frac) in enumerate(zip(DEFAULT_STEP_DESCRIPTIONS, fractions))
        )
    )


def phase_of(t_ms: int, script: TaskScript, duration_ms: int) -> int:
    """Task step (1..4) active at ``t_ms``. Step boundaries belong to the later step."""
    if not 0 <= t_ms < duration_ms:
        raise OutOfRange(f"t_ms={t_ms} outside session of {duration_ms} ms")
    ratio = t_ms / duration_ms
    for step, bound in zip(script.steps, script.boundaries()):
        if ratio < bound:
            return step.index
    return script.steps[-1].index


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
                if mean < 0 or sd < 0:
                    raise ValueError(f"sensor {idx} has negative model parameter")

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
        if not 1 <= self.session_index <= SESSION_COUNT:
            raise ValueError(f"session_index must be in 1..{SESSION_COUNT}")
        if not 0 < self.duration_s < math.inf:
            raise ValueError("duration_s must be positive and finite")
        if not 0 <= self.seed <= 0xFFFFFFFFFFFFFFFF:
            raise ValueError("seed out of u64 range")


def frame_count_for(duration_s: float) -> int:
    """floor(duration * 50), guarded against float rounding of exact products."""
    return int(duration_s * FRAMES_PER_SECOND + 1e-9)


def synthesize_session(spec: SessionSpec, script: TaskScript | None = None) -> SessionRecording:
    """Generate a full recording at exact 20 ms cadence from the user's model.

    Identical specs (same seed) produce byte-identical recordings.
    """
    script = script or default_task_script()
    count = frame_count_for(spec.duration_s)
    duration_ms = count * NOMINAL_INTERVAL_MS
    rng = random.Random(spec.seed)
    frames = []
    for i in range(count):
        t_ms = i * NOMINAL_INTERVAL_MS
        step = phase_of(t_ms, script, duration_ms)
        amps = []
        for sensor in range(1, SENSOR_COUNT + 1):
            mean, sd = spec.user.model_for(sensor, step)
            amps.append(min(AMPLITUDE_MAX, max(0, round(rng.gauss(mean, sd)))))
        frames.append(GloveFrame(spec.hand, i, t_ms, tuple(amps)))
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
        raise InvalidN(f"need n >= 1, got {n}")
    if sem_target < 0:
        raise ValueError("sem_target must be >= 0")
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

    ``speed=float('inf')`` streams as fast as possible. Pacing follows the
    nominal schedule rather than sleeping per frame, so drift does not
    accumulate.
    """
    if not speed > 0:
        raise ValueError("speed must be positive")
    interval_s = 0.0 if math.isinf(speed) else NOMINAL_INTERVAL_MS / 1000.0 / speed
    try:
        sock = socket.create_connection(endpoint, timeout=10.0)
    except OSError as exc:
        raise ConnectionRefused(f"cannot connect to {endpoint[0]}:{endpoint[1]}: {exc}") from exc
    sent = 0
    start = time.monotonic()
    try:
        with sock:
            for frame in recording.frames:
                sock.sendall(encode_frame(frame))
                sent += 1
                if interval_s and sent < len(recording.frames):
                    delay = start + sent * interval_s - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
    except OSError as exc:
        raise ConnectionLost(f"connection lost after {sent} frames: {exc}", sent) from exc
    return TransmissionReport(sent, time.monotonic() - start)


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


def preset_profile(
    expertise: Expertise,
    session_index: int = 1,
    user_id: str | None = None,
    cell_n: int = DEFAULT_CELL_N,
) -> UserProfile:
    """Amplitude model for an expertise level at a given session index."""
    if not 1 <= session_index <= SESSION_COUNT:
        raise ValueError(f"session_index must be in 1..{SESSION_COUNT}")
    (m0, s0), (m1, s1) = S7_SESSION_CELLS[expertise]
    w = (session_index - 1) / (SESSION_COUNT - 1)
    mean, sd = calibrate_to_cell(m0 + w * (m1 - m0), s0 + w * (s1 - s0), cell_n)
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
    """The ``key = value`` lines of a config file, keys lower-cased; ``#`` starts a comment."""
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            entries[key.strip().lower()] = value.strip()
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
    A bad value raises ValueError naming its key, and its file if it has one.
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
    with setting("duration", preset_duration(expertise, hand, profile.handedness)) as value:
        spec = SessionSpec(profile, hand, session, float(value), seed=0)
    with setting("seed", 0) as value:
        return replace(spec, seed=int(value))


def load_session_spec(path) -> SessionSpec:
    """Read a session spec from a config file (keys: see :func:`session_spec`)."""
    return session_spec([(path, read_config(path))])
